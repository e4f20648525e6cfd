import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ilsolve as il
from ilsolve import (
    IlsProblem,
    StationaryDivergenceError,
    assemble_dense_preconditioned,
    check_convergence_conditions,
    gmres_bound_check,
    jacobi_eigh,
    spectral_radius_estimate,
    stationary_solve,
    verify_eigenstructure,
)
from ilsolve.analysis import generalized_sym_eigpairs, null_space_basis
from ilsolve.exceptions import AccuracyWarning, RankAmbiguityWarning
from ilsolve.sparse import rectangular_identity_csr

from conftest import random_desk_problem, scalar_problem

EPS = float(np.finfo(np.float64).eps)


def rank_edge_problem(a2_small=np.sqrt(10 * EPS), alpha=1.0):
    """A1 = 2I (3 x 3) and A2 = [[1, 0, 0], [0, a2_small, 0]]: with the
    default a2_small, the rank of A2 (and A2') sits on the threshold."""
    a2 = np.array([[1.0, 0.0, 0.0], [0.0, a2_small, 0.0]])
    return IlsProblem(2.0 * np.eye(3), a2, np.ones(3), np.ones(2), alpha)


def assert_same_fields(got, want):
    """Every field of two dataclass reports equal, arrays bit for bit."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        elif isinstance(b, list):
            for x, y in zip(a, b, strict=True):
                assert_same_fields(x, y)
        else:
            assert a == b, field.name


class TestJacobiEigh:
    def test_diagonal_matrix(self):
        w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], rtol=0, atol=1e-15)

    def test_two_by_two_known_eigenvalues(self):
        w, _ = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [1.0, 3.0], rtol=1e-14)

    def test_reconstruction_random_symmetric(self, rng):
        for n in (5, 12, 25):
            s = rng.standard_normal((n, n))
            s = 0.5 * (s + s.T)
            w, v = jacobi_eigh(s)
            rel = np.linalg.norm(v @ np.diag(w) @ v.T - s) / np.linalg.norm(s)
            assert rel <= 1e-11
            assert np.allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)

    def test_matches_lapack_eigenvalues(self, rng):
        s = rng.standard_normal((15, 15))
        s = 0.5 * (s + s.T)
        w, _ = jacobi_eigh(s)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(s), rtol=1e-11, atol=1e-12)

    def test_unsymmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sweep_cap_warns(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.warns(AccuracyWarning):
            jacobi_eigh(s, max_sweeps=0)


class TestGeneralizedEigs:
    def test_identity_pencil_scaling(self):
        w = generalized_sym_eigpairs(np.eye(3), 2.0 * np.eye(3))[0]
        np.testing.assert_allclose(w, 0.5, rtol=1e-14)

    def test_diagonal_ratio(self):
        w = generalized_sym_eigpairs(np.diag([2.0, 6.0]), 2.0 * np.eye(2))[0]
        np.testing.assert_allclose(w, [1.0, 3.0], rtol=1e-14)

    def test_characteristic_polynomial_roots(self):
        w = generalized_sym_eigpairs(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))[0]
        np.testing.assert_allclose(w, [1.0, 3.0], rtol=1e-13)

    def test_matches_scipy_on_random_pencil(self, rng):
        b = rng.standard_normal((10, 10))
        b = 0.5 * (b + b.T)
        c = rng.standard_normal((10, 10))
        c = c @ c.T + 10.0 * np.eye(10)
        got = generalized_sym_eigpairs(b, c)[0]
        want = scipy.linalg.eigh(b, c, eigvals_only=True)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-11)

    def test_eigenpairs_satisfy_pencil_equation(self, rng):
        b = rng.standard_normal((8, 8))
        b = 0.5 * (b + b.T)
        c = rng.standard_normal((8, 8))
        c = c @ c.T + 8.0 * np.eye(8)
        w, y = generalized_sym_eigpairs(b, c)
        for j in range(8):
            res = np.linalg.norm(b @ y[:, j] - w[j] * (c @ y[:, j]))
            assert res <= 1e-10 * np.linalg.norm(c @ y[:, j])

    def test_non_spd_second_matrix_rejected(self):
        with pytest.raises(ValueError):
            generalized_sym_eigpairs(np.eye(2), np.diag([1.0, -1.0]))


class TestNullSpaceBasis:
    def test_full_rank_matrix_has_empty_null_space(self, rng):
        m = rng.standard_normal((6, 3))
        assert null_space_basis(m).shape == (3, 0)

    def test_wide_matrix_null_dimension(self, rng):
        m = rng.standard_normal((3, 7))
        basis = null_space_basis(m)
        assert basis.shape == (7, 4)
        assert np.abs(m @ basis).max() <= 1e-12
        assert np.allclose(basis.T @ basis, np.eye(4), rtol=0, atol=1e-12)

    def test_zero_matrix_gives_full_basis(self):
        basis = null_space_basis(np.zeros((4, 4)))
        assert basis.shape == (4, 4)

    def test_singular_value_near_threshold_warns(self):
        # Squared, the small singular value is 10 eps, within a decade of
        # the rank threshold 2 * eps * 1.
        with pytest.warns(RankAmbiguityWarning):
            null_space_basis(np.diag([1.0, np.sqrt(10 * EPS)]))

    def test_graded_matrix_null_vectors_exact_to_rounding(self, rng):
        # Singular values 1 down to 1e-6, then three zeros: m'm has
        # condition 1e12 on its row space, which the SVD never forms.
        u, _ = np.linalg.qr(rng.standard_normal((20, 12)))
        v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        m = u @ np.diag(np.r_[np.logspace(0, -6, 9), np.zeros(3)]) @ v.T
        basis = null_space_basis(m)
        assert basis.shape == (12, 3)
        assert np.abs(m @ basis).max() <= 1e-14
        assert np.abs(basis.T @ basis - np.eye(3)).max() <= 1e-14

    def test_no_jacobi_sweep(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("jacobi_eigh called")

        monkeypatch.setattr(il.analysis, "jacobi_eigh", refuse)
        m = rng.standard_normal((3, 7))
        basis = null_space_basis(m)
        assert basis.shape == (7, 4)
        assert np.abs(m @ basis).max() <= 1e-12
        assert np.abs(basis.T @ basis - np.eye(4)).max() <= 1e-12
        assert null_space_basis(np.zeros((4, 4))).shape == (4, 4)
        assert null_space_basis(rng.standard_normal((6, 3))).shape == (3, 0)

    def test_eigenstructure_sweeps_only_the_pencil(self, monkeypatch):
        calls = []
        original = il.analysis.jacobi_eigh
        monkeypatch.setattr(il.analysis, "jacobi_eigh", lambda s: calls.append(s.shape) or original(s))
        prob = il.generate_random_problem(12, 9, 5, seed=3)  # q > n: null(A2') has dimension 4
        reports = [verify_eigenstructure(kind, prob) for kind in ("ibs1", "ibs2", "ibs3", "ibs4")]
        assert reports[0].unit_eigenvalue_checks[1].count == 4
        assert calls == [(5, 5)]


class TestConditionReport:
    def test_zero_a2_makes_all_conditions_hold(self):
        a1 = rectangular_identity_csr(3, 3, scale=2.0)
        a2 = rectangular_identity_csr(2, 3, 0.0)
        prob = IlsProblem(a1, a2, np.ones(3), np.ones(2), 1.0)
        report = check_convergence_conditions(prob)
        assert report.spd_normal and report.spd_shifted_minus_a2gram
        assert report.spd_two_shifted_minus and report.spd_two_shifted_plus

    def test_indefinite_construction_detected(self):
        # A2 ten times larger than A1 drives the reduced normal matrix
        # indefinite; confirmed against the LAPACK eigensolver.
        a1 = rectangular_identity_csr(2, 2)
        a2 = rectangular_identity_csr(2, 2, scale=10.0)
        prob = IlsProblem(a1, a2, np.ones(2), np.ones(2), 1.0)
        report = check_convergence_conditions(prob)
        assert not report.spd_normal
        assert np.linalg.eigvalsh(np.eye(2) - 100.0 * np.eye(2)).min() < 0

    def test_indefinite_normal_matrix_certifies_no_convergence(self):
        # An augmented tridiag(-1, 2, -1) core: the shifted combination of
        # ibs2/ibs4 is SPD, but A1'A1 - A2'A2 is not, and the stationary
        # iterations diverge.
        n = 20
        i = np.arange(n)
        rows, cols = np.r_[i, i[:-1], i[1:]], np.r_[i, i[1:], i[:-1]]
        vals = np.r_[np.full(n, 2.0), np.full(2 * (n - 1), -1.0)]
        core = il.normalize_to_unit_one_norm(il.SparseMatrixCsr.from_triplets(n, n, rows, cols, vals))
        prob = il.generate_augmented_problem(core, 30, 6.0)
        report = check_convergence_conditions(prob)
        assert not report.spd_normal and report.spd_two_shifted_plus
        assert not report.spd_shifted_minus_a2gram and not report.spd_two_shifted_minus
        for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
            assert spectral_radius_estimate(kind, prob) > 1.0

    def test_kappa_ordering(self):
        for i in range(5):
            prob = random_desk_problem(i)
            report = check_convergence_conditions(prob)
            assert report.kappa_shifted_gram < report.kappa_gram

    def test_corollary_conditions_on_certified_instances(self):
        for i in range(10):
            report = check_convergence_conditions(random_desk_problem(i))
            assert report.spd_normal
            assert report.spd_shifted_minus_a2gram and report.spd_two_shifted_minus
            assert report.spd_two_shifted_plus

    def test_size_cap(self, monkeypatch):
        prob = random_desk_problem(0)
        monkeypatch.setattr(il.analysis, "CONDITIONS_MAX_N", prob.n - 1)
        with pytest.raises(il.ConfigurationError, match="condition checks capped"):
            check_convergence_conditions(prob)


class TestStationary:
    def test_zero_rhs_converges_immediately(self):
        a1 = rectangular_identity_csr(2, 2, scale=2.0)
        a2 = rectangular_identity_csr(2, 2, scale=0.5)
        prob = IlsProblem(a1, a2, np.zeros(2), np.zeros(2), 1.0)
        _, report = stationary_solve("ibs2", prob, tol=1e-10)
        assert report.converged and report.iterations == 0

    def test_scalar_contraction_factor(self):
        # Error contracts by (alpha + A2^2) / (alpha + A1^2) = 5/8 per step.
        prob = scalar_problem(alpha=4.0)
        _, report = stationary_solve("ibs2", prob, tol=1e-12, maxit=200)
        assert report.converged
        ratios = report.res_history[4:10] / report.res_history[3:9]
        np.testing.assert_allclose(ratios, 0.625, rtol=0, atol=1e-6)

    def test_converges_within_rho_bound(self):
        for i in range(5):
            prob = random_desk_problem(i)
            for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
                rho = spectral_radius_estimate(kind, prob)
                assert rho < 1.0
                cap = 20 * math.ceil(1.0 / (1.0 - rho))
                _, report = stationary_solve(kind, prob, tol=1e-8, maxit=cap)
                assert report.converged

    def test_divergence_signal(self):
        # Large A2 violates the convergence conditions for ibs1.
        a1 = rectangular_identity_csr(2, 2)
        a2 = rectangular_identity_csr(2, 2, scale=10.0)
        prob = IlsProblem(a1, a2, np.ones(2), np.ones(2), 1.0)
        with pytest.raises(StationaryDivergenceError) as exc:
            stationary_solve("ibs1", prob, tol=1e-10, maxit=500)
        assert exc.value.report is not None

    def test_both_reports_have_a_read_only_history(self):
        _, converged = stationary_solve("ibs2", random_desk_problem(0))
        a2 = rectangular_identity_csr(2, 2, scale=10.0)
        prob = IlsProblem(rectangular_identity_csr(2, 2), a2, np.ones(2), np.ones(2), 1.0)
        with pytest.raises(StationaryDivergenceError) as exc:
            stationary_solve("ibs1", prob, tol=1e-10, maxit=500)
        for report in (converged, exc.value.report):
            with pytest.raises(ValueError, match="read-only"):
                report.res_history[-1] = 5.0
            assert report.res_history[-1] == report.final_res

    def test_convergence_matches_spectral_radius_both_ways(self):
        # Outside a small borderline band, the stationary iteration
        # converges exactly when the estimated radius is below one.
        cases = []
        for i in range(5):
            cases.append(("ibs2", random_desk_problem(20 + i)))  # rho < 1
        for scale in (5.0, 20.0):
            a1 = rectangular_identity_csr(3, 3)
            a2 = rectangular_identity_csr(3, 3, scale=scale)
            cases.append(
                ("ibs1", IlsProblem(a1, a2, np.ones(3), np.ones(3), 1.0))
            )
        for kind, prob in cases:
            rho = spectral_radius_estimate(kind, prob)
            if abs(rho - 1.0) <= 1e-3:
                continue
            if rho < 1.0:
                _, report = stationary_solve(kind, prob, tol=1e-8, maxit=5000)
                assert report.converged
            else:
                with pytest.raises(StationaryDivergenceError):
                    stationary_solve(kind, prob, tol=1e-8, maxit=5000)

    def test_rejects_baseline_kinds(self):
        with pytest.raises(ValueError):
            stationary_solve("bs2", scalar_problem())

    @pytest.mark.parametrize(
        "name, value",
        [("tol", 2.0), ("tol", 1.0), ("tol", 0.0), ("tol", -1e-8), ("tol", math.nan),
         ("maxit", 2.5), ("maxit", True), ("maxit", 0), ("maxit", -3)],
    )
    def test_bad_tol_or_maxit_is_named(self, name, value):
        # A tolerance of 1 or more reported convergence at the starting
        # residual; a fractional cap ran one step more, True one step.
        with pytest.raises(ValueError, match=name):
            stationary_solve("ibs2", scalar_problem(alpha=4.0), **{name: value})

    def test_integer_cap_of_any_integer_type_is_taken(self):
        _, report = stationary_solve("ibs2", scalar_problem(alpha=4.0), tol=1e-12, maxit=np.int64(3))
        assert report.iterations == 3 and not report.converged


class TestSpectralRadius:
    def test_exact_splitting_of_decoupled_problem_gives_zero(self):
        # With a vanishing off-diagonal block and no shift, the ibs4-style
        # splitting matrix equals the system matrix, so the iteration
        # operator is exactly zero.
        a1 = rectangular_identity_csr(2, 2, scale=2.0)
        a2 = rectangular_identity_csr(2, 2, 0.0)
        prob = IlsProblem(a1, a2, np.ones(2), np.ones(2), 0.0)
        rho = spectral_radius_estimate("ibs4", prob)
        assert rho <= 1e-8

    def test_scalar_value(self):
        rho = spectral_radius_estimate("ibs2", scalar_problem(alpha=4.0))
        assert abs(rho - 0.625) <= 1e-4

    def test_matches_scipy_eigvals(self):
        prob = random_desk_problem(3)
        for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
            g = np.eye(prob.size) - assemble_dense_preconditioned(kind, prob)
            want = np.abs(scipy.linalg.eigvals(g)).max()
            assert abs(spectral_radius_estimate(kind, prob) - want) <= 1e-12


class TestEigenstructure:
    def test_first_block_unit_vectors_are_exact(self):
        prob = random_desk_problem(1)
        for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
            report = verify_eigenstructure(kind, prob)
            first = report.unit_eigenvalue_checks[0]
            assert first.count == prob.p
            assert first.max_residual <= 1e-14

    def test_ibs1_with_zero_a2_has_full_third_block_family(self):
        a1 = rectangular_identity_csr(3, 3, scale=2.0)
        a2 = rectangular_identity_csr(4, 3, 0.0)
        prob = IlsProblem(a1, a2, np.ones(3), np.ones(4), 1.0)
        report = verify_eigenstructure("ibs1", prob)
        null_family = report.unit_eigenvalue_checks[1]
        assert null_family.count == 4  # null(A2') is all of R^q
        assert null_family.max_residual <= 1e-12

    def test_scalar_nonunit_candidate(self):
        prob = scalar_problem(alpha=4.0)
        report = verify_eigenstructure("ibs2", prob)
        family = report.nonunit_checks[0]
        assert family.count == 1
        np.testing.assert_allclose(family.eigenvalues, [0.375], rtol=0, atol=1e-14)
        assert family.max_residual <= 1e-12

    def test_vacuous_families_pass(self):
        prob = random_desk_problem(2)  # alpha > 0 by construction
        for kind in ("ibs3", "ibs4"):
            report = verify_eigenstructure(kind, prob)
            vacuous = [f for f in report.families() if f.vacuous]
            assert vacuous, "expected an empty middle-block family"
            assert all(f.passed() for f in vacuous)

    def test_interval_and_disk_containment(self):
        for i in range(5):
            prob = random_desk_problem(i)
            for kind in ("ibs2", "ibs4"):
                report = verify_eigenstructure(kind, prob)
                assert report.interval_contained
                assert report.disk_contained
                w = report.interval_eigs
                assert np.all(w > 1e-10) and np.all(w < 2.0 - 1e-10)

    @pytest.mark.parametrize(
        "scale, rhos",
        [(3.0, {"ibs1": 1.425, "ibs2": 1.951, "ibs3": 1.425, "ibs4": 1.951}),
         (1.0, {"ibs1": 0.552, "ibs2": 0.404, "ibs3": 0.552, "ibs4": 0.404})],
        ids=["scaled", "unscaled"],
    )
    def test_disk_flag_is_the_radius_for_every_variant(self, scale, rhos):
        # ibs1 and ibs3 construct unit eigenvalues only, so a flag read off
        # the constructed families held at rho = 1.425 too.
        base = il.generate_random_problem(20, 10, 15, seed=3)
        prob = IlsProblem(base.a1, scale * base.a2, base.b1, base.b2, base.alpha)
        for kind, rho in rhos.items():
            report = verify_eigenstructure(kind, prob)
            assert report.rho_estimate == pytest.approx(rho, abs=1e-3)
            assert report.disk_contained is (rho < 1.0)

    def test_one_assembly_gives_rho_and_every_residual(self, monkeypatch):
        prob = random_desk_problem(4)
        calls = []
        assemble = il.analysis.assemble_dense_preconditioned
        monkeypatch.setattr(
            il.analysis, "assemble_dense_preconditioned",
            lambda *args: calls.append(args) or assemble(*args),
        )
        applies = []
        apply = il.Preconditioner.apply
        monkeypatch.setattr(il.Preconditioner, "apply", lambda self, r: applies.append(r.shape) or apply(self, r))
        for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
            calls.clear()
            applies.clear()
            report = verify_eigenstructure(kind, prob)
            assert len(calls) == 1
            # That assembly is one batched apply to the whole block matrix.
            assert applies == [(prob.size, prob.size)]
            assert report.rho_estimate == spectral_radius_estimate(kind, prob)

    def test_ambiguous_null_a2t_family_is_skipped(self):
        # Both variants that build null(A2') warn, on one problem.
        prob = rank_edge_problem()
        for kind in ("ibs1", "ibs3"):
            with pytest.warns(RankAmbiguityWarning, match="null"):
                report = verify_eigenstructure(kind, prob)
            family = report.unit_eigenvalue_checks[1]
            assert family.label == "unit: null(A2') basis (skipped, rank ambiguous)"
            assert family.vacuous and family.count == 0 and family.passed()

    def test_sweep_cap_warns_on_every_call(self, monkeypatch):
        jacobi = il.analysis.jacobi_eigh
        monkeypatch.setattr(il.analysis, "jacobi_eigh", lambda s: jacobi(s, max_sweeps=1))
        prob = random_desk_problem(4)
        for kind in ("ibs2", "ibs4", "ibs2"):
            with pytest.warns(AccuracyWarning, match="sweep cap"):
                verify_eigenstructure(kind, prob)

    @pytest.mark.parametrize("kind", ["ibs1", "ibs2", "ibs3", "ibs4"])
    def test_shared_decompositions_change_no_report(self, kind):
        # q > n, so the null(A2') family is not empty.
        fresh = verify_eigenstructure(kind, il.generate_random_problem(12, 9, 5, seed=3))
        prob = il.generate_random_problem(12, 9, 5, seed=3)
        for other in ("ibs1", "ibs2", "ibs3", "ibs4"):
            if other != kind:
                verify_eigenstructure(other, prob)
        report = verify_eigenstructure(kind, prob)
        assert report.unit_eigenvalue_checks[1].count > 0
        assert_same_fields(report, fresh)

    def test_pencil_and_null_basis_are_decomposed_once_per_problem(self, monkeypatch):
        calls = []
        for name in ("generalized_sym_eigpairs", "null_space_basis"):
            original = getattr(il.analysis, name)
            monkeypatch.setattr(
                il.analysis, name, lambda *args, f=original, name=name: calls.append(name) or f(*args)
            )
        prob = il.generate_random_problem(12, 9, 5, seed=3)
        for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
            verify_eigenstructure(kind, prob)
        assert sorted(calls) == ["generalized_sym_eigpairs", "null_space_basis"]

    def test_writing_into_a_report_cannot_reach_the_next(self):
        prob = random_desk_problem(5)
        report = verify_eigenstructure("ibs2", prob)
        before = report.interval_eigs.copy()
        with pytest.raises(ValueError, match="read-only"):
            report.interval_eigs[0] = 0.5
        assert np.array_equal(verify_eigenstructure("ibs4", prob).interval_eigs, before)

    @pytest.mark.parametrize("kind", ["ibs3", "ibs4"])
    def test_ambiguous_middle_block_family_is_skipped(self, kind):
        prob = rank_edge_problem(alpha=0.0)
        with pytest.warns(RankAmbiguityWarning):
            report = verify_eigenstructure(kind, prob)
        middle = report.unit_eigenvalue_checks[2]
        assert middle.label == "unit: null(A2) middle-block basis (skipped, rank ambiguous)"
        assert middle.vacuous and middle.count == 0 and middle.passed()

    def test_zero_shift_middle_block_family(self):
        prob = rank_edge_problem(a2_small=1.0, alpha=0.0)
        for kind in ("ibs3", "ibs4"):
            middle = verify_eigenstructure(kind, prob).unit_eigenvalue_checks[2]
            assert middle.label == "unit: null(A2) middle-block basis"
            assert middle.count == 1 and middle.max_residual <= 1e-14

    def test_all_families_within_tolerance(self):
        for i in range(5):
            prob = random_desk_problem(10 + i)
            for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
                report = verify_eigenstructure(kind, prob)
                assert all(f.passed(1e-10) for f in report.families())


# How far the pencil's extreme eigenvalues must lie from 0 and 2 for a case
# to be decided.  The computed mu carry an absolute error of order
# n eps (|A1'A1| + |A2'A2|) / lambda_min(alpha I + A1'A1): below 1e-13 here,
# with n = 10, |A1'A1| <= 4, |A2'A2| <= 12.5 and lambda_min >= 1.  The
# certificates are Cholesky attempts with a backward error of the same
# order.  At 1e-8, five orders above both, rounding cannot decide a case.
PENCIL_MARGIN = 1e-8


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(0.5, 5.0))
@example(seed=3, scale=0.5)  # inside the hypothesis: every certificate holds
@example(seed=3, scale=5.0)  # outside: A1'A1 - A2'A2 is indefinite
def test_certificates_imply_the_disk_on_both_sides_of_the_hypothesis(seed, scale):
    # The abstract's implications on random 12 x 8 x 10 instances with A2
    # scaled across the hypothesis H = A1'A1 - A2'A2 > 0: each variant's
    # certificate gives rho < 1, and for ibs2/ibs4 the certificate is the
    # pencil's eigenvalues lying in (0, 2).  The shifted certificates test
    # H + alpha I, H + 2 alpha I and H + 2 A2'A2 + 2 alpha I, so with
    # alpha >= 0 spd_normal implies all three.  Conversely, without
    # it every variant has rho >= 1: for ibs2/ibs4 because S - H =
    # alpha I + A2'A2 > 0 (S = alpha I + A1'A1) puts mu below 1, so rho < 1
    # exactly when mu > 0, that is when H > 0; for ibs1/ibs3 as observed.
    base = il.generate_random_problem(12, 8, 10, seed=seed)
    prob = IlsProblem(base.a1, scale * base.a2, base.b1, base.b2, base.alpha)
    reports = {kind: verify_eigenstructure(kind, prob) for kind in ("ibs1", "ibs2", "ibs3", "ibs4")}
    mu = reports["ibs2"].interval_eigs
    assume(abs(mu.min()) > PENCIL_MARGIN and abs(mu.max() - 2.0) > PENCIL_MARGIN)
    conditions = check_convergence_conditions(prob)
    shifted = (conditions.spd_shifted_minus_a2gram, conditions.spd_two_shifted_minus, conditions.spd_two_shifted_plus)
    assert not conditions.spd_normal or all(shifted)
    for kind, report in reports.items():
        assert conditions.spd_normal == (report.rho_estimate < 1.0), kind
        if kind in ("ibs2", "ibs4"):
            assert conditions.spd_normal == report.interval_contained, kind


class TestGmresBound:
    def test_scalar_instance(self):
        result = gmres_bound_check("ibs2", scalar_problem())
        assert result.bound == 3
        assert result.iterations <= 3
        assert result.passed

    def test_small_fixed_shape(self):
        prob = il.generate_random_problem(p=8, q=4, n=5, seed=21)
        for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
            result = gmres_bound_check(kind, prob)
            assert result.bound == 10
            assert result.passed

    def test_zero_shift_still_bounded(self):
        prob = dataclasses.replace(il.generate_random_problem(8, 4, 5, seed=22), alpha=0.0)
        result = gmres_bound_check("ibs2", prob)
        assert result.passed
        assert result.iterations <= result.bound
