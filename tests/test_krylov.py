import numpy as np
import pytest

from ilsolve import (
    CgConfig,
    FgmresConfig,
    IndefiniteOperatorError,
    NumericalFailureError,
    cg_solve,
    cholesky_solve,
    dense_cholesky,
    fgmres_solve,
)
from ilsolve.operators import LinearOperator, aslinearoperator, identity_operator

from conftest import random_spd


class TestCgConfig:
    def test_defaults(self):
        cfg = CgConfig()
        assert cfg.rel_tolerance == 1e-3 and cfg.max_iterations == 1000

    @pytest.mark.parametrize("tol", [0.0, 1.0, -0.5])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            CgConfig(rel_tolerance=tol)

    def test_bad_maxit(self):
        with pytest.raises(ValueError):
            CgConfig(max_iterations=0)


class TestCg:
    def test_identity_converges_in_one_iteration(self):
        rhs = np.array([1.0, 2.0, 3.0])
        x, report = cg_solve(identity_operator(3), rhs, config=CgConfig(1e-10, 10))
        assert report.iterations == 1 and report.converged
        assert np.allclose(x, rhs, rtol=0, atol=1e-14)

    def test_three_distinct_eigenvalues_three_iterations(self):
        op = aslinearoperator(np.diag([1.0, 2.0, 4.0]))
        rhs = np.array([1.0, 2.0, 4.0])
        x, report = cg_solve(op, rhs, config=CgConfig(1e-12, 50))
        assert report.converged and report.iterations <= 3
        assert np.allclose(x, np.ones(3), rtol=0, atol=1e-12)

    def test_zero_rhs_returns_zero_immediately(self):
        x, report = cg_solve(identity_operator(4), np.zeros(4))
        assert report.iterations == 0 and report.converged
        assert np.array_equal(x, np.zeros(4))
        assert report.res_history.tolist() == [0.0]

    def test_agrees_with_dense_factorization(self, rng):
        for _ in range(5):
            m = random_spd(rng, 20, cond=1e3)
            rhs = rng.standard_normal(20)
            want = cholesky_solve(dense_cholesky(m), rhs)
            got, report = cg_solve(aslinearoperator(m), rhs, config=CgConfig(1e-12, 400))
            assert report.converged
            assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-8

    def test_energy_norm_error_strictly_decreases(self, rng):
        # Mild conditioning keeps the residual 2-norm monotone, so capping
        # max_iterations at k recovers the k-th iterate of the continuous
        # run (no best-iterate substitution).
        m = random_spd(rng, 15, cond=10.0)
        rhs = rng.standard_normal(15)
        x_star = cholesky_solve(dense_cholesky(m), rhs)
        op = aslinearoperator(m)

        errors = []
        for k in range(1, 11):
            x, report = cg_solve(op, rhs, config=CgConfig(1e-15, k))
            assert report.notes == ()
            e = x - x_star
            errors.append(float(e @ (m @ e)))
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_best_iterate_substitution_when_residual_oscillates(self, rng):
        # Harder spectrum: the 2-norm residual can rise before it falls,
        # and a capped run must hand back the lowest-residual iterate.
        m = random_spd(rng, 15, cond=200.0)
        rhs = rng.standard_normal(15)
        op = aslinearoperator(m)
        x, report = cg_solve(op, rhs, config=CgConfig(1e-15, 2))
        assert not report.converged
        assert report.final_res == report.res_history.min()
        true_res = np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs)
        assert abs(true_res - report.final_res) <= 1e-10

    def test_history_contract(self, rng):
        m = random_spd(rng, 10)
        rhs = rng.standard_normal(10)
        _, report = cg_solve(aslinearoperator(m), rhs, config=CgConfig(1e-10, 100))
        assert len(report.res_history) == report.iterations + 1
        assert report.res_history[-1] == report.final_res
        assert report.converged and report.final_res < 1e-10

    def test_breakdown_on_indefinite_operator(self):
        op = aslinearoperator(np.diag([1.0, -1.0]))
        with pytest.raises(IndefiniteOperatorError):
            cg_solve(op, np.array([1.0, 1.0]), config=CgConfig(1e-14, 10))

    def test_nonconvergence_returns_best_iterate(self, rng):
        m = random_spd(rng, 30, cond=1e6)
        rhs = rng.standard_normal(30)
        x, report = cg_solve(aslinearoperator(m), rhs, config=CgConfig(1e-12, 3))
        assert not report.converged
        assert report.iterations == 3
        assert report.final_res == min(report.res_history.min(), report.final_res)


class TestFgmres:
    def test_identity_one_iteration(self):
        rhs = np.array([2.0, -1.0, 0.5])
        x, report = fgmres_solve(identity_operator(3), None, rhs)
        assert report.converged and report.iterations == 1
        assert np.allclose(x, rhs, rtol=0, atol=1e-12)

    def test_exact_inverse_preconditioner_one_iteration(self, rng):
        m = random_spd(rng, 12, cond=1e4)
        factor = dense_cholesky(m)
        x, report = fgmres_solve(
            aslinearoperator(m),
            lambda r: cholesky_solve(factor, r),
            rng.standard_normal(12),
            config=FgmresConfig(1e-10, 50),
        )
        assert report.converged and report.iterations == 1

    def test_unpreconditioned_general_system(self, rng):
        m = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        rhs = rng.standard_normal(20)
        x, report = fgmres_solve(aslinearoperator(m), None, rhs, config=FgmresConfig(1e-10, 100))
        assert report.converged
        assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-10

    def test_zero_rhs(self):
        x, report = fgmres_solve(identity_operator(3), None, np.zeros(3))
        assert report.iterations == 0 and report.converged
        assert np.array_equal(x, np.zeros(3))

    def test_flexible_with_alternating_preconditioner(self, rng):
        # A preconditioner that alternates between two SPD approximations
        # breaks the fixed-preconditioner assumption of plain GMRES; the
        # flexible variant must still converge.
        m = random_spd(rng, 25, cond=1e5)
        f1 = dense_cholesky(m + 0.5 * np.eye(25))
        f2 = dense_cholesky(m + 2.0 * np.eye(25))
        state = {"k": 0}

        def alternating(r):
            state["k"] += 1
            return cholesky_solve(f1 if state["k"] % 2 else f2, r)

        rhs = rng.standard_normal(25)
        x, report = fgmres_solve(
            aslinearoperator(m), alternating, rhs, config=FgmresConfig(1e-10, 200)
        )
        assert report.converged
        assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) <= 1e-10

    def test_history_monotone_within_cycle(self, rng):
        m = random_spd(rng, 30, cond=1e3)
        rhs = rng.standard_normal(30)
        _, report = fgmres_solve(aslinearoperator(m), None, rhs, config=FgmresConfig(1e-10, 100))
        assert report.converged
        hist = report.res_history
        assert len(hist) == report.iterations + 1
        # Estimates are non-increasing; the last entry is the confirmed
        # true residual and gets a hair of slack.
        assert np.all(np.diff(hist[:-1]) <= 1e-12)
        assert hist[-1] <= hist[-2] * (1.0 + 1e-8) + 1e-15

    def test_restarted_run_converges(self, rng):
        # Mild conditioning: short restart cycles stall on hard problems.
        m = random_spd(rng, 30, cond=20.0)
        rhs = rng.standard_normal(30)
        x, report = fgmres_solve(
            aslinearoperator(m), None, rhs, config=FgmresConfig(1e-8, 500, restart=5)
        )
        assert report.converged
        assert report.iterations > 5  # actually crossed a restart boundary
        assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-8

    def test_history_records_true_residual_at_restart(self, rng):
        # At a restart boundary the true residual is computed; the history
        # holds it, so it matches the same solve stopped there.
        m = rng.standard_normal((30, 30)) + 5.0 * np.eye(30)
        rhs = rng.standard_normal(30)
        op = aslinearoperator(m)
        _, restarted = fgmres_solve(op, None, rhs, config=FgmresConfig(1e-12, 5, restart=2))
        _, stopped = fgmres_solve(op, None, rhs, config=FgmresConfig(1e-12, 2))
        assert restarted.iterations == 5 and not stopped.converged
        assert restarted.res_history[2] == stopped.final_res

    def test_nan_in_basis_raises(self):
        def bad_apply(v):
            out = v.copy()
            out[0] = np.nan
            return out

        op = LinearOperator(3, 3, bad_apply)
        with pytest.raises(NumericalFailureError, match="iteration 1"):
            fgmres_solve(op, None, np.ones(3))

    def test_happy_breakdown_note(self):
        # With the identity operator the first Arnoldi vector is exact.
        _, report = fgmres_solve(identity_operator(4), None, np.array([1.0, 2.0, 3.0, 4.0]))
        assert report.converged
        assert any("happy breakdown" in note for note in report.notes)

    def test_nonconvergence_reports_true_residual(self, rng):
        m = random_spd(rng, 40, cond=1e8)
        rhs = rng.standard_normal(40)
        x, report = fgmres_solve(aslinearoperator(m), None, rhs, config=FgmresConfig(1e-13, 5))
        assert not report.converged
        assert report.iterations == 5
        true_res = np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs)
        assert abs(report.final_res - true_res) <= 1e-12 * max(1.0, true_res)

    def test_degenerate_preconditioner_fails_honestly(self):
        x, report = fgmres_solve(
            identity_operator(3), lambda r: np.zeros(3), np.ones(3),
            config=FgmresConfig(1e-8, 10),
        )
        assert not report.converged
        assert np.all(np.isfinite(x))
        assert any("did not meet" in note for note in report.notes)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            FgmresConfig(restart=0)
