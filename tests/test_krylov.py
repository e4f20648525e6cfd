import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ilsolve import (
    CgConfig,
    FgmresConfig,
    IlsProblem,
    IndefiniteOperatorError,
    NumericalFailureError,
    SolveReport,
    SparseMatrixCsr,
    block_system_operator,
    build_rhs,
    cg_solve,
    cholesky_solve,
    compute_alpha,
    dense_cholesky,
    fgmres_solve,
    make_preconditioner,
)
from ilsolve import problem as problem_module
from ilsolve.analysis import stationary_solve
from ilsolve.bench import generate_augmented_problem
from ilsolve.exceptions import StationaryDivergenceError
from ilsolve.krylov import _assemble, _cg
from ilsolve.operators import LinearOperator, aslinearoperator
from ilsolve.preconditioners import _INNER_SOLVES, _fold
from ilsolve.sparse import normalize_to_unit_one_norm, rectangular_identity_csr
from ilsolve.problem import _gram_pair, densify

from conftest import random_csr, random_desk_problem, random_spd


def shifted_gram(prob, shift):
    """v -> shift*v + A1'(A1 v) as a LinearOperator, from _gram_pair."""
    pair = _gram_pair(prob, shift)
    return LinearOperator(prob.n, prob.n, lambda v: pair(v)[0])


def identity(n):
    """The unpreconditioned case: z = r."""
    return LinearOperator(n, n, np.copy)


def textbook_cg(op, rhs, tol, maxit):
    """CG as textbooks write it, with in-place updates and copies of the
    best iterate: (x, history), where x is the best iterate when the cap
    is hit, or (x_best, None) on a breakdown p'Ap <= 0."""
    bnorm = np.linalg.norm(rhs)
    x, r, p = np.zeros(len(rhs)), rhs.copy(), rhs.copy()
    rs = r @ r
    history = [1.0]
    best_x, best_res = x.copy(), 1.0
    for _ in range(maxit):
        ap = op.apply(p)
        pap = p @ ap
        if pap <= 0.0:
            return best_x, None
        gamma = rs / pap
        x += gamma * p
        r -= gamma * ap
        rs_new = r @ r
        history.append(np.sqrt(rs_new) / bnorm)
        if history[-1] < best_res:
            best_x, best_res = x.copy(), history[-1]
        if history[-1] < tol:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    else:
        x = best_x
    return x, np.array(history)


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
        x, report = cg_solve(aslinearoperator(np.eye(3)), rhs, config=CgConfig(1e-10, 10))
        assert report.iterations == 1 and report.converged
        assert np.allclose(x, rhs, rtol=0, atol=1e-14)

    def test_three_distinct_eigenvalues_three_iterations(self):
        op = aslinearoperator(np.diag([1.0, 2.0, 4.0]))
        rhs = np.array([1.0, 2.0, 4.0])
        x, report = cg_solve(op, rhs, config=CgConfig(1e-12, 50))
        assert report.converged and report.iterations <= 3
        assert np.allclose(x, np.ones(3), rtol=0, atol=1e-12)

    def test_zero_rhs_returns_zero_immediately(self):
        x, report = cg_solve(aslinearoperator(np.eye(4)), np.zeros(4))
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

    def test_residual_of_the_returned_iterate(self, rng):
        # The CG loop returns its recurrence residual when the returned
        # iterate is the last one (the preconditioners' paired step reads
        # it), and None when an earlier best iterate is returned; its x,
        # history and convergence are cg_solve's.  Its history is the
        # textbook loop's but for the last entry, the returned iterate's
        # residual: the lowest, below the loop's last for an earlier iterate.
        m = random_spd(rng, 15, cond=200.0)
        rhs = rng.standard_normal(15)
        op = aslinearoperator(m)
        product = lambda p: (op.apply(p), None)
        substituted = 0
        for cap in range(1, 16):
            cfg = CgConfig(1e-15, cap)
            x, history, converged, residual, image = _cg(product, rhs, cfg)
            want_x, want = cg_solve(op, rhs, config=cfg)
            assert np.array_equal(x, want_x) and np.array_equal(history, want.res_history)
            assert converged == want.converged and image is None
            loop = textbook_cg(op, rhs, 1e-15, cap)[1]
            assert history[:-1] == loop[:-1].tolist() and history[-1] == loop.min()
            if loop.min() < loop[-1]:
                substituted += 1
                assert residual is None
            else:
                np.testing.assert_allclose(residual, rhs - m @ x, rtol=0, atol=1e-12 * np.linalg.norm(rhs))
        assert substituted
        _, _, _, residual, _ = _cg(product, np.zeros(15), CgConfig())
        assert np.array_equal(residual, np.zeros(15))

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_operator_raises(self, value):
        op = LinearOperator(5, 5, lambda v: np.full(5, value))
        with pytest.raises(NumericalFailureError, match="at iteration 1"):
            cg_solve(op, np.ones(5))

    def test_nonconvergence_returns_best_iterate(self, rng):
        m = random_spd(rng, 30, cond=1e6)
        rhs = rng.standard_normal(30)
        x, report = cg_solve(aslinearoperator(m), rhs, config=CgConfig(1e-12, 3))
        assert not report.converged
        assert report.iterations == 3
        assert report.final_res == min(report.res_history.min(), report.final_res)

    @pytest.mark.parametrize("case", ["converges", "capped", "strided-rhs"])
    def test_bit_identical_to_textbook_loop(self, rng, case):
        # cg_solve rebinds x and keeps references where the textbook loop
        # updates in place and copies; both must round alike.  The strided
        # rhs is long enough that a BLAS dot over it rounds differently
        # from one over a contiguous copy.
        n = 300 if case == "strided-rhs" else 40
        m = random_spd(rng, n, cond={"capped": 200.0}.get(case, 1e3))
        rhs = rng.standard_normal(2 * n)[::2] if case == "strided-rhs" else rng.standard_normal(n)
        tol, maxit = (1e-15, 2) if case == "capped" else (1e-10, 1000)
        op = aslinearoperator(m)
        x, report = cg_solve(op, rhs, config=CgConfig(tol, maxit))
        want_x, want_history = textbook_cg(op, rhs, tol, maxit)
        assert report.converged == (case != "capped")
        assert np.array_equal(x, want_x)
        # The returned iterate's residual closes the history: the loop's
        # lowest, and for the capped run's earlier iterate below its last.
        assert np.array_equal(report.res_history[:-1], want_history[:-1])
        assert report.final_res == want_history.min()
        if case == "capped":
            assert report.notes and report.final_res < want_history[-1]
        else:
            assert np.array_equal(report.res_history, want_history)

    def test_breakdown_best_iterate_is_bit_identical(self):
        # Positive curvature for four iterations, then p'Ap < 0.
        op = aslinearoperator(np.diag([1.0, 3.0, 10.0, 30.0, -0.02]))
        rhs = np.ones(5)
        with pytest.raises(IndefiniteOperatorError) as info:
            cg_solve(op, rhs, config=CgConfig(1e-12, 50))
        want_x, history = textbook_cg(op, rhs, 1e-12, 50)
        assert history is None and info.value.iterations == 4
        assert np.any(want_x != want_x[0])  # not the first step's multiple of rhs
        assert np.array_equal(info.value.x_best, want_x)


EPS = np.finfo(np.float64).eps
IMAGE_LAYOUTS = ("dense-one-panel", "dense-panels", "dense-fortran", "csr")
# Rows of one Gram-sweep panel of A1 at n = 100.
PANEL_100 = problem_module._PANEL_BYTES // (8 * 100)


def image_problem(layout, seed, spread=10.0):
    """A problem whose A1 takes the Gram product of ``layout``: dense and
    row-major within one panel or over several, dense and Fortran-ordered
    within one panel, or CSR.  Its columns are scaled from 1 to ``spread``."""
    rng = np.random.default_rng(seed)
    if layout == "dense-panels":
        n, p = 100, 2 * PANEL_100 + 3
    else:
        n = int(rng.integers(2, 13))
        p = int(rng.integers(n, 3 * n + 2))
    a1 = rng.standard_normal((p, n))
    if layout == "csr":
        a1[rng.random(a1.shape) < 0.5] = 0.0
        a1[:n] += 4.0 * np.eye(n)  # full column rank
    a1 *= np.geomspace(1.0, spread, n)
    if layout == "csr":
        rows, cols = np.nonzero(a1)
        a1 = SparseMatrixCsr.from_triplets(p, n, rows, cols, a1[rows, cols])
    elif layout == "dense-fortran":
        a1 = np.asfortranarray(a1)
    a2 = rng.standard_normal((2, n))
    return IlsProblem(a1, a2, rng.standard_normal(p), rng.standard_normal(2), compute_alpha(a1))


class TestCarriedImage:
    """The CG loop that the preconditioners run carries u = A1 x beside x,
    from the A1 p of its Gram products, and returns it under the rule of
    its recurrence residual."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**16),
        layout=st.sampled_from(IMAGE_LAYOUTS),
        shifted=st.booleans(),
        tol=st.sampled_from([1e-3, 1e-8, 1e-14]),
        cap=st.integers(1, 40),
    )
    def test_image_is_a1_times_the_returned_iterate(self, seed, layout, shifted, tol, cap):
        prob = image_problem(layout, seed)
        # Every dense A1 is swept by panels; a CSR A1 has none.
        assert (prob._panel == 0) == (layout == "csr")
        assert (0 < prob._panel < prob.p) == (layout == "dense-panels")
        if layout == "dense-fortran":
            assert not prob.a1.flags.c_contiguous
        shift = prob.alpha if shifted else 0.0
        rhs = np.random.default_rng(seed).standard_normal(prob.n)
        cfg = CgConfig(tol, cap)
        x, history, _, residual, image = _cg(_gram_pair(prob, shift), rhs, cfg, np.zeros(prob.p))
        # Carrying the image changes no iterate, and the loop without an
        # image to carry returns none.
        want_x, want = cg_solve(shifted_gram(prob, shift), rhs, cfg)
        assert np.array_equal(x, want_x) and np.array_equal(history, want.res_history)
        assert _cg(_gram_pair(prob, shift), rhs, cfg)[4] is None
        if residual is None:  # an earlier iterate was returned
            assert image is None
            return
        # u and x sum the k terms gamma_i A1 p_i and gamma_i p_i; products
        # and sums round at (n + k) eps of the terms' magnitudes.  CG's
        # iterates grow in norm from zero (Hestenes and Stiefel, J. Res. NBS
        # 49, 1952, Theorem 6:3), so each term gamma_i p_i = x_i - x_(i-1)
        # is at most 2 |x| long.  Measured here: at most 0.03 of the bound.
        k = len(history) - 1
        a1d = densify(prob.a1)
        bound = 2 * (prob.n + k) * EPS * np.linalg.norm(a1d) * 2 * k * np.linalg.norm(x)
        assert image.shape == (prob.p,)
        assert np.linalg.norm(image - a1d @ x) <= bound

    def test_no_image_for_an_earlier_iterate(self):
        # With the Gram matrix of widely scaled columns the residual rises
        # before it falls, and a capped run returns an earlier iterate.
        prob = image_problem("dense-one-panel", 3, spread=100.0)
        pair = _gram_pair(prob, 0.0)
        rhs = np.random.default_rng(3).standard_normal(prob.n)
        earlier = 0
        for cap in range(1, 3 * prob.n):
            x, history, _, residual, image = _cg(pair, rhs, CgConfig(1e-15, cap), np.zeros(prob.p))
            loop = textbook_cg(shifted_gram(prob, 0.0), rhs, 1e-15, cap)[1]
            if loop.min() < loop[-1]:
                earlier += 1
                assert residual is None and image is None and history[-1] == loop.min()
            else:
                want = prob.a1 @ x
                np.testing.assert_allclose(image, want, rtol=0, atol=1e-10 * np.linalg.norm(want))
        assert earlier

    def test_no_image_after_a_breakdown(self, rng):
        # The loop raises on a breakdown, so no image leaves it: the paired
        # inner solve gets s and A1 z2 of CG's best iterate from one product
        # of its Gram pair.
        prob = random_desk_problem(13)
        cfg = CgConfig(1e-10, 100)
        pre = make_preconditioner("ibs1", prob, inner="cg", inner_config=cfg)
        assert pre.paired
        diag = np.resize([1.0, 1.0, 1.0, 1.0, 1.0, -50.0], prob.n)
        pair = lambda v: (diag * v, prob.a1 @ v)
        solve = _INNER_SOLVES["cg"](prob, pre.shift, pair, cfg)[0]
        rhs = rng.standard_normal(prob.n)
        with pytest.raises(IndefiniteOperatorError) as info:
            _cg(pair, rhs, cfg, np.zeros(prob.p))
        z, s, u, iterations, converged = solve(rhs)
        assert np.array_equal(z, info.value.x_best)
        assert np.array_equal(s, rhs - diag * z) and np.array_equal(u, prob.a1 @ z)
        assert iterations == info.value.iterations and not converged

    @pytest.mark.parametrize("layout", IMAGE_LAYOUTS)
    def test_zero_rhs_gives_a_zero_image(self, layout):
        prob = image_problem(layout, 5)
        pair = _gram_pair(prob, prob.alpha)
        x, history, converged, _, image = _cg(pair, np.zeros(prob.n), CgConfig(), np.zeros(prob.p))
        assert history == [0.0] and converged and np.array_equal(x, np.zeros(prob.n))
        assert np.array_equal(image, np.zeros(prob.p))
        pre = make_preconditioner("ibs3", prob)
        assert pre.paired
        z2, s, u, iterations, converged = pre._solve(np.zeros(prob.n))
        assert iterations == 0 and converged
        assert np.array_equal(u, np.zeros(prob.p)) and np.array_equal(s, np.zeros(prob.n))

    def test_public_cg_carries_no_image(self, rng):
        # cg_solve runs the loop with no image to carry, gives (x, report),
        # and its report holds no private state.
        prob = image_problem("csr", 9)
        rhs = rng.standard_normal(prob.n)
        for gram in (shifted_gram(prob, prob.alpha), aslinearoperator(np.eye(prob.n))):
            for b in (rhs, np.zeros(prob.n)):
                out = cg_solve(gram, b)
                assert len(out) == 2 and not [k for k in vars(out[1]) if k.startswith("_")]
                _, _, _, residual, image = _cg(lambda p: (gram.apply(p), None), b, CgConfig())
                assert residual is not None and image is None


def assert_history_read_only(report):
    """A write into the history raises, so it cannot disagree with final_res."""
    with pytest.raises(ValueError, match="read-only"):
        report.res_history[-1] = 5.0
    assert report.res_history[-1] == report.final_res


def capped_cg_with_a_best_iterate():
    # kappa = 1e6 and two iterations: the residual rises to 2.398, so the
    # zero start, of residual 1, is returned and closes the history.
    rng = np.random.default_rng(6)
    m = random_spd(rng, 30, cond=1e6)
    report = cg_solve(aslinearoperator(m), rng.standard_normal(30), CgConfig(1e-12, 2))[1]
    assert report.notes and report.res_history[1] > 2.0 and not report.converged
    return report


def block_solve(prob, kind="ibs2"):
    return fgmres_solve(block_system_operator(prob), make_preconditioner(kind, prob), build_rhs(prob))[1]


def folded_solve():
    core = normalize_to_unit_one_norm(random_csr(np.random.default_rng(2), 10, 6, density=0.6))
    prob = generate_augmented_problem(core, 9)
    assert _fold(prob) is not None
    return block_solve(prob, "ibs1")


def restarted_solve():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
    rhs = rng.standard_normal(20)
    report = fgmres_solve(aslinearoperator(m), identity(20), rhs, FgmresConfig(1e-10, 200, restart=4))[1]
    assert report.converged and report.iterations > 8
    return report


def given_up_solve():
    # After its first call the preconditioner adds 1e16 * u (see
    # TestFgmres::test_giving_up_returns_the_best_confirmed_iterate).
    u, calls = np.random.default_rng(0).standard_normal(12), []

    def garbage_after_first(r):
        calls.append(1)
        return r.copy() if len(calls) == 1 else r + 1e16 * u

    op = aslinearoperator(np.diag(np.linspace(1.0, 10.0, 12)))
    report = fgmres_solve(op, LinearOperator(12, 12, garbage_after_first), np.ones(12), FgmresConfig(1e-10, 50))[1]
    assert report.notes[-1].startswith("returned the iterate of iteration")
    return report


def diverged_stationary_solve():
    a1, a2 = rectangular_identity_csr(2, 2), rectangular_identity_csr(2, 2, scale=10.0)
    with pytest.raises(StationaryDivergenceError) as info:
        stationary_solve("ibs1", IlsProblem(a1, a2, np.ones(2), np.ones(2), 1.0), tol=1e-10, maxit=500)
    return info.value.report


REPORTS = {
    "cg-converged": lambda: cg_solve(aslinearoperator(random_spd(np.random.default_rng(1), 10)), np.ones(10))[1],
    "cg-capped-best-iterate": capped_cg_with_a_best_iterate,
    "cg-zero-rhs": lambda: cg_solve(aslinearoperator(np.eye(4)), np.zeros(4))[1],
    "fgmres-generic": lambda: fgmres_solve(aslinearoperator(np.diag([1.0, 2.0, 5.0])), identity(3), np.ones(3))[1],
    "fgmres-block": lambda: block_solve(random_desk_problem(3)),
    "fgmres-folded": folded_solve,
    "fgmres-restarted": restarted_solve,
    "fgmres-given-up": given_up_solve,
    "stationary-converged": lambda: stationary_solve("ibs2", random_desk_problem(0))[1],
    "stationary-diverged": diverged_stationary_solve,
}


@pytest.mark.parametrize("case", REPORTS)
def test_report_contract(case):
    # Every public solve's report is its residual history: iterations is
    # its length less one, final_res its last entry, and no one can write it.
    report = REPORTS[case]()
    assert type(report.iterations) is int and type(report.final_res) is float
    assert len(report.res_history) == report.iterations + 1
    assert report.res_history[-1] == report.final_res
    with pytest.raises(ValueError, match="read-only"):
        report.res_history[-1] = 5.0
    # A history has an entry for the start, so an empty or 0-d one is refused.
    for bad in (report.res_history[:0], report.res_history[-1]):
        with pytest.raises(ValueError, match=r"^res_history must be a nonempty 1-D sequence, got shape \((0,)?\)$"):
            SolveReport(report.wall_seconds, bad, report.converged)


class TestHistoryIsReadOnly:
    @pytest.mark.parametrize("zero", [False, True])
    def test_cg(self, rng, zero):
        rhs = np.zeros(6) if zero else rng.standard_normal(6)
        assert_history_read_only(cg_solve(aslinearoperator(random_spd(rng, 6)), rhs)[1])

    @pytest.mark.parametrize("zero", [False, True])
    def test_fgmres(self, rng, zero):
        rhs = np.zeros(6) if zero else rng.standard_normal(6)
        assert_history_read_only(fgmres_solve(aslinearoperator(random_spd(rng, 6)), identity(6), rhs)[1])

    def test_block_solve(self):
        prob = random_desk_problem(3)
        pre = make_preconditioner("ibs2", prob)
        assert_history_read_only(fgmres_solve(block_system_operator(prob), pre, build_rhs(prob))[1])

    def test_report_keeps_a_copy_of_the_given_history(self):
        # A list is accepted, and the caller's array stays the caller's:
        # writable, and writing into it leaves the report alone.
        assert_history_read_only(SolveReport(0.0, [1.0, 0.5], True))
        given = np.array([1.0, 0.25])
        report = SolveReport(0.0, given, True)
        given[-1] = 5.0
        assert report.res_history[-1] == report.final_res == 0.25
        assert report.res_history.dtype == np.float64
        assert_history_read_only(report)


class TestFgmres:
    def test_identity_one_iteration(self):
        rhs = np.array([2.0, -1.0, 0.5])
        x, report = fgmres_solve(aslinearoperator(np.eye(3)), identity(3), rhs)
        assert report.converged and report.iterations == 1
        assert np.allclose(x, rhs, rtol=0, atol=1e-12)

    def test_exact_inverse_preconditioner_one_iteration(self, rng):
        m = random_spd(rng, 12, cond=1e4)
        factor = dense_cholesky(m)
        x, report = fgmres_solve(
            aslinearoperator(m),
            LinearOperator(12, 12, lambda r: cholesky_solve(factor, r)),
            rng.standard_normal(12),
            config=FgmresConfig(1e-10, 50),
        )
        assert report.converged and report.iterations == 1

    def test_unpreconditioned_general_system(self, rng):
        m = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        rhs = rng.standard_normal(20)
        x, report = fgmres_solve(aslinearoperator(m), identity(20), rhs, config=FgmresConfig(1e-10, 100))
        assert report.converged
        assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-10

    def test_zero_rhs(self):
        x, report = fgmres_solve(aslinearoperator(np.eye(3)), identity(3), np.zeros(3))
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
            aslinearoperator(m), LinearOperator(25, 25, alternating), rhs,
            config=FgmresConfig(1e-10, 200),
        )
        assert report.converged
        assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) <= 1e-10

    def test_history_monotone_within_cycle(self, rng):
        m = random_spd(rng, 30, cond=1e3)
        rhs = rng.standard_normal(30)
        _, report = fgmres_solve(aslinearoperator(m), identity(30), rhs, config=FgmresConfig(1e-10, 100))
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
            aslinearoperator(m), identity(30), rhs, config=FgmresConfig(1e-8, 500, restart=5)
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
        _, restarted = fgmres_solve(op, identity(30), rhs, config=FgmresConfig(1e-12, 5, restart=2))
        _, stopped = fgmres_solve(op, identity(30), rhs, config=FgmresConfig(1e-12, 2))
        assert restarted.iterations == 5 and not stopped.converged
        assert restarted.res_history[2] == stopped.final_res

    def test_confirmations_record_each_true_residual(self, rng):
        # One (iteration, estimate, true residual) per confirmation: at each
        # restart boundary and at the cap; the history holds the true one.
        m = rng.standard_normal((30, 30)) + 5.0 * np.eye(30)
        rhs = rng.standard_normal(30)
        _, rep = fgmres_solve(aslinearoperator(m), identity(30), rhs, config=FgmresConfig(1e-12, 5, restart=2))
        assert [it for it, _, _ in rep.confirmations] == [2, 4, 5]
        for it, estimate, true in rep.confirmations:
            assert rep.res_history[it] == true
            assert abs(estimate - true) <= 1e-10 * true

    def test_nan_in_basis_raises(self):
        def bad_apply(v):
            out = v.copy()
            out[0] = np.nan
            return out

        op = LinearOperator(3, 3, bad_apply)
        with pytest.raises(NumericalFailureError, match="iteration 1"):
            fgmres_solve(op, identity(3), np.ones(3))

    @staticmethod
    def faulty_on_call(apply, call, fault):
        """``apply`` whose output from the ``call``-th call on is passed
        through ``fault``."""
        calls = []

        def wrapped(v):
            calls.append(1)
            out = apply(v)
            return fault(out) if len(calls) >= call else out

        return wrapped

    def test_inf_in_operator_output_raises(self):
        m = np.diag(np.arange(1.0, 7.0))

        def inf_entry(out):
            out[2] = np.inf
            return out

        op = LinearOperator(6, 6, self.faulty_on_call(lambda v: m @ v, 3, inf_entry))
        with pytest.raises(NumericalFailureError, match="at iteration 3$"):
            fgmres_solve(op, identity(6), np.ones(6))

    def test_nan_where_every_basis_vector_is_zero_raises(self):
        # rhs[4] = 0 and a diagonal operator keep entry 4 of every basis
        # vector at zero, so the NaN there meets only zeros in V w.
        m = np.diag(np.arange(1.0, 7.0))
        rhs = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 5.0])

        def nan_entry(out):
            out[4] = np.nan
            return out

        seen = []

        def op_apply(v):
            seen.append(v[4])
            return m @ v

        op = LinearOperator(6, 6, self.faulty_on_call(op_apply, 2, nan_entry))
        with pytest.raises(NumericalFailureError, match="at iteration 2$"):
            fgmres_solve(op, identity(6), rhs)
        assert seen == [0.0, 0.0]

    def test_nan_from_preconditioner_raises(self):
        precond = LinearOperator(6, 6, self.faulty_on_call(np.copy, 2, lambda out: out * np.nan))
        with pytest.raises(NumericalFailureError, match="at iteration 2$"):
            fgmres_solve(aslinearoperator(np.diag(np.arange(1.0, 7.0))), precond, np.ones(6))

    @pytest.mark.parametrize("reshape", [lambda z: z[:-1], lambda z: z[:, None]], ids=["short", "column"])
    def test_wrong_shape_from_preconditioner_raises(self, reshape):
        # A (size - 1,) or (size, 1) direction is named as the
        # preconditioner's, not left to the operator's shape check.
        precond = LinearOperator(6, 6, self.faulty_on_call(np.copy, 2, reshape))
        shape = reshape(np.zeros(6)).shape
        want = f"preconditioner output has shape {shape}, expected (6,), at iteration 2"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            fgmres_solve(aslinearoperator(np.diag(np.arange(1.0, 7.0))), precond, np.ones(6))

    def test_single_iteration_cap(self):
        m = np.diag(np.arange(1.0, 7.0))
        op, rhs = aslinearoperator(m), np.ones(6)
        x, report = fgmres_solve(op, identity(6), rhs, config=FgmresConfig(max_iterations=1))
        assert report.iterations == 1 and len(report.res_history) == 2
        assert report.final_res == report.res_history[-1]
        assert report.final_res == np.linalg.norm(rhs - op.apply(x)) / np.linalg.norm(rhs)
        assert 0.0 < report.final_res < 1.0
        assert not report.converged

    def test_happy_breakdown_note(self):
        # With the identity operator the first Arnoldi vector is exact.
        _, report = fgmres_solve(aslinearoperator(np.eye(4)), identity(4), np.array([1.0, 2.0, 3.0, 4.0]))
        assert report.converged
        assert any("happy breakdown" in note for note in report.notes)

    @pytest.mark.parametrize("scale", [1.0, 1e-16, 1e16])
    def test_breakdown_test_is_scale_invariant(self, scale):
        rng = np.random.default_rng(0)
        a = np.diag(np.logspace(0, 3, 60)) + 0.1 * rng.standard_normal((60, 60))
        _, report = fgmres_solve(
            aslinearoperator(scale * a), identity(60), np.ones(60), config=FgmresConfig(1e-10)
        )
        assert report.converged and report.iterations == 60

    def test_nonconvergence_reports_true_residual(self, rng):
        m = random_spd(rng, 40, cond=1e8)
        rhs = rng.standard_normal(40)
        x, report = fgmres_solve(aslinearoperator(m), identity(40), rhs, config=FgmresConfig(1e-13, 5))
        assert not report.converged
        assert report.iterations == 5
        true_res = np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs)
        assert abs(report.final_res - true_res) <= 1e-12 * max(1.0, true_res)

    def test_degenerate_preconditioner_fails_honestly(self):
        x, report = fgmres_solve(
            aslinearoperator(np.eye(3)), LinearOperator(3, 3, np.zeros_like), np.ones(3),
            config=FgmresConfig(1e-8, 10),
        )
        assert not report.converged
        assert np.all(np.isfinite(x))
        assert any("did not meet" in note for note in report.notes)
        # Three resumptions, then the fourth unconfirmed end gives up.
        assert sum(note.endswith("resuming") for note in report.notes) == 3
        assert report.resumptions == 3
        assert report.notes[-1].endswith("giving up")

    def test_unconfirmed_breakdown_resumes(self, rng):
        # A zero direction breaks the Arnoldi process down at once with an
        # estimate of zero, yet the iterate is still x = 0.  The true
        # residual does not confirm it, so the solve resumes, and the exact
        # preconditioner then finishes in one more iteration.
        m = random_spd(rng, 12, cond=1e3)
        factor = dense_cholesky(m)
        calls = []

        def zero_first(r):
            calls.append(1)
            return np.zeros_like(r) if len(calls) == 1 else cholesky_solve(factor, r)

        rhs = rng.standard_normal(12)
        x, report = fgmres_solve(
            aslinearoperator(m), LinearOperator(12, 12, zero_first), rhs, config=FgmresConfig(1e-10, 50)
        )
        assert report.converged and report.iterations == 2
        assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-10
        assert report.final_res < 1e-10
        assert "happy breakdown at iteration 1" in report.notes
        assert any("did not meet the tolerance" in n and "resuming" in n for n in report.notes)

    def test_giving_up_returns_the_best_confirmed_iterate(self):
        # After its first call the preconditioner adds 1e16 * u to r: each
        # cycle's last direction is A-parallel to the one before it, the
        # cycle breaks down, and summing the huge terms in x + y Z rounds
        # away the iterate carried into the cycle.  The confirmed residuals
        # grow, the last beyond the 1.0 of x = 0.
        n = 12
        m = np.diag(np.linspace(1.0, 10.0, n))
        u = np.random.default_rng(0).standard_normal(n)
        calls = []

        def garbage_after_first(r):
            calls.append(1)
            return r.copy() if len(calls) == 1 else r + 1e16 * u

        rhs = np.ones(n)
        x, report = fgmres_solve(
            aslinearoperator(m), LinearOperator(n, n, garbage_after_first), rhs,
            config=FgmresConfig(1e-10, 50),
        )
        confirmed = [float(note.split("true ")[1].split(")")[0])
                     for note in report.notes if "did not meet" in note]
        assert not report.converged and report.resumptions == 3 and len(confirmed) == 4
        assert [f"{true:.3e}" for _, _, true in report.confirmations] == [f"{c:.3e}" for c in confirmed]
        assert max(confirmed) > 1.0  # the case this guards against
        true_res = np.linalg.norm(rhs - m @ x) / np.linalg.norm(rhs)
        assert report.final_res == report.res_history[-1]
        assert abs(report.final_res - true_res) <= 1e-12
        assert report.final_res <= min(confirmed) * (1.0 + 1e-3) and report.final_res < 1.0
        assert report.notes[-1].startswith("returned the iterate of iteration")
        assert len(report.res_history) == report.iterations + 1

    @pytest.mark.parametrize("restart, iterations", [(None, 97), (40, 246), (10, 827)])
    def test_basis_growth(self, restart, iterations):
        # The basis starts at 33 rows and grows by 32: unrestarted, this
        # solve grows it twice; restart=40 grows it once per cycle and
        # restart=10 never.  The counts pin the orthogonalization.
        diag = np.logspace(0, 3, 120)
        rhs = np.ones(120)
        x, report = fgmres_solve(
            aslinearoperator(np.diag(diag)), identity(120), rhs,
            config=FgmresConfig(1e-8, 2000, restart=restart),
        )
        assert report.converged and report.iterations == iterations
        assert len(report.res_history) == report.iterations + 1
        np.testing.assert_allclose(x, rhs / diag, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("j", [1, 40, 300])
    def test_assembly_solves_the_rotated_system(self, rng, j):
        # R is upper triangular with column k r_cols[k], as the loop builds
        # it; a zero diagonal marks a direction that contributed nothing.
        r = np.triu(rng.standard_normal((j, j))) / np.sqrt(j)
        r[np.diag_indices(j)] = rng.choice([-1.0, 1.0], j) * (2.0 + rng.random(j))
        dead = [j // 2] if j > 1 else []
        r[dead, dead] = 0.0
        r_cols = [r[: k + 1, k].tolist() for k in range(j)]
        g = list(rng.standard_normal(j + 1))
        # Through the identity, the assembly returns its weights y exactly.
        y = _assemble(np.zeros(j), g, r_cols, np.eye(j + 5, j))
        assert not y[dead].any()
        # The oracle: the same system with the dead row a unit row and its g zero.
        unit, rhs = r.copy(), np.array(g[:j])
        unit[dead], rhs[dead] = np.eye(j)[dead], 0.0
        eps = np.finfo(float).eps
        norm = lambda a: np.linalg.norm(a, np.inf)
        backward = norm(rhs - unit @ y) / (norm(unit) * norm(y))
        assert backward <= 4.0 * eps
        want = scipy.linalg.solve_triangular(unit, rhs)
        assert np.linalg.norm(y - want) <= 10.0 * j * eps * np.linalg.cond(unit) * np.linalg.norm(want)
        # The iterate is x + y Z over the cycle's j directions.
        x = rng.standard_normal(9)
        zdirs = rng.standard_normal((j + 5, 9))
        assert np.array_equal(_assemble(x, g, r_cols, zdirs), x + y @ zdirs[:j])

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            FgmresConfig(restart=0)


class TestSolverInput:
    """Bad input is rejected before any iteration, with its cause named."""

    SOLVERS = {
        "cg": lambda op, rhs: cg_solve(op, rhs),
        "fgmres": lambda op, rhs: fgmres_solve(op, identity(op.n_rows), rhs),
    }

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_non_square_operator(self, solver):
        op = aslinearoperator(np.ones((3, 4)))
        with pytest.raises(ValueError, match=r"^operator is 3 x 4, not square$"):
            self.SOLVERS[solver](op, np.ones(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_non_finite_rhs(self, solver, value):
        applied = []
        op = LinearOperator(4, 4, lambda v: applied.append(1) or 2.0 * v)
        rhs = np.array([1.0, value, 0.0, 3.0])
        with pytest.raises(ValueError, match="^rhs is not finite"):
            self.SOLVERS[solver](op, rhs)
        assert applied == []

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_rhs_whose_norm_overflows(self, solver):
        # Finite entries whose 2-norm is inf would overflow in the loop.
        applied = []
        op = LinearOperator(4, 4, lambda v: applied.append(1) or 2.0 * v)
        with pytest.raises(ValueError, match="^rhs is not finite or too large: its 2-norm is inf$"):
            self.SOLVERS[solver](op, np.full(4, 1e200))
        assert applied == []

    def test_non_finite_rhs_on_the_block_system(self):
        prob = random_desk_problem(2)
        rhs = build_rhs(prob)
        rhs[prob.size - 1] = np.inf
        pre = make_preconditioner("ibs2", prob, inner="cg")
        with pytest.raises(ValueError, match="^rhs is not finite"):
            fgmres_solve(block_system_operator(prob), pre, rhs)
        assert pre.inner_iterations == 0
