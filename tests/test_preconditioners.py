import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from ilsolve import (
    CgConfig,
    ConfigurationError,
    FgmresConfig,
    IndefiniteOperatorError,
    VARIANTS,
    IlsProblem,
    Preconditioner,
    apply_block_A,
    assemble_dense_preconditioned,
    block_system_operator,
    build_rhs,
    compute_alpha,
    fgmres_solve,
    generate_augmented_problem,
    generate_random_problem,
    make_preconditioner,
)
from ilsolve import preconditioners as preconditioners_module
from ilsolve import problem as problem_module
from ilsolve import sparse as sparse_module
from ilsolve.dense import _factor, cholesky_solve, dense_cholesky
from ilsolve.krylov import cg_solve
from ilsolve.operators import LinearOperator
from ilsolve.preconditioners import DENSE_ASSEMBLY_MAX_SIZE, INNER_SOLVERS, _INNER_SOLVES, _fold, _gram_bound
from ilsolve.problem import densify
from ilsolve.sparse import SparseMatrixCsr, rectangular_identity_csr

from conftest import (
    dense_block_system,
    dense_splitting_matrix,
    panel_rows,
    random_desk_problem,
    scalar_problem,
)

ALL_IBS = ("ibs1", "ibs2", "ibs3", "ibs4")
IBS_TO_BASELINE = {"ibs1": "bs1", "ibs2": "bs2", "ibs3": "bs3", "ibs4": "but"}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown preconditioner"):
        make_preconditioner("ibs9", scalar_problem())


def lower(pre):
    """The Cholesky factor an exact preconditioner solves with."""
    return inspect.getclosurevars(pre._solve).nonlocals["lower"]


def inverses(pre):
    """The inverses of that factor's diagonal blocks."""
    return inspect.getclosurevars(pre._solve).nonlocals["inverses"]


def as_earlier_iterate(monkeypatch):
    """Make inner CG return its x as an earlier iterate: with neither its
    residual nor A1 x, and the same history and convergence."""
    cg = preconditioners_module._cg

    def earlier(*args):
        x, history, converged, _, _ = cg(*args)
        return x, history, converged, None, None

    monkeypatch.setattr(preconditioners_module, "_cg", earlier)


def test_none_kind_is_identity(rng):
    prob = random_desk_problem(0)
    pre = make_preconditioner("none", prob)
    r = rng.standard_normal(prob.size)
    assert np.array_equal(pre.apply(r), r)


def test_ibs1_applies_shifted_inverse_to_middle_block(rng):
    prob = random_desk_problem(1)
    pre = make_preconditioner("ibs1", prob, inner="cholesky")
    r = rng.standard_normal(prob.size)
    z = pre.apply(r)
    r1, r2, r3 = prob.split(r)
    z1, z2, z3 = prob.split(z)
    a1d = densify(prob.a1)
    shifted = a1d.T @ a1d + prob.alpha * np.eye(prob.n)
    want_mid = cholesky_solve(dense_cholesky(shifted), r2)
    assert np.array_equal(z1, r1)
    assert np.array_equal(z3, r3)
    np.testing.assert_allclose(z2, want_mid, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("kind", VARIANTS)
def test_apply_returns_a_new_array(kind, rng):
    prob = random_desk_problem(4)
    pre = make_preconditioner(kind, prob, inner="cholesky")
    r = rng.standard_normal(prob.size)
    kept = r.copy()
    z = pre.apply(r)
    z[:] = 0.0
    assert np.array_equal(r, kept)


def test_ibs4_equals_ibs3_when_a2_vanishes(rng):
    base = random_desk_problem(2)
    a2 = rectangular_identity_csr(base.q, base.n, 0.0)  # empty pattern
    prob = IlsProblem(base.a1, a2, base.b1, base.b2, base.alpha)
    p3 = make_preconditioner("ibs3", prob, inner="cholesky")
    p4 = make_preconditioner("ibs4", prob, inner="cholesky")
    r = rng.standard_normal(prob.size)
    assert np.array_equal(p3.apply(r), p4.apply(r))


def test_scalar_worked_example():
    prob = scalar_problem(alpha=4.0)  # inner matrix 4 + 4 = 8
    pre = make_preconditioner("ibs2", prob, inner="cholesky")
    z = pre.apply(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(z, [1.0, 0.0, 1.0], rtol=0, atol=1e-15)
    # Independent dense check: M z = r.
    m = dense_splitting_matrix("ibs2", prob)
    assert np.allclose(m @ z, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)


def test_exact_inner_consistency_fifty_instances(rng):
    for i in range(50):
        prob = random_desk_problem(i)
        kind = ALL_IBS[i % 4]
        pre = make_preconditioner(kind, prob, inner="cholesky")
        m = dense_splitting_matrix(kind, prob)
        r = rng.standard_normal(prob.size)
        z = pre.apply(r)
        assert np.linalg.norm(m @ z - r) / np.linalg.norm(r) <= 1e-10


def test_baseline_splitting_matrices_consistent(rng):
    for i, kind in enumerate(("bs1", "bs2", "bs3", "but")):
        prob = random_desk_problem(40 + i)
        pre = make_preconditioner(kind, prob, inner="cholesky")
        m = dense_splitting_matrix(kind, prob)
        r = rng.standard_normal(prob.size)
        z = pre.apply(r)
        assert np.linalg.norm(m @ z - r) / np.linalg.norm(r) <= 1e-10


def test_zero_shift_reduces_to_baseline(rng):
    for i in range(10):
        base = random_desk_problem(60 + i)
        prob = dataclasses.replace(base, alpha=0.0)
        r = rng.standard_normal(prob.size)
        for ibs_kind, baseline in IBS_TO_BASELINE.items():
            z_ibs = make_preconditioner(ibs_kind, prob, inner="cholesky").apply(r)
            z_base = make_preconditioner(baseline, prob, inner="cholesky").apply(r)
            assert np.linalg.norm(z_ibs - z_base) <= 1e-12 * max(np.linalg.norm(z_base), 1.0)


def test_linearity_of_application(rng):
    prob = random_desk_problem(5)
    pre = make_preconditioner("ibs4", prob, inner="cholesky")
    u = rng.standard_normal(prob.size)
    v = rng.standard_normal(prob.size)
    lhs = pre.apply(2.5 * u - 0.5 * v)
    rhs = 2.5 * pre.apply(u) - 0.5 * pre.apply(v)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


class TestDenseAssembly:
    def test_none_kind_gives_block_system(self):
        prob = random_desk_problem(6)
        got = assemble_dense_preconditioned("none", prob)
        want = dense_block_system(prob)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_ibs2_structure(self):
        prob = random_desk_problem(7)
        p, n, q = prob.p, prob.n, prob.q
        t = assemble_dense_preconditioned("ibs2", prob)
        a1d, a2d = densify(prob.a1), densify(prob.a2)
        # Top-left identity, (1,3) and (2,3) blocks zero, middle block is
        # the shift-solved reduced normal matrix.
        assert np.allclose(t[:p, :p], np.eye(p), rtol=0, atol=1e-12)
        assert np.abs(t[:p, p + n :]).max() <= 1e-12
        assert np.abs(t[p : p + n, p + n :]).max() <= 1e-12
        shifted = a1d.T @ a1d + prob.alpha * np.eye(n)
        normal = a1d.T @ a1d - a2d.T @ a2d
        want_mid = np.linalg.solve(shifted, normal)
        np.testing.assert_allclose(t[p : p + n, p : p + n], want_mid, rtol=1e-9, atol=1e-11)

    def test_ibs4_structural_zeros(self):
        prob = random_desk_problem(8)
        p, n = prob.p, prob.n
        t = assemble_dense_preconditioned("ibs4", prob)
        assert np.abs(t[:p, p + n :]).max() <= 1e-12
        assert np.abs(t[p : p + n, p + n :]).max() <= 1e-12

    def test_scalar_ibs1_middle_entry(self):
        prob = scalar_problem(alpha=4.0)
        t = assemble_dense_preconditioned("ibs1", prob)
        assert abs(t[1, 1] - 0.5) <= 1e-15  # 4 / (4 + 4)

    @pytest.mark.parametrize("blocks", ["dense", "csr"])
    def test_columns_are_the_live_application(self, rng, blocks):
        # The analysis checks eigenvectors against this matrix, so its
        # product must be the live path M^{-1} A for every variant.
        if blocks == "dense":
            prob = random_desk_problem(11)
        else:
            # A sparse 12 x 8 core with a dominant diagonal (full column rank).
            rows, cols = np.nonzero(rng.random((12, 8)) < 0.3)
            diag = np.arange(8)
            core = SparseMatrixCsr.from_triplets(
                12, 8, np.r_[rows, diag], np.r_[cols, diag],
                np.r_[rng.standard_normal(len(rows)), np.full(8, 4.0)],
            )
            prob = generate_augmented_problem(core, q=5)
            assert isinstance(prob.a1, SparseMatrixCsr) and isinstance(prob.a2, SparseMatrixCsr)
        v = rng.standard_normal(prob.size)
        for kind in VARIANTS:
            got = assemble_dense_preconditioned(kind, prob) @ v
            want = make_preconditioner(kind, prob, inner="cholesky").apply(apply_block_A(prob, v))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_size_cap(self, monkeypatch):
        prob = random_desk_problem(9)
        monkeypatch.setattr(preconditioners_module, "DENSE_ASSEMBLY_MAX_SIZE", prob.size - 1)
        with pytest.raises(ConfigurationError):
            assemble_dense_preconditioned("ibs1", prob)


class TestInnerSolvers:
    def test_cg_inner_matches_exact_at_tight_tolerance(self, rng):
        prob = random_desk_problem(10)
        tight = make_preconditioner(
            "ibs2", prob, inner="cg", inner_config=CgConfig(1e-13, 10_000)
        )
        exact = make_preconditioner("ibs2", prob, inner="cholesky")
        r = rng.standard_normal(prob.size)
        za, zb = tight.apply(r), exact.apply(r)
        assert np.linalg.norm(za - zb) / np.linalg.norm(zb) <= 1e-9

    def test_inner_config_is_not_kept(self):
        # It is read once, at construction, so there is nothing to assign later.
        pre = make_preconditioner("ibs2", random_desk_problem(10), inner_config=CgConfig(1e-6, 50))
        assert not hasattr(pre, "config")

    def test_inner_failure_is_recorded_not_raised(self, rng):
        prob = random_desk_problem(11)
        pre = make_preconditioner(
            "ibs2", prob, inner="cg", inner_config=CgConfig(1e-13, 1)
        )
        z = pre.apply(rng.standard_normal(prob.size))
        assert np.all(np.isfinite(z))
        assert pre.inner_failures == 1
        pre.reset_stats()
        assert pre.inner_failures == 0

    @pytest.mark.parametrize("signs", [-np.ones(6), np.array([1.0, 1.0, 1.0, 1.0, 1.0, -50.0])], ids=["minus_identity", "late"])
    def test_inner_breakdown_keeps_the_best_iterate(self, rng, monkeypatch, signs):
        # An indefinite Gram operator: -I breaks CG down on its first step,
        # the other after one.  The preconditioner keeps CG's best iterate
        # and counts the breakdown as a failure.
        prob = random_desk_problem(13)
        cfg = CgConfig(1e-10, 100)
        pre = make_preconditioner("ibs1", prob, inner="cg", inner_config=cfg)
        r = rng.standard_normal(prob.size)
        pre.apply(r)
        before = pre.inner_iterations
        assert before > 0 and pre.inner_failures == 0
        diag = np.resize(signs, prob.n)
        pair = lambda v: (diag * v, prob.a1 @ v)
        monkeypatch.setattr(pre, "_solve", _INNER_SOLVES["cg"](prob, pre.shift, pair, cfg)[0])
        with pytest.raises(IndefiniteOperatorError) as info:
            cg_solve(LinearOperator(prob.n, prob.n, lambda v: diag * v), prob.split(r)[1], config=cfg)
        z = pre.apply(r)
        assert pre.inner_failures == 1
        assert pre.inner_iterations == before + info.value.iterations
        assert np.array_equal(prob.split(z)[1], info.value.x_best)
        assert np.array_equal(prob.split(z)[0], prob.split(r)[0])
        assert np.array_equal(prob.split(z)[2], prob.split(r)[2])

    def test_dense_cap_enforced(self, monkeypatch):
        prob = random_desk_problem(12)
        monkeypatch.setattr(problem_module, "DENSE_MAX_N", prob.n - 1)
        with pytest.raises(ConfigurationError):
            make_preconditioner("ibs1", prob, inner="cholesky")

    def test_cholesky_factor_shared_per_problem_and_shift(self, monkeypatch):
        prob = random_desk_problem(13)
        calls = []
        monkeypatch.setattr(preconditioners_module, "_factor", lambda m: calls.append(1) or _factor(m))
        ibs2 = make_preconditioner("ibs2", prob, inner="cholesky")
        ibs4 = make_preconditioner("ibs4", prob, inner="cholesky")
        assert lower(ibs2) is lower(ibs4) and len(calls) == 1
        assert inverses(ibs2) is inverses(ibs4) is not None
        baseline = make_preconditioner("bs2", prob, inner="cholesky")
        assert lower(baseline) is not lower(ibs2) and len(calls) == 2
        assert inverses(baseline) is not inverses(ibs2)
        # A copy is another problem with a cache of its own: it factors
        # afresh, with the same shift or another.
        same = make_preconditioner("ibs2", dataclasses.replace(prob), inner="cholesky")
        assert lower(same) is not lower(ibs2) and inverses(same) is not inverses(ibs2)
        assert len(calls) == 3
        shifted = dataclasses.replace(prob, alpha=2 * prob.alpha)
        other = make_preconditioner("ibs2", shifted, inner="cholesky")
        assert lower(other) is not lower(ibs2) and len(calls) == 4
        a1d = densify(shifted.a1)
        np.testing.assert_allclose(
            lower(other) @ lower(other).T, a1d.T @ a1d + shifted.alpha * np.eye(prob.n),
            rtol=1e-12, atol=1e-12,
        )

    def test_shared_factor_is_read_only(self):
        prob = random_desk_problem(14)
        pre = make_preconditioner("ibs2", prob, inner="cholesky")
        assert inverses(make_preconditioner("ibs4", prob, inner="cholesky")) is inverses(pre)
        with pytest.raises(ValueError):
            lower(pre)[0, 0] = 1.0
        with pytest.raises(ValueError):
            inverses(pre)[0, 0, 0] = 1.0

    def test_exact_apply_needs_no_dense_solve(self, rng, monkeypatch):
        # The exact inner solve is two sweeps of products with the cached
        # block inverses, not a dense solve per block.
        prob = random_desk_problem(16)
        pre = make_preconditioner("ibs4", prob, inner="cholesky")
        r = rng.standard_normal(prob.size)
        _, r2, r3 = prob.split(r)
        want = cholesky_solve(lower(pre), r2 - r3 @ prob.a2)

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        np.testing.assert_allclose(prob.split(pre.apply(r))[1], want, rtol=1e-12, atol=1e-14)

    def test_factor_cache_leaves_equality_and_repr_alone(self):
        prob = random_desk_problem(15)
        before = repr(prob)
        make_preconditioner("ibs3", prob, inner="cholesky")
        assert repr(prob) == before and "_factors" not in before
        # A problem equals itself alone: a copy, with its own cache, does not.
        copy = dataclasses.replace(prob)
        assert prob == prob and prob != copy and hash(prob) != hash(copy)

    def test_unknown_inner_mode(self):
        assert INNER_SOLVERS == ("cg", "cholesky")
        with pytest.raises(ValueError, match="inner solver"):
            make_preconditioner("ibs1", scalar_problem(), inner="lu")

    def test_unknown_inner_mode_rejected_for_none(self):
        with pytest.raises(ValueError, match="unknown inner solver mode 'lu'"):
            make_preconditioner("none", scalar_problem(), inner="lu")


class TestDirectConstruction:
    """``Preconditioner(kind, problem, inner, inner_config)`` is what
    make_preconditioner builds, and validates its arguments itself."""

    @pytest.mark.parametrize("inner", INNER_SOLVERS)
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_applies_bit_for_bit_like_make_preconditioner(self, rng, kind, inner):
        prob = random_desk_problem(17)
        r = rng.standard_normal(prob.size)
        cfg = CgConfig(1e-6, 50)
        direct = Preconditioner(kind.upper(), prob, inner, cfg)
        built = make_preconditioner(kind, prob, inner=inner, inner_config=cfg)
        assert np.array_equal(direct.apply(r), built.apply(r))
        assert (direct.kind, direct.paired, direct.inner_iterations) == (kind, built.paired, built.inner_iterations)

    def test_defaults_are_make_preconditioners(self, rng):
        prob = random_desk_problem(18)
        r = rng.standard_normal(prob.size)
        assert np.array_equal(Preconditioner("ibs2", prob).apply(r), make_preconditioner("ibs2", prob).apply(r))

    @pytest.mark.parametrize(
        "kind, inner, name", [("bogus", "cg", "'bogus'"), ("ibs1", "lu", "'lu'"), ("none", "lu", "'lu'")]
    )
    def test_unknown_kind_or_inner_solver_is_named(self, kind, inner, name):
        with pytest.raises(ValueError, match=name):
            Preconditioner(kind, scalar_problem(), inner=inner)


def test_scalar_problem_apply():
    prob = scalar_problem()
    pre = make_preconditioner("ibs2", prob, inner="cholesky")
    out = pre.apply(np.ones(3))
    assert isinstance(out, np.ndarray)
    assert np.allclose(out, [1.0, 0.0, 1.0], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# The paired step: z = M^{-1} v and A z from the splitting
# ---------------------------------------------------------------------------

SPLITTINGS = ALL_IBS + tuple(IBS_TO_BASELINE.values())
EPS = np.finfo(np.float64).eps
PANEL_200 = panel_rows(np.empty((0, 200)))  # rows of one Gram-sweep panel at n = 200


def _csr(a):
    rows, cols = np.nonzero(a)
    return SparseMatrixCsr.from_triplets(a.shape[0], a.shape[1], rows, cols, a[rows, cols])


def paired_problem(rng, layout):
    """A problem with full-column-rank A1 in one of the three layouts that
    the Gram product distinguishes, or with empty rows in both blocks
    (``folds``), at the default shift."""
    if layout == "dense-panels":
        a1 = rng.standard_normal((2 * PANEL_200 + 5, 200))
    else:
        a1 = rng.standard_normal((30, 12))
        a1[rng.random(a1.shape) < 0.5] = 0.0
        a1[:12] += 4.0 * np.eye(12)
    a2 = rng.standard_normal((9, a1.shape[1]))
    if layout == "folds":
        a1 = np.insert(a1, [0, 7, 7], 0.0, axis=0)
        a2 = np.insert(a2, [2, 5, 9, 9], 0.0, axis=0)
    if layout in ("csr", "folds"):
        a1, a2 = _csr(a1), _csr(a2)
    p, q = a1.shape[0], a2.shape[0]
    return IlsProblem(a1, a2, rng.standard_normal(p), rng.standard_normal(q), compute_alpha(a1))


class TestPairedStep:
    @pytest.mark.parametrize("layout", ["csr", "dense-one-panel", "dense-panels", "folds"])
    @pytest.mark.parametrize("inner", ["cg", "cholesky"])
    @pytest.mark.parametrize("kind", SPLITTINGS)
    def test_step_matches_apply_and_the_block_product(self, rng, kind, inner, layout):
        prob = paired_problem(rng, layout)
        # Every dense A1 is swept by panels; a CSR A1 has none.
        rows = panel_rows(prob.a1)
        assert (rows == 0) == (layout in ("csr", "folds"))
        assert (0 < rows < prob.p) == (layout == "dense-panels")
        pre = make_preconditioner(kind, prob, inner=inner)
        own = layout != "folds"
        if not own:
            # The same preconditioner steps on the folded twin.
            prob = _fold(prob)[0]
        v = rng.standard_normal(prob.size)
        pre.reset_stats()
        z, w = pre._apply(prob, v, paired=True)
        k = pre.inner_iterations
        assert np.array_equal(z, pre.apply(v) if own else pre._apply(prob, v))
        direct = apply_block_A(prob, z)
        # Rounding of both sides is of order eps (|v| + |A| |z|), with
        # |A| <= |S| + |A1| + |A2| in 2-norms; for CG add the drift of its
        # recurrence residual from the true one, of order k eps |S| |z|
        # (Greenbaum, SIAM J. Matrix Anal. Appl. 18, 1997).  Measured
        # here: at most 0.06 of the bound.
        a1d, a2d = densify(prob.a1), densify(prob.a2)
        shift = prob.alpha if kind in ALL_IBS else 0.0
        norm_s = shift + np.linalg.norm(a1d, 2) ** 2
        norm_a = norm_s + np.linalg.norm(a1d, 2) + np.linalg.norm(a2d, 2)
        bound = 2 * EPS * (k + 1) * (np.linalg.norm(v) + norm_a * np.linalg.norm(z))
        assert np.linalg.norm(w - direct) <= bound
        if inner == "cg":
            # The inner residual s that the step subtracts is far above the
            # bound: a step that dropped it would fail.
            r1, r2, r3 = prob.split(v)
            c = r2 - r3 @ a2d if kind in ("ibs2", "ibs4", "bs2", "but") else r2
            z2 = prob.split(z)[1]
            s = c - (shift * z2 + a1d.T @ (a1d @ z2))
            assert np.linalg.norm(s) > 100 * bound

    def test_recomputes_the_residual_of_an_earlier_iterate(self, rng, monkeypatch):
        # When CG returns its best iterate in place of its last (or breaks
        # down), the step recomputes s = c - S z2 with a Gram product.
        prob = paired_problem(rng, "csr")
        pre = make_preconditioner("ibs2", prob, inner="cg")
        v = rng.standard_normal(prob.size)
        as_earlier_iterate(monkeypatch)
        z, w = pre._apply(prob, v, paired=True)
        direct = apply_block_A(prob, z)
        assert np.linalg.norm(w - direct) <= 1e-13 * np.linalg.norm(direct)

    @pytest.mark.parametrize("inner", ["cg", "cg-earlier", "cholesky"])
    @pytest.mark.parametrize("kind", SPLITTINGS)
    def test_products_by_a1_in_one_step(self, rng, monkeypatch, kind, inner):
        # One step on a CSR problem, counted as (A1 x, y A1) products.  The
        # paired step after inner CG of k iterations makes the k Gram
        # products of CG and no other product by A1; after CG returns an
        # earlier iterate, one Gram product more; after an exact solve,
        # one A1 z2.  A step that declines the splitting (the baselines on
        # CG) is apply, with A1 z2 for ibs3/bs3 and ibs4/but, followed by
        # the block product.
        prob = paired_problem(rng, "csr")
        pre = make_preconditioner(kind, prob, inner=inner.split("-")[0])
        if inner == "cg-earlier":
            as_earlier_iterate(monkeypatch)
        # Every CSR product runs the one kernel: A1 x gathers by column,
        # y A1 by row.
        counts = [0, 0]
        kernel = sparse_module._product

        def counted(values, gather, scatter, x, size):
            if values is prob.a1.values:
                counts[gather is not prob.a1.col_indices] += 1
            return kernel(values, gather, scatter, x, size)

        monkeypatch.setattr(sparse_module, "_product", counted)
        v = rng.standard_normal(prob.size)
        pre.reset_stats()
        pre._apply(prob, v, paired=True)
        k = pre.inner_iterations
        assert pre.inner_failures == 0
        if inner == "cholesky":
            assert counts == [1, 0]
        elif not pre.paired:
            assert kind in IBS_TO_BASELINE.values()
            assert counts == [k + 1 + (kind in ("bs3", "but")), k + 1]
        else:
            assert k > 0 and counts == [k + (inner == "cg-earlier")] * 2

    @pytest.mark.parametrize("inner", ["cg", "cholesky"])
    @pytest.mark.parametrize("kind", SPLITTINGS)
    def test_which_preconditioners_take_the_step(self, kind, inner):
        # Exact inner solves always; CG only on the shifted inner matrix.
        prob = random_desk_problem(3)
        pre = make_preconditioner(kind, prob, inner=inner)
        assert pre.paired == (inner == "cholesky" or kind in ALL_IBS)

    def test_shift_bound_is_the_guard(self):
        prob = random_desk_problem(3)
        bound = _gram_bound(prob)
        limit = preconditioners_module._PAIR_BOUND
        inside = dataclasses.replace(prob, alpha=bound / (limit - 2.0))
        outside = dataclasses.replace(prob, alpha=bound / (limit - 0.5))
        assert make_preconditioner("ibs1", inside).paired
        assert not make_preconditioner("ibs1", outside).paired
        assert make_preconditioner("ibs1", outside, inner="cholesky").paired

    @pytest.mark.parametrize("kind", ["none", "bs1", "bs2", "bs3", "but"])
    def test_declined_step_is_apply_and_one_block_product(self, rng, kind):
        prob = paired_problem(rng, "csr")
        pre = make_preconditioner(kind, prob, inner="cg")
        assert not pre.paired
        v = rng.standard_normal(prob.size)
        z, w = pre._apply(prob, v, paired=True)
        assert np.array_equal(z, pre.apply(v)) and np.array_equal(w, apply_block_A(prob, z))

    @pytest.mark.parametrize("case", ["none", "bs1", "bs2", "bs3", "but", "ibs2-shift-past-bound"])
    def test_declined_step_keeps_the_wrapped_solve_bit_for_bit(self, case):
        prob = random_desk_problem(21)
        kind = case.split("-")[0]
        if case.endswith("past-bound"):
            limit = preconditioners_module._PAIR_BOUND
            prob = dataclasses.replace(prob, alpha=_gram_bound(prob) / (10 * limit))
        op, rhs = block_system_operator(prob), build_rhs(prob)
        out = []
        for operator in (op, LinearOperator(prob.size, prob.size, op.apply)):
            pre = make_preconditioner(kind, prob, inner="cg")
            assert not pre.paired
            out.append(fgmres_solve(operator, pre, rhs, config=FgmresConfig(1e-10, 300)))
        (x, rep), (xw, repw) = out
        assert rep.converged
        assert np.array_equal(x, xw) and np.array_equal(rep.res_history, repw.res_history)


class TestBlockApply:
    """A (size, k) block through ``Preconditioner.apply`` and ``apply_block_A``
    gives the stacked applies to its columns."""

    @pytest.mark.parametrize("layout", ["dense-one-panel", "csr"])
    @pytest.mark.parametrize("inner", INNER_SOLVERS)
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_apply_is_the_stacked_vector_applies(self, rng, kind, inner, layout):
        prob = paired_problem(rng, layout)
        r = rng.standard_normal((prob.size, 5))
        block, single = (make_preconditioner(kind, prob, inner=inner) for _ in range(2))
        got = block.apply(r)
        want = np.stack([single.apply(col) for col in r.T.copy()], axis=1)
        assert got.shape == r.shape
        if inner == "cg" and kind != "none":
            # Inner CG is not linear: the block runs column by column.
            assert np.array_equal(got, want)
            assert block.inner_iterations == single.inner_iterations > 0
            assert block.inner_failures == single.inner_failures
        else:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            assert block.inner_iterations == 0

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("layout", ["dense-one-panel", "dense-panels", "csr", "folds"])
    def test_block_product_is_the_stacked_vector_products(self, rng, layout, k):
        prob = paired_problem(rng, layout)
        v = rng.standard_normal((prob.size, k))
        got = apply_block_A(prob, v)
        want = np.stack([apply_block_A(prob, col) for col in v.T.copy()], axis=1)
        assert got.shape == v.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        if layout in ("csr", "folds"):
            # A CSR block goes through the 1-D kernel column by column.
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(20, 10, 15), (120, 60, 100), (400, 200, 300)])
    def test_assembly_is_the_column_loop(self, shape):
        # The batched M^{-1} A against the assembly it replaced, one
        # apply to A e_j per column.
        prob = generate_random_problem(*shape, seed=1)
        eye = np.eye(prob.size)
        for kind in VARIANTS:
            pre = make_preconditioner(kind, prob, inner="cholesky")
            loop = np.stack([pre.apply(apply_block_A(prob, e)) for e in eye], axis=1)
            got = assemble_dense_preconditioned(kind, prob)
            assert np.linalg.norm(got - loop) <= 1e-14 * np.linalg.norm(loop)

    def test_csr_assembly_near_the_cap_keeps_its_scratch_small(self, rng):
        # Size 1,990 with about 12,000 stored entries: the traced peak stays
        # under two copies of the result, so scratch does not grow as
        # nnz * size (which would be some 600 MB here); sampled columns are
        # the vector applies.
        def csr(m, n, diagonal):
            rows = np.repeat(np.arange(m), 8)
            cols = rng.integers(0, n, rows.size)
            vals = rng.standard_normal(rows.size)
            if diagonal:
                rows, cols = np.r_[rows, np.arange(n)], np.r_[cols, np.arange(n)]
                vals = np.r_[vals, np.full(n, 8.0)]
            return SparseMatrixCsr.from_triplets(m, n, rows, cols, vals)

        a1, a2 = csr(900, 500, True), csr(590, 500, False)
        prob = IlsProblem(a1, a2, rng.standard_normal(900), rng.standard_normal(590), compute_alpha(a1))
        pre = make_preconditioner("ibs4", prob, inner="cholesky")  # both the coupled and back-substituted steps
        tracemalloc.start()
        try:
            got = assemble_dense_preconditioned("ibs4", prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (prob.size, prob.size) and prob.size > 0.99 * DENSE_ASSEMBLY_MAX_SIZE
        assert peak < 2 * got.nbytes
        for j in (0, 255, 256, 1000, prob.size - 1):
            want = pre.apply(apply_block_A(prob, np.eye(prob.size)[j]))
            assert np.linalg.norm(got[:, j] - want) <= 1e-13 * np.linalg.norm(want)
