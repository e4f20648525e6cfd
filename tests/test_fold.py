"""The folded solve: when A2 has two or more empty rows, ``fgmres_solve``
works on a twin in which those rows are one zero row, and must give what
the full-length solve gives.  Empty rows of A1 do not fold.

The full-length solve is reached by wrapping the block operator in a plain
LinearOperator, which ``fgmres_solve`` never folds.
"""

import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ilsolve as il
from ilsolve import (
    CgConfig,
    FgmresConfig,
    IlsProblem,
    LinearOperator,
    block_system_operator,
    build_rhs,
    fgmres_solve,
    make_preconditioner,
)
from ilsolve import preconditioners as preconditioners_module
from ilsolve.preconditioners import INNER_SOLVERS, Preconditioner, _fold
from ilsolve.problem import densify

from conftest import dense_block_system

CONFIG = FgmresConfig(1e-10, 300)


def csr(dense):
    i, j = np.nonzero(dense)
    return il.SparseMatrixCsr.from_triplets(*dense.shape, i, j, dense[i, j])


def with_empty_rows(prob, e1, e2, seed, sparse):
    """``prob`` with ``e1`` zero rows put among the rows of A1 and ``e2``
    among those of A2, at seeded places, with random right-hand-side
    entries on them; CSR blocks when ``sparse``."""
    rng = np.random.default_rng(seed)
    blocks = []
    for block, b, extra in ((prob.a1, prob.b1, e1), (prob.a2, prob.b2, e2)):
        dense = densify(block)
        rows = len(b) + extra
        place = np.sort(rng.choice(rows, size=len(b), replace=False))
        full = np.zeros((rows, dense.shape[1]))
        full[place] = dense
        rhs = rng.standard_normal(rows)
        rhs[place] = b
        blocks.append((csr(full) if sparse else full, rhs))
    (a1, b1), (a2, b2) = blocks
    return IlsProblem(a1, a2, b1, b2, prob.alpha)


def unfolded(prob):
    op = block_system_operator(prob)
    return LinearOperator(op.n_rows, op.n_cols, op.apply)


def solve_both(prob, kind, inner, rhs=None, config=CONFIG):
    """(x, report, inner counters) of the folded and of the full solve."""
    rhs = build_rhs(prob) if rhs is None else rhs
    out = []
    for op in (block_system_operator(prob), unfolded(prob)):
        pre = make_preconditioner(kind, prob, inner=inner, inner_config=CgConfig(1e-3, 1000))
        pre.reset_stats()
        x, rep = fgmres_solve(op, pre, rhs, config=config)
        out.append((x, rep, (pre.inner_iterations, pre.inner_failures)))
    return out


def true_residual(prob, x, rhs):
    return np.linalg.norm(rhs - dense_block_system(prob) @ x) / np.linalg.norm(rhs)


@pytest.fixture
def applied(monkeypatch):
    """Lengths of the vectors every Preconditioner is applied to, by
    ``apply`` or by the paired step that FGMRES takes on the block operator
    (``lengths``), and those of the paired steps alone (``paired``); both
    go through the one body ``Preconditioner._apply``."""
    seen = SimpleNamespace(lengths=[], paired=[])
    body = Preconditioner._apply

    def recording(self, prob, r, paired=False):
        seen.lengths.append(len(r))
        if paired:
            seen.paired.append(len(r))
        return body(self, prob, r, paired)

    monkeypatch.setattr(Preconditioner, "_apply", recording)
    return seen


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    shape=st.tuples(st.integers(2, 5), st.integers(0, 3), st.integers(1, 5)),
    empty=st.sampled_from([(2, 0), (3, 1), (0, 2), (1, 4), (2, 2), (4, 3)]),
    sparse=st.booleans(),
    kind=st.sampled_from(il.VARIANTS),
    inner=st.sampled_from(INNER_SOLVERS),
    restart=st.sampled_from([None, 2]),
)
def test_folded_solve_matches_full_solve(seed, shape, empty, sparse, kind, inner, restart):
    n, extra_p, q = shape
    core = il.generate_random_problem(n + extra_p, q, n, seed=seed)
    prob = with_empty_rows(core, *empty, seed, sparse)
    config = FgmresConfig(1e-10, 300, restart=restart)
    (xf, rf, cf), (xu, ru, cu) = solve_both(prob, kind, inner, config=config)
    assert rf.iterations == ru.iterations
    assert cf == cu
    assert rf.converged == ru.converged and rf.resumptions == ru.resumptions
    assert len(rf.res_history) == rf.iterations + 1 and rf.res_history[-1] == rf.final_res
    assert abs(rf.final_res - ru.final_res) <= 1e-12
    np.testing.assert_allclose(xf, xu, rtol=0, atol=1e-9 * np.linalg.norm(xu))


def test_folded_solve_uses_short_vectors(applied):
    # The paper's augmentation: A2 = s I with q > n leaves q - n empty rows,
    # which fold to one; A1 has no empty row.  The twin's steps are paired
    # steps; the wrapped operator's solve applies the preconditioner.
    rng = np.random.default_rng(5)
    core = il.SparseMatrixCsr.from_triplets(
        30, 30, np.arange(30), np.arange(30), rng.uniform(1.0, 2.0, 30)
    )
    prob = il.generate_augmented_problem(core, 200, 0.5)
    (xf, rf, _), (xu, ru, _) = solve_both(prob, "ibs2", "cg")
    folded_calls = rf.iterations
    assert applied.paired == [30 + 30 + 30 + 1] * folded_calls
    assert set(applied.lengths[folded_calls:]) == {prob.size}
    assert rf.iterations == ru.iterations and rf.converged
    assert len(xf) == prob.size
    np.testing.assert_allclose(xf, xu, rtol=0, atol=1e-12 * np.linalg.norm(xu))


def test_one_empty_row_per_block_does_not_fold(applied):
    # Full-length paired steps on the block operator, full-length applies
    # on the wrapped one; the two products of a step round differently.
    prob = with_empty_rows(il.generate_random_problem(6, 4, 3, seed=2), 1, 1, 2, sparse=True)
    (xf, rf, cf), (xu, ru, cu) = solve_both(prob, "ibs4", "cg")
    assert set(applied.lengths) == {prob.size}
    assert applied.paired == [prob.size] * rf.iterations
    assert cf == cu and rf.iterations == ru.iterations
    assert abs(rf.final_res - ru.final_res) <= 1e-12
    np.testing.assert_allclose(xf, xu, rtol=0, atol=1e-9 * np.linalg.norm(xu))


@pytest.mark.parametrize("kind, paired", [("ibs4", True), ("bs2", False), ("none", False)])
def test_empty_rows_of_a1_alone_do_not_fold(applied, kind, paired):
    # Three empty rows in A1, none in A2: no twin.  Every step on the block
    # operator is the step (z, A z) at full length.  Where A z comes from
    # the splitting, its products round unlike apply followed by the block
    # product; where it does not, the step is that apply and block product,
    # and gives the wrapped operator's solve bit for bit.
    prob = with_empty_rows(il.generate_random_problem(6, 4, 3, seed=6), 3, 0, 6, sparse=True)
    assert _fold(prob) is None
    (xf, rf, cf), (xu, ru, cu) = solve_both(prob, kind, "cg")
    assert set(applied.lengths) == {prob.size}
    assert rf.converged and cf == cu and rf.iterations == ru.iterations
    assert make_preconditioner(kind, prob).paired == paired
    assert applied.paired == [prob.size] * rf.iterations
    if paired:
        np.testing.assert_allclose(xf, xu, rtol=0, atol=1e-9 * np.linalg.norm(xu))
    else:
        assert np.array_equal(xf, xu) and np.array_equal(rf.res_history, ru.res_history)


@pytest.mark.parametrize("sparse", [False, True])
def test_twin_drops_interleaved_empty_rows_of_a2(sparse):
    # Five empty rows of A2 among its four others, and two of A1, which
    # the twin keeps.
    core = il.generate_random_problem(5, 4, 3, seed=9)
    a1 = np.insert(densify(core.a1), [1, 1], 0.0, axis=0)
    a2 = np.insert(densify(core.a2), [0, 1, 2, 2, 3], 0.0, axis=0)
    rng = np.random.default_rng(9)
    blocks = [csr(a) if sparse else a for a in (a1, a2)]
    prob = IlsProblem(*blocks, rng.standard_normal(len(a1)), rng.standard_normal(len(a2)), core.alpha)
    twin, empty = _fold(prob)
    assert np.flatnonzero(empty).tolist() == [0, 2, 4, 5, 7]
    assert twin.size == prob.p + prob.n + (prob.q - 5) + 1
    assert twin.a1 is prob.a1 and twin.b1 is prob.b1
    assert np.array_equal(densify(twin.a2), np.vstack([a2[~empty], np.zeros((1, prob.n))]))
    assert np.array_equal(twin.b2, np.append(prob.b2[~empty], np.linalg.norm(prob.b2[empty])))


def test_fold_is_built_once_per_problem(monkeypatch):
    builds = []
    build = preconditioners_module._build_fold
    monkeypatch.setattr(preconditioners_module, "_build_fold", lambda prob: builds.append(prob) or build(prob))
    prob = with_empty_rows(il.generate_random_problem(5, 4, 3, seed=10), 0, 3, 10, sparse=True)
    for _ in range(2):
        x, rep = fgmres_solve(block_system_operator(prob), make_preconditioner("ibs2", prob), build_rhs(prob))
        assert rep.converged
    assert _fold(prob) is _fold(prob) and len(builds) == 1 and builds[0] is prob
    copy = dataclasses.replace(prob)
    assert _fold(copy) is not _fold(prob) and len(builds) == 2 and builds[1] is copy


def test_other_operators_take_the_full_path(applied):
    # Same size, equal blocks, but another problem: no fold, no paired step.
    prob = with_empty_rows(il.generate_random_problem(5, 3, 3, seed=4), 3, 4, 4, sparse=False)
    other = IlsProblem(prob.a1, prob.a2, prob.b1, prob.b2, prob.alpha)
    pre = make_preconditioner("ibs1", prob, inner="cholesky")
    x, rep = fgmres_solve(block_system_operator(other), pre, build_rhs(prob), config=CONFIG)
    assert set(applied.lengths) == {prob.size} and not applied.paired
    (xu, ru, _) = solve_both(prob, "ibs1", "cholesky")[1]
    assert np.array_equal(x, xu) and rep.iterations == ru.iterations


@pytest.mark.parametrize("kind", ["ibs2", "but", "none"])
@pytest.mark.parametrize("pass_through", ["arbitrary", "zero"])
def test_any_rhs_is_solved_exactly(rng, kind, pass_through):
    # The fold direction comes from the rhs passed in, so a pass-through
    # part unlike build_rhs's, or a zero one, is still solved exactly:
    # the empty rows' unknowns equal their rhs entries.
    prob = with_empty_rows(il.generate_random_problem(6, 4, 4, seed=8), 3, 5, 8, sparse=True)
    rhs = rng.standard_normal(prob.size)
    empty = np.concatenate([
        np.flatnonzero(~densify(prob.a1).any(axis=1)),
        prob.p + prob.n + np.flatnonzero(~densify(prob.a2).any(axis=1)),
    ])
    if pass_through == "zero":
        rhs[empty] = 0.0
    (x, rep, _), (xu, ru, _) = solve_both(prob, kind, "cholesky", rhs=rhs)
    assert rep.converged and rep.iterations == ru.iterations
    assert true_residual(prob, x, rhs) < 1e-10
    np.testing.assert_allclose(x[empty], rhs[empty], rtol=0, atol=1e-12 * np.linalg.norm(rhs))
    if pass_through == "zero":
        assert np.all(x[empty] == 0.0)


@pytest.mark.parametrize("restart", [None, 2])
def test_final_res_is_the_full_systems_residual(restart):
    prob = with_empty_rows(il.generate_random_problem(8, 5, 4, seed=3), 4, 6, 3, sparse=True)
    rhs = build_rhs(prob)
    pre = make_preconditioner("ibs3", prob, inner="cg")
    x, rep = fgmres_solve(block_system_operator(prob), pre, rhs, config=FgmresConfig(1e-10, 300, restart))
    assert len(x) == prob.size
    assert rep.converged and len(rep.res_history) == rep.iterations + 1
    assert rep.res_history[-1] == rep.final_res
    assert abs(rep.final_res - true_residual(prob, x, rhs)) <= 1e-14


@pytest.mark.parametrize("restart", [None, 1, 2, 5])
@pytest.mark.parametrize("inner", INNER_SOLVERS)
@pytest.mark.parametrize("kind", il.VARIANTS)
@pytest.mark.parametrize("folds", [False, True])
@settings(max_examples=2, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), shape=st.tuples(st.integers(2, 6), st.integers(0, 3), st.integers(1, 6)))
@example(seed=11, shape=(4, 3, 5))
def test_block_solve_report_contract(folds, kind, inner, restart, seed, shape):
    # Every report of the block solve, folded or not, paired or not, and
    # of the generic solve on the wrapped operator, describes the iterate
    # it returns, on random desk problems; a converged solve's last
    # confirmation is of that iterate.  The cap of 12 iterations leaves
    # about half of these solves unconverged.
    n, extra_p, q = shape
    prob = il.generate_random_problem(n + extra_p, q, n, seed=seed)
    if folds:
        prob = with_empty_rows(prob, 2, 3, seed, sparse=True)
    rhs = build_rhs(prob)
    pre = make_preconditioner(kind, prob, inner=inner, inner_config=CgConfig(1e-3, 1000))
    config = FgmresConfig(1e-10, 12, restart=restart)
    for op in (block_system_operator(prob), unfolded(prob)):
        x, rep = fgmres_solve(op, pre, rhs, config=config)
        assert len(rep.res_history) == rep.iterations + 1
        assert rep.res_history[-1] == rep.final_res
        assert abs(rep.final_res - true_residual(prob, x, rhs)) <= 1e-12
        assert rep.converged == (rep.final_res < config.rel_tolerance)
        if rep.converged:
            assert rep.confirmations[-1][2] == rep.final_res


def test_folded_report_history_is_read_only():
    # The lifted report's history is built anew; like the loop's, it
    # cannot be written.
    prob = with_empty_rows(il.generate_random_problem(8, 5, 4, seed=3), 0, 6, 3, sparse=True)
    assert _fold(prob) is not None
    _, rep = fgmres_solve(block_system_operator(prob), make_preconditioner("ibs1", prob), build_rhs(prob))
    with pytest.raises(ValueError, match="read-only"):
        rep.res_history[-1] = 5.0
    assert rep.res_history[-1] == rep.final_res


def test_a_write_to_b2_after_a_folded_solve_leaves_the_twin_right():
    # The problem keeps a read-only copy of the caller's b2, so the twin
    # that the first solve kept agrees with its problem after the write.
    base = with_empty_rows(il.generate_random_problem(8, 5, 4, seed=3), 0, 6, 3, sparse=True)
    b2 = np.array(base.b2)
    prob = IlsProblem(base.a1, base.a2, base.b1, b2, base.alpha)
    pre = make_preconditioner("ibs2", prob)
    first, _ = fgmres_solve(block_system_operator(prob), pre, build_rhs(prob))
    b2 *= 3.0
    twin, empty = _fold(prob)
    fresh, fresh_empty = preconditioners_module._build_fold(prob)
    assert np.array_equal(twin.b2, fresh.b2) and np.array_equal(empty, fresh_empty)
    again, _ = fgmres_solve(block_system_operator(prob), pre, build_rhs(prob))
    assert np.array_equal(again, first)


def test_resumption_count_survives_the_fold(monkeypatch):
    # A zero first direction breaks the first cycle down unconfirmed, so
    # the solve resumes once, on the twin (paired steps) as on the full
    # system (applies).
    prob = with_empty_rows(il.generate_random_problem(8, 5, 4, seed=3), 4, 6, 3, sparse=True)
    body, calls = Preconditioner._apply, []

    def zero_first(self, prob, r, paired=False):
        calls.append(("paired" if paired else "apply", len(r)))
        if len(calls) > 1:
            return body(self, prob, r, paired)
        return (np.zeros_like(r),) * 2 if paired else np.zeros_like(r)

    monkeypatch.setattr(Preconditioner, "_apply", zero_first)
    first_calls = []
    for op in (block_system_operator(prob), unfolded(prob)):
        calls.clear()
        x, rep = fgmres_solve(op, make_preconditioner("ibs2", prob), build_rhs(prob), config=CONFIG)
        first_calls.append(calls[0])
        assert rep.converged and rep.resumptions == 1
        assert sum(note.endswith("resuming") for note in rep.notes) == 1
    (twin_how, twin_length), (full_how, full_length) = first_calls
    assert (twin_how, full_how) == ("paired", "apply")
    first_lengths = [twin_length, full_length]
    assert first_lengths[0] < first_lengths[1] == prob.size


def test_solved_problem_is_freed_without_the_cycle_collector():
    # The fold is cached on the problem; a cache that referred back to it
    # would leave every solved problem for the cycle collector.
    core = il.SparseMatrixCsr.from_triplets(4, 4, np.arange(4), np.arange(4), np.ones(4) * 2.0)
    gc.collect()
    gc.disable()
    try:
        prob = il.generate_augmented_problem(core, 12, 0.5)
        pre = make_preconditioner("ibs4", prob, inner="cholesky")
        x, rep = fgmres_solve(block_system_operator(prob), pre, build_rhs(prob))
        assert rep.converged
        # Nor may a preconditioner refer to itself through its inner solve.
        inexact = make_preconditioner("ibs4", prob)
        assert fgmres_solve(block_system_operator(prob), inexact, build_rhs(prob))[1].converged
        ref = weakref.ref(prob)
        del prob, pre, inexact
        assert ref() is None
    finally:
        gc.enable()
