"""``ilsolve.solve(prob, kind, ...)``, the block solve's entry point: it
computes what ``fgmres_solve`` computes on ``block_system_operator(prob)``
with the preconditioner ``make_preconditioner`` builds from the same
arguments, bit for bit, and its report carries each outer step's inner
count, from which the report's inner totals are derived."""

import numpy as np
import pytest

import ilsolve as il
from ilsolve import (
    VARIANTS,
    CgConfig,
    FgmresConfig,
    SolveReport,
    block_system_operator,
    build_rhs,
    fgmres_solve,
    make_preconditioner,
    solve,
)
from ilsolve.preconditioners import _fold

from conftest import random_desk_problem

CONFIG = FgmresConfig(1e-10, 300)
INNER_CONFIG = {"cg": CgConfig(1e-3, 1000), "cholesky": None}


def folded_csr_problem():
    """A CSR A1 (12 x 8, full column rank) and A2 = 0.3 I_{11 x 8}, whose
    three empty rows fold."""
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((12, 8)) * (rng.random((12, 8)) < 0.5)
    dense[:8] += 3.0 * np.eye(8)
    i, j = np.nonzero(dense)
    core = il.SparseMatrixCsr.from_triplets(12, 8, i, j, dense[i, j])
    return il.generate_augmented_problem(core, q=11, scale=0.3)


PROBLEMS = {"csr-fold": folded_csr_problem, "dense": lambda: random_desk_problem(3)}


def both_routes(prob, kind, inner):
    """(x, report) of ``solve``, and (x, report, (inner iterations, inner
    failures)) of the fgmres_solve route, counters read after it."""
    ours = solve(prob, kind, inner, INNER_CONFIG[inner], CONFIG)
    pre = make_preconditioner(kind, prob, inner, INNER_CONFIG[inner])
    x, report = fgmres_solve(block_system_operator(prob), pre, build_rhs(prob), CONFIG)
    return ours, (x, report, (pre.inner_iterations, pre.inner_failures))


def test_the_csr_problem_folds_and_the_dense_one_has_a_dense_a1():
    assert _fold(PROBLEMS["csr-fold"]()) is not None
    assert isinstance(PROBLEMS["dense"]().a1, np.ndarray)


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("inner", ["cg", "cholesky"])
@pytest.mark.parametrize("kind", VARIANTS)
def test_solve_is_the_fgmres_route_bit_for_bit(problem, inner, kind):
    prob = PROBLEMS[problem]()
    (x, report), (x_ref, ref, counters) = both_routes(prob, kind, inner)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(report.res_history, ref.res_history)
    assert report.confirmations == ref.confirmations
    assert report.notes == ref.notes
    assert report.resumptions == ref.resumptions
    assert report.converged == ref.converged
    # The report's totals are what the counters add up on the other route.
    assert (report.inner_iterations, report.inner_failures) == counters


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("inner", ["cg", "cholesky"])
@pytest.mark.parametrize("kind", VARIANTS)
def test_the_report_has_one_inner_entry_per_outer_step(problem, inner, kind):
    prob = PROBLEMS[problem]()
    _, report = solve(prob, kind, inner, INNER_CONFIG[inner], CONFIG)
    assert report.iterations > 0
    if kind == "none":
        assert report.inner == ()
        assert (report.inner_iterations, report.inner_failures) == (0, 0)
        return
    assert len(report.inner) == report.iterations
    for iterations, converged in report.inner:
        assert type(iterations) is int and type(converged) is bool
    if inner == "cholesky":  # exact: no iterations, no failures
        assert set(report.inner) == {(0, True)}
    else:
        assert all(iterations > 0 for iterations, _ in report.inner)


def test_a_capped_inner_solve_fails_at_every_outer_step():
    prob = random_desk_problem(5)
    _, report = solve(prob, "ibs2", "cg", CgConfig(1e-13, 1), FgmresConfig(1e-10, 60))
    assert report.iterations > 0
    assert report.inner_failures == report.iterations
    assert report.inner == ((1, False),) * report.iterations


def test_a_zero_right_hand_side_takes_no_step():
    prob = random_desk_problem(2)
    zero = il.IlsProblem(prob.a1, prob.a2, np.zeros(prob.p), np.zeros(prob.q), prob.alpha)
    x, report = solve(zero, "ibs1")
    assert not x.any() and report.converged and report.inner == ()


def test_cholesky_with_an_inner_config_is_refused():
    prob = random_desk_problem(1)
    with pytest.raises(ValueError, match="^inner_config does not apply to inner = cholesky$"):
        solve(prob, "ibs2", "cholesky", CgConfig())
    # make_preconditioner stays lenient: it reads no inner_config for cholesky.
    assert make_preconditioner("ibs2", prob, "cholesky", CgConfig()).linear


def test_a_right_hand_side_whose_norm_overflows_is_refused_as_by_fgmres_solve():
    # A1'b1 is finite, but the 2-norm of the block right-hand side is not.
    prob = il.IlsProblem(1e160 * np.eye(3), np.eye(2, 3), np.ones(3), np.ones(2), 0.5)
    with pytest.raises(ValueError, match="^rhs is not finite or too large"):
        fgmres_solve(block_system_operator(prob), make_preconditioner("ibs2", prob), build_rhs(prob))
    with pytest.raises(ValueError, match="^rhs is not finite or too large"):
        solve(prob, "ibs2")


def test_defaults_are_those_of_make_preconditioner_and_fgmres_config():
    prob = random_desk_problem(4)
    x, report = solve(prob, "ibs4")
    pre = make_preconditioner("ibs4", prob)
    x_ref, ref = fgmres_solve(block_system_operator(prob), pre, build_rhs(prob))
    assert np.array_equal(x, x_ref) and np.array_equal(report.res_history, ref.res_history)
    assert report.inner_iterations == pre.inner_iterations


def test_unknown_kind_and_inner_solver_are_refused():
    prob = random_desk_problem(1)
    with pytest.raises(ValueError, match="unknown preconditioner kind"):
        solve(prob, "ibs7")
    with pytest.raises(ValueError, match="unknown inner solver mode"):
        solve(prob, "ibs2", "lu")


def test_a_report_derives_its_inner_totals():
    report = SolveReport(0.0, [1.0, 0.5, 0.1], True, inner=((3, True), (5, False)))
    assert (report.inner_iterations, report.inner_failures) == (8, 1)
    empty = SolveReport(0.0, [1.0], True)
    assert (empty.inner, empty.inner_iterations, empty.inner_failures) == ((), 0, 0)
