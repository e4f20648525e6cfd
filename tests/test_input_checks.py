"""The public entry points check their vectors' shape and dtype, so that the
private loops behind them (inner CG, the FGMRES loop, the paired step and
the Gram pair) can trust their input.  Complex input is a TypeError naming
the argument and its dtype: a cast to float64 would keep only the real
part.  Solver and experiment settings are checked when they are built, so
that a bad one fails before any problem is built or solved."""

from types import SimpleNamespace

import numpy as np
import pytest

import ilsolve as il
from ilsolve.bench import ExperimentSpec, build_problem
from ilsolve.operators import as_matrix
from ilsolve.problem import IlsProblem, densify

from conftest import random_csr

SIZE = 4 + 3 + 5  # p + n + q of the problem below


@pytest.fixture
def prob(rng):
    return IlsProblem(random_csr(rng, 4, 3, density=0.8), rng.standard_normal((5, 3)), np.ones(4), np.ones(5), 2.0)


# name -> (call on (problem, vector), expected length, name in the dtype
# error, start of the length error)
ENTRY_POINTS = {
    "spmv": (lambda prob, v: il.spmv(prob.a1, v), 3, "operand", "operand has length"),
    "spmv_transpose": (lambda prob, v: il.spmv_transpose(prob.a1, v), 4, "operand", "operand has length"),
    "matmul": (lambda prob, v: prob.a1 @ v, 3, "operand", "operand has length"),
    "rmatmul": (lambda prob, v: v @ prob.a1, 4, "operand", "operand has length"),
    "split": (lambda prob, v: prob.split(v), SIZE, "vector", "vector has shape"),
    "preconditioner_apply": (
        lambda prob, v: il.make_preconditioner("ibs2", prob).apply(v), SIZE, "r", "vector has shape"
    ),
    "operator_apply": (
        lambda prob, v: il.block_system_operator(prob).apply(v), SIZE, "operand", "operand has shape"
    ),
    "cg_solve": (lambda prob, v: il.cg_solve(il.aslinearoperator(np.eye(3)), v), 3, "rhs", "rhs has shape"),
    "fgmres_solve_block": (
        lambda prob, v: il.fgmres_solve(il.block_system_operator(prob), il.make_preconditioner("ibs2", prob), v),
        SIZE, "rhs", "rhs has shape",
    ),
    "fgmres_solve": (
        lambda prob, v: il.fgmres_solve(il.aslinearoperator(np.eye(3)), SimpleNamespace(apply=np.copy), v),
        3, "rhs", "rhs has shape",
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_real_input_accepted(prob, entry):
    call, length, _, _ = ENTRY_POINTS[entry]
    call(prob, np.arange(1.0, length + 1))
    call(prob, list(range(1, length + 1)))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_complex_input_rejected(prob, entry):
    call, length, name, _ = ENTRY_POINTS[entry]
    # Even a zero imaginary part: the dtype decides, not the values.
    with pytest.raises(TypeError, match=f"^{name} must be real, got dtype complex128$"):
        call(prob, np.ones(length, dtype=complex))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_length_rejected(prob, entry, delta):
    call, length, _, message = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{message} \\({length + delta},\\), expected \\({length},\\)$"):
        call(prob, np.ones(length + delta))


def test_preconditioner_apply_rejects_a_wrong_length_as_split_does(prob):
    # The apply no longer reaches split through the private application;
    # it keeps split's check and message.
    v = np.ones(SIZE + 1)
    with pytest.raises(ValueError) as by_split:
        prob.split(v)
    with pytest.raises(ValueError) as by_apply:
        il.make_preconditioner("ibs3", prob).apply(v)
    assert str(by_apply.value) == str(by_split.value)


@pytest.mark.parametrize("field", ["a1", "a2", "b1", "b2"])
def test_complex_problem_data_rejected(prob, field):
    blocks = {"a1": densify(prob.a1), "a2": prob.a2, "b1": prob.b1, "b2": prob.b2}
    blocks[field] = blocks[field] + 1j
    name = field.upper() if field[0] == "a" else field
    with pytest.raises(TypeError, match=f"^{name} must be real, got dtype complex128$"):
        IlsProblem(**blocks, alpha=prob.alpha)


def test_as_matrix_names_the_argument():
    with pytest.raises(TypeError, match="^M must be real, got dtype complex64$"):
        as_matrix(np.eye(2, dtype=np.complex64), "M")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: il.CgConfig(max_iterations=2.5), "max_iterations must be an integer, got 2.5"),
        (lambda: il.CgConfig(max_iterations=True), "max_iterations must be an integer, got True"),
        (lambda: il.FgmresConfig(max_iterations=10.0), "max_iterations must be an integer, got 10.0"),
        (lambda: il.FgmresConfig(restart=2.5), "restart must be an integer, got 2.5"),
        (lambda: ExperimentSpec(problem="random", p=6, q=4, n=3, runs=1.5), "runs must be an integer, got 1.5"),
        (lambda: ExperimentSpec(problem="random", p=6.0, q=4, n=3), "p must be an integer, got 6.0"),
        (lambda: ExperimentSpec(problem="random", p=6, q=4, n=3, seed=0.5), "seed must be an integer, got 0.5"),
        (lambda: ExperimentSpec(problem="hilbert"), "n is required for problem = hilbert"),
        (lambda: ExperimentSpec(problem="random", p=6, q=4), "n is required for problem = random"),
        (lambda: ExperimentSpec(problem="matrix-market", matrix="a.mtx"), "q is required for problem = matrix-market"),
        (lambda: ExperimentSpec(problem="matrix-market", matrix="", q=3), "matrix is required for problem = matrix-market"),
        (lambda: ExperimentSpec(problem="hilbert", n=4, a2_scale=float("nan")), "a2_scale must be finite, got nan"),
        (lambda: ExperimentSpec(problem="hilbert", n=4, a2_scale=float("inf")), "a2_scale must be finite, got inf"),
    ],
)
def test_bad_setting_rejected_at_construction(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_whole_settings_of_any_integer_type_accepted():
    assert il.CgConfig(max_iterations=np.int64(5)).max_iterations == 5
    assert il.FgmresConfig(restart=np.int32(3)).restart == 3
    spec = ExperimentSpec(problem="hilbert", n=np.int64(4), runs=np.int64(2), a2_scale=0.5)
    assert build_problem(spec).n == 4


def test_missing_setting_in_a_spec_file_names_the_file(tmp_path):
    path = tmp_path / "h.spec"
    path.write_text("problem = hilbert\n")
    with pytest.raises(ValueError, match=f"^{path}: n is required for problem = hilbert$"):
        il.load_experiment_spec(path)
