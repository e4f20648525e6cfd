"""The factor of the Gram matrices the package forms itself.

dense._factor skips dense_cholesky's caller-facing scans (finite entries,
symmetry) for A1'A1, shifted, and for the reduced normal matrix.  These
tests pin the premises that make that safe: numpy's A'A is exactly
symmetric, LAPACK's Cholesky reads only the lower triangle, the skipped
path gives dense_cholesky's factor bit for bit, and its refusals stay.
"""

import warnings

import numpy as np
import pytest

from ilsolve import IlsProblem, NotSpdError, generate_hilbert_problem, make_preconditioner
from ilsolve.dense import _factor, dense_cholesky
from ilsolve.problem import densify, reference_solution

from conftest import random_csr, random_desk_problem, random_spd


def _layouts(rng):
    a = rng.standard_normal((300, 200))
    return {
        "C-ordered": a,
        "Fortran-ordered": np.asfortranarray(a),
        "row-strided": a[::2],
        "1 x n": a[:1],
        "p x 1": a[:, :1],
        "densified CSR": random_csr(rng, 120, 80, density=0.1).to_dense(),
    }


@pytest.mark.parametrize(
    "layout", ["C-ordered", "Fortran-ordered", "row-strided", "1 x n", "p x 1", "densified CSR"]
)
def test_gram_of_a_float64_block_is_exactly_symmetric(rng, layout):
    a = _layouts(rng)[layout]
    assert a.dtype == np.float64
    g = a.T @ a
    assert np.array_equal(g, g.T)


@pytest.mark.parametrize("garbage", [1e3, np.nan])
def test_cholesky_ignores_the_upper_triangle(rng, garbage):
    g = random_spd(rng, 150, cond=1e4)
    h = g.copy()
    upper = np.triu_indices(150, 1)
    h[upper] = garbage * rng.standard_normal(len(upper[0]))
    assert np.array_equal(np.linalg.cholesky(h), np.linalg.cholesky(g))
    assert np.array_equal(_factor(h), dense_cholesky(g))


def _grams():
    for i in range(10):
        prob = random_desk_problem(i)
        a1d, a2d = densify(prob.a1), densify(prob.a2)
        yield f"desk-{i}", a1d.T @ a1d, prob.alpha
        yield f"desk-{i}-normal", a1d.T @ a1d - a2d.T @ a2d, 0.0
    prob = generate_hilbert_problem(200)
    a1d = densify(prob.a1)
    yield "hilbert-200", a1d.T @ a1d, prob.alpha


def _outcome(factor, g):
    """The factor, or the failure's step, pivot and message."""
    try:
        return factor(g)
    except NotSpdError as e:
        return (e.step, e.pivot, str(e))


@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "shifted"])
def test_trusted_factor_is_dense_cholesky_bit_for_bit(shifted):
    failures = 0
    for name, g, shift in _grams():
        if shifted:
            g[np.diag_indices_from(g)] += shift
        want, got = _outcome(dense_cholesky, g), _outcome(_factor, g)
        if isinstance(want, tuple):
            failures += 1
            assert got == want, name
        else:
            assert np.array_equal(got, want), name
    # Hilbert n = 200's unshifted Gram fails, and both paths report the same step.
    assert failures == (0 if shifted else 1)


def _overflowing_problem():
    return IlsProblem(1e160 * np.eye(3), np.eye(2, 3), np.ones(3), np.ones(2), 0.5)


def test_overflowing_gram_is_refused_by_the_inner_factor():
    # numpy warns of the overflow while forming A1'A1, inside the problem's
    # cache; the warning reaches the caller before the refusal.
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ValueError, match="non-finite"):
        make_preconditioner("ibs2", _overflowing_problem(), inner="cholesky")


def test_overflow_warning_as_an_error_is_raised_by_the_inner_factor():
    # As reference_solution raises it when warnings are errors.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            make_preconditioner("ibs2", _overflowing_problem(), inner="cholesky")
        with pytest.raises(RuntimeWarning, match="overflow"):
            reference_solution(_overflowing_problem())


def test_overflowing_normal_matrix_is_refused_by_the_reference_solution():
    # numpy may warn of the overflow while forming A1'A1; the refusal is the point.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        reference_solution(_overflowing_problem())


def test_rank_deficient_unshifted_gram_reports_the_failing_step(rng):
    a1 = rng.standard_normal((8, 4))
    a1[:, 3] = a1[:, 0] + a1[:, 1]  # rank 3
    prob = IlsProblem(a1, 0.5 * np.eye(2, 4), np.ones(8), np.ones(2), 1.0)
    with pytest.raises(NotSpdError) as exc:
        make_preconditioner("bs2", prob, inner="cholesky")
    gram = a1.T @ a1
    assert exc.value.step == 3
    assert abs(exc.value.pivot) <= 4 * np.finfo(float).eps * np.diag(gram).max()
    assert "at elimination step 3" in str(exc.value)
