"""Dense symmetric kernels: Cholesky factorization and triangular solves.

The factorization runs on LAPACK through ``np.linalg.cholesky`` and
doubles as the positive-definiteness test used by the convergence-condition
checks, so on failure it reports the failing elimination step instead of a
bare exception.  The triangular solves are blocked substitutions: one
matrix-vector (or matrix-matrix) update per row block plus a small dense
solve on its diagonal block, so no inverse of the factor is ever stored.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotSpdError

__all__ = ["dense_cholesky", "cholesky_solve", "is_spd", "one_norm_dense"]

_EPS = float(np.finfo(np.float64).eps)

# Largest max|a - a'| accepted as symmetric, relative to max|a|.
_SYMMETRY_TOL = 1e-12

# Row-block width of the triangular solves.  Each block costs one BLAS
# update and one LU solve of this size; 32 was fastest at n = 1000.
_BLOCK = 32


def dense_cholesky(m: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive definite matrix as L L' and return the
    lower-triangular L.

    Raises ValueError for a non-square, non-finite or unsymmetric input,
    and NotSpdError with the elimination step when a pivot is non-positive
    or falls below n*eps*max|diag| (the rounding guard that keeps
    semidefinite inputs from slipping through as definite).
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    # max|a| without an n x n temporary; a NaN entry makes it NaN.
    scale = max(float(a.max()), -float(a.min()))
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if _max_asymmetry(a) > _SYMMETRY_TOL * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric to the required tolerance")
    pivot_floor = n * _EPS * float(np.abs(np.diagonal(a)).max())
    lower = _leading_factor(a, n, pivot_floor)
    if lower is None:
        raise _pivot_failure(a, pivot_floor)
    return lower


def _max_asymmetry(a: np.ndarray) -> float:
    """max|a - a'|, with a single n x n temporary."""
    d = a - a.T
    return float(np.abs(d, out=d).max())


def _leading_factor(a: np.ndarray, k: int, pivot_floor: float) -> np.ndarray | None:
    """Cholesky factor of the leading k x k block of a, or None when a
    pivot is non-positive or at or below the floor."""
    try:
        lower = np.linalg.cholesky(a[:k, :k])
    except np.linalg.LinAlgError:
        return None
    return None if (np.diagonal(lower) ** 2 <= pivot_floor).any() else lower


def _pivot_failure(a: np.ndarray, pivot_floor: float) -> NotSpdError:
    """The NotSpdError of a matrix whose factorization failed: bisect for
    the largest leading block that still factors above the floor; the
    failing step is the next one and its pivot the Schur complement."""
    good, bad = 0, a.shape[0]
    while bad - good > 1:
        mid = (good + bad) // 2
        if _leading_factor(a, mid, pivot_floor) is None:
            bad = mid
        else:
            good = mid
    pivot = float(a[good, good])
    if good:
        w = solve_lower(_leading_factor(a, good, pivot_floor), a[:good, good])
        pivot -= float(w @ w)
    return NotSpdError(good, pivot, pivot_floor)


def cholesky_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M z = rhs given the Cholesky factor L of M = L L'."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != lower.shape[0]:
        raise ValueError(f"right-hand side has length {rhs.shape[0]}, expected {lower.shape[0]}")
    return solve_lower_transpose(lower, solve_lower(lower, rhs))


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution for L y = b (b may be a matrix of columns)."""
    n = lower.shape[0]
    y = np.array(b, dtype=np.float64)
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        if i:
            y[i:j] -= lower[i:j, :i] @ y[:i]
        y[i:j] = np.linalg.solve(lower[i:j, i:j], y[i:j])
    return y


def solve_lower_transpose(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back substitution for L' z = b (b may be a matrix of columns)."""
    n = lower.shape[0]
    z = np.array(b, dtype=np.float64)
    for i in reversed(range(0, n, _BLOCK)):
        j = min(i + _BLOCK, n)
        if j < n:
            z[i:j] -= lower[j:, i:j].T @ z[j:]
        z[i:j] = np.linalg.solve(lower[i:j, i:j].T, z[i:j])
    return z


def is_spd(m: np.ndarray) -> bool:
    """Positive-definiteness via attempted factorization."""
    try:
        dense_cholesky(m)
    except NotSpdError:
        return False
    return True


def one_norm_dense(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=0).max())
