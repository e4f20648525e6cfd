"""Dense symmetric kernels: Cholesky factorization and triangular solves.

The factorization runs on LAPACK through ``np.linalg.cholesky`` and on
failure reports the failing elimination step; ``is_spd``, the test of the
convergence-condition checks, makes the same attempt without that search.
numpy has no triangular solve, so the triangular solves are blocked
sweeps: per row block one BLAS update from the blocks already solved and
one product with the inverse of its diagonal block.  Those inverses come
from one batched LAPACK inversion per factor; the factor itself is never
inverted.  Inverting only small diagonal blocks keeps the accuracy of
substitution in practice (Du Croz and Higham, IMA J. Numer. Anal. 12,
1992).  A caller that applies one factor many times computes the inverses
once (ilsolve.preconditioners._inner_factor keeps them beside the factor
in the problem's one cache, IlsProblem._shared); any other call computes
them itself.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotSpdError

__all__ = ["dense_cholesky", "cholesky_solve", "is_spd"]

_EPS = float(np.finfo(np.float64).eps)

# Largest max|a - a'| accepted as symmetric, relative to max|a|.
_SYMMETRY_TOL = 1e-12

# Row-block width of the triangular sweeps.  Each block costs one BLAS
# update and one product with its inverse.  At n = 1000 a solve took about
# 0.5 ms at every width from 48 to 160 (1.8 ms with a per-block LU solve
# at width 32), while inverting the blocks took 1.7 ms at 64, 5.5 ms at 128.
_BLOCK = 64


def dense_cholesky(m: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive definite matrix as L L' and return the
    lower-triangular L.

    Raises ValueError for a non-square, non-finite or unsymmetric input,
    and NotSpdError with the elimination step when a pivot is non-positive
    or falls below n*eps*max|diag| (the rounding guard that keeps
    semidefinite inputs from slipping through as definite).
    """
    a, pivot_floor, lower = _attempt(m)
    if lower is None:
        raise _pivot_failure(a, pivot_floor)
    return lower


def _attempt(m: np.ndarray) -> tuple[np.ndarray, float, np.ndarray | None]:
    """One attempted factorization of m, after dense_cholesky's input
    checks: m as a float array, its pivot floor, and its Cholesky factor,
    or None when a pivot is non-positive or at or below the floor."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 0:
        return a, 0.0, np.zeros((0, 0))
    # max|a| without an n x n temporary; a NaN entry makes it NaN.
    scale = max(float(a.max()), -float(a.min()))
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if _max_asymmetry(a) > _SYMMETRY_TOL * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric to the required tolerance")
    pivot_floor = n * _EPS * float(np.abs(np.diagonal(a)).max())
    return a, pivot_floor, _leading_factor(a, n, pivot_floor)


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


def cholesky_solve(
    lower: np.ndarray, rhs: np.ndarray, inverses: np.ndarray | None = None
) -> np.ndarray:
    """Solve M z = rhs given the Cholesky factor L of M = L L'.

    ``inverses`` are the inverses of L's diagonal blocks, as
    ``_block_inverses(lower)`` returns them; without them they are
    computed on the call.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != lower.shape[0]:
        raise ValueError(f"right-hand side has length {rhs.shape[0]}, expected {lower.shape[0]}")
    if inverses is None:
        inverses = _block_inverses(lower)
    return solve_lower_transpose(lower, solve_lower(lower, rhs, inverses), inverses)


def _block_inverses(lower: np.ndarray) -> np.ndarray:
    """Inverses of the diagonal blocks of width min(_BLOCK, n) of a lower
    triangular L, stacked as a (blocks, width, width) array.  A narrower
    last block is padded with the identity, so one batched inversion
    serves every block."""
    n = lower.shape[0]
    width = max(min(_BLOCK, n), 1)
    blocks = np.tile(np.eye(width), (-(-n // width), 1, 1))
    for k in range(len(blocks)):
        i, j = k * width, min((k + 1) * width, n)
        blocks[k, : j - i, : j - i] = lower[i:j, i:j]
    return np.linalg.inv(blocks)


def solve_lower(lower: np.ndarray, b: np.ndarray, inverses: np.ndarray | None = None) -> np.ndarray:
    """Forward substitution for L y = b (b may be a matrix of columns);
    ``inverses`` as for cholesky_solve."""
    if inverses is None:
        inverses = _block_inverses(lower)
    n, width = lower.shape[0], inverses.shape[-1]
    y = np.array(b, dtype=np.float64)
    for k in range(len(inverses)):
        i, j = k * width, min((k + 1) * width, n)
        if i:
            y[i:j] -= lower[i:j, :i] @ y[:i]
        y[i:j] = inverses[k, : j - i, : j - i] @ y[i:j]
    return y


def solve_lower_transpose(
    lower: np.ndarray, b: np.ndarray, inverses: np.ndarray | None = None
) -> np.ndarray:
    """Back substitution for L' z = b (b may be a matrix of columns);
    ``inverses`` as for cholesky_solve."""
    if inverses is None:
        inverses = _block_inverses(lower)
    n, width = lower.shape[0], inverses.shape[-1]
    z = np.array(b, dtype=np.float64)
    for k in reversed(range(len(inverses))):
        i, j = k * width, min((k + 1) * width, n)
        if j < n:
            z[i:j] -= lower[j:, i:j].T @ z[j:]
        z[i:j] = inverses[k, : j - i, : j - i].T @ z[i:j]
    return z


def is_spd(m: np.ndarray) -> bool:
    """Positive-definiteness via one attempt of dense_cholesky's factorization."""
    return _attempt(m)[2] is not None

