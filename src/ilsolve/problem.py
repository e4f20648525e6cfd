"""The partitioned indefinite-least-squares problem and its block system.

An instance minimizes (b - Ax)' H (b - Ax) with H = diag(I_p, -I_q); the
rows of A split into A1 (the +I_p part, full column rank) and A2.  Solvers
work on the equivalent square system

    [ I    A1   0  ] [ d1 ]   [ b1     ]
    [ 0  A1'A1 A2' ] [ x  ] = [ A1'b1  ]
    [ 0    A2   I  ] [ d2 ]   [ b2     ]

whose operator is applied matrix-free throughout: the Gram matrix A1'A1
is never formed outside the dense desk-scale helpers and the reference
solution.  The blocks A1 and A2 are plain matrices, CSR or 2-D float64
ndarray; both kinds give A x as ``A @ x`` and A'y as ``y @ A``.  The Gram
product A1'(A1 x) of the block operator and of the inner CG runs the CSR
kernel sparse._product twice on a CSR A1's arrays; a dense A1 is swept
once by row panels of about 512 KiB, each panel giving its rows of A1 x
and its term of A1'(A1 x) while still in cache (a small A1 is one panel,
which gives exactly ``(A1 @ x) @ A1``).  Vectors of the block system are
flat float64 arrays of length p + n + q, and ``prob.split(v)`` gives their
(d1, x, d2) blocks as views; both it and ``apply_block_A`` also take a
(p + n + q, k) block of columns.  Every solve starts from the zero vector.
A problem's data is read-only, and so is the one cache of data derived
from it, ``IlsProblem._shared``: ilsolve.preconditioners keeps the exact
inner factors there (by shift), the Gram norm bound and the fold of A2's
empty rows, and ilsolve.analysis its decompositions (by name).

Inputs are checked once, at the public entry points (IlsProblem, split,
spmv, the applies, the solvers): shape, dtype (complex input is a
TypeError naming it) and, for data and right-hand sides, finiteness.  The
private loops (the Gram product, inner CG, FGMRES, the paired step) trust them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dense import cholesky_solve, dense_cholesky
from .exceptions import (
    ConfigurationError,
    DegenerateMatrixError,
    DegenerateProblemError,
    NotSpdError,
    ProblemAssumptionError,
)
from .operators import LinearOperator, as_matrix
from . import sparse
from .sparse import SparseMatrixCsr, _check_block, _count, _read_only, _real, one_norm

__all__ = [
    "IlsProblem",
    "partition_problem",
    "compute_alpha",
    "apply_block_A",
    "build_rhs",
    "block_system_operator",
    "densify",
    "dense_blocks",
    "reference_solution",
]


@dataclass(frozen=True, eq=False)
class IlsProblem:
    """One partitioned problem: A1 (p x n), A2 (q x n), split right-hand
    side, and the diagonal shift used by the inexact preconditioners.

    p, q and n are read from the block shapes.  A CSR block is kept as
    such, any other as a 2-D float64 ndarray.  Blocks and right-hand side
    must be real and finite; they are read-only, copied once where the
    caller can still write them (sparse._read_only), so no later write
    reaches the problem or its cache.  It equals only itself, hashing by identity.
    """

    a1: SparseMatrixCsr | np.ndarray
    a2: SparseMatrixCsr | np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    alpha: float
    p: int = field(init=False)
    q: int = field(init=False)
    n: int = field(init=False)
    # Rows per panel of _gram_sweep over a dense A1; 0 for a CSR A1.
    _panel: int = field(init=False, repr=False)
    # Read-only derived data, kept by _shared under a name or a shift.
    _factors: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "b1", _read_only(_real(self.b1, "b1")))
        object.__setattr__(self, "b2", _read_only(_real(self.b2, "b2")))
        for name in ("a1", "a2"):
            block = _read_only(as_matrix(getattr(self, name), name.upper()))
            entries = block.values if isinstance(block, SparseMatrixCsr) else block
            if not np.isfinite(entries).all():
                raise ValueError(f"{name.upper()} has non-finite entries")
            object.__setattr__(self, name, block)
        (p, n), (q, n2) = self.a1.shape, self.a2.shape
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        if p < 1 or q < 1:
            raise DegenerateProblemError(
                "p and q must both be positive; an empty block reduces the "
                "problem to an ordinary least squares problem"
            )
        if n < 1:
            raise DegenerateProblemError("n must be positive; the problem has no unknowns")
        if n2 != n:
            raise ValueError(f"A1 has {n} columns but A2 has {n2}")
        if self.b1.shape != (p,) or self.b2.shape != (q,):
            raise ValueError("right-hand side blocks do not match (p, q)")
        if not (np.isfinite(self.b1).all() and np.isfinite(self.b2).all()):
            raise ValueError("right-hand side has non-finite entries")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")
        csr = isinstance(self.a1, SparseMatrixCsr)
        object.__setattr__(self, "_panel", 0 if csr else max(_PANEL_BYTES // (n * self.a1.itemsize), 1))

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def size(self) -> int:
        return self.p + self.n + self.q

    def label(self) -> str:
        return f"{self.m}x{self.n}"

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (d1, x, d2) blocks of a length p + n + q vector, or row blocks
        of a (p + n + q, k) block, as views of its float64 form."""
        v = _real(v, "vector")
        if v.shape != (self.size,):
            _check_block(v, self.size, "vector")
        return v[: self.p], v[self.p : self.p + self.n], v[self.p + self.n :]

    def _shared(self, key, compute):
        """compute()'s value, its ndarray parts read-only, kept under ``key`` (a
        name or a shift); one that warned is not kept, so each call warns."""
        if key not in self._factors:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = compute()
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if caught:
                return value
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self._factors[key] = value
        return self._factors[key]


def partition_problem(a, b: np.ndarray, p: int, q: int) -> IlsProblem:
    """Split an m x n matrix (CSR or dense, as IlsProblem takes its blocks)
    and length-m vector into the (A1, A2, b1, b2) blocks, with A1 the first p
    rows and the default shift from A1."""
    a, b = as_matrix(a, "A"), _real(b, "b")
    for name, value in (("p", p), ("q", q)):
        _count(name, value, 0)
    m = a.shape[0]
    if p + q != m:
        raise ValueError(f"p + q = {p + q} does not match the {m} rows of A")
    if b.shape != (m,):
        raise ValueError("right-hand side length does not match A")
    if p == 0 or q == 0:
        raise DegenerateProblemError(
            "p and q must both be positive; an empty block reduces the "
            "problem to an ordinary least squares problem"
        )
    csr = isinstance(a, SparseMatrixCsr)
    a1, a2 = (a.row_slice(0, p), a.row_slice(p, m)) if csr else (a[:p], a[p:])
    return IlsProblem(a1, a2, b[:p], b[p:], compute_alpha(a1))


def compute_alpha(a1) -> float:
    """Default diagonal shift: the squared 1-norm of A1."""
    if isinstance(a1, SparseMatrixCsr):
        norm = one_norm(a1)
    else:
        norm = float(np.linalg.norm(np.asarray(a1, dtype=np.float64), 1))
    if norm == 0.0:
        raise DegenerateMatrixError("cannot derive a shift from an all-zero matrix")
    return norm * norm


# Bytes of A1 per row panel of the Gram sweep, so that a panel stays in a
# 2 MiB L2 cache between its two products.  At n = 1000, with one BLAS
# thread on a Xeon with 2 MiB of L2 per core, panels of 256 KiB to 2 MiB
# all beat reading A1 twice, and 512 KiB and 1 MiB did best.
_PANEL_BYTES = 512 * 1024


def _gram_sweep(a1: np.ndarray, x: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(A1 x, A1'(A1 x)) for a dense A1 in one pass over its panels of
    ``rows`` rows, which are views.  Each panel's rows of A1 x are
    computed into place and its term of A1'(A1 x) added at once, while
    the panel is still in cache; one panel gives ``(A1 @ x) @ A1``."""
    ax = np.empty(a1.shape[0])
    gram, term = np.empty(a1.shape[1]), np.empty(a1.shape[1])
    for i in range(0, len(ax), rows):
        panel = a1[i : i + rows]
        np.dot(np.dot(panel, x, out=ax[i : i + rows]), panel, out=term if i else gram)
        if i:
            gram += term
    return ax, gram


def _gram(a1, x: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(A1 x, A1'(A1 x)) for a trusted x: by _gram_sweep on a dense A1
    (``rows`` is prob._panel), by sparse._product (looked up per call) on CSR."""
    if rows:
        return _gram_sweep(a1, x, rows)
    a1x = sparse._product(a1.values, a1.col_indices, a1._rows, x, a1.n_rows)
    return a1x, sparse._product(a1.values, a1._rows, a1.col_indices, a1x, a1.n_cols)


def apply_block_A(prob: IlsProblem, v: np.ndarray) -> np.ndarray:
    """Product of the block system matrix with a flat (d1; x; d2) vector or a
    (size, k) block; nothing is materialized, and a vector's Gram product is _gram's."""
    d1, x, d2 = prob.split(v)
    if x.ndim == 2:  # the middle rows are those of (A1 x)'A1 + d2'A2, transposed
        a1x = prob.a1 @ x
        return np.concatenate([d1 + a1x, (a1x.T @ prob.a1 + d2.T @ prob.a2).T, prob.a2 @ x + d2])
    a1x, gram = _gram(prob.a1, x, prob._panel)
    return np.concatenate([d1 + a1x, gram + d2 @ prob.a2, prob.a2 @ x + d2])


def build_rhs(prob: IlsProblem) -> np.ndarray:
    """The flat (b1; A1'b1; b2); ``prob.split`` gives its blocks.  A1'b1 may
    overflow finite data to inf; the solvers' rhs check refuses it then."""
    with np.errstate(over="ignore"):
        return np.concatenate([prob.b1, prob.b1 @ prob.a1, prob.b2])


class _BlockOperator(LinearOperator):
    """The block system of ``problem``, which fgmres_solve solves with
    the block solve of a preconditioner built on the same problem."""

    __slots__ = ("problem",)

    def __init__(self, prob: IlsProblem):
        super().__init__(prob.size, prob.size, lambda v: apply_block_A(prob, v))
        self.problem = prob


def block_system_operator(prob: IlsProblem) -> LinearOperator:
    return _BlockOperator(prob)


def _gram_pair(prob: IlsProblem, shift: float):
    """v -> (shift*v + A1'(A1 v), A1 v), both from the one Gram product of
    apply_block_A: the inner CG product of the inexact preconditioners."""
    a1, rows = prob.a1, prob._panel

    def pair(v):
        a1v, gram = _gram(a1, v, rows)
        return (shift * v + gram if shift else gram), a1v

    return pair


def densify(block) -> np.ndarray:
    """Dense form of one block; an ndarray block is returned as is (read-only)."""
    return sparse._sealed(block.to_dense()) if isinstance(block, SparseMatrixCsr) else block


def dense_blocks(prob: IlsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A1, A2) for desk-scale analysis (read-only, see densify)."""
    return densify(prob.a1), densify(prob.a2)


DENSE_MAX_N = 4000  # largest n for a dense n x n factorization


def reference_solution(prob: IlsProblem) -> tuple[np.ndarray, str]:
    """(x*, note): the solution of (A1'A1 - A2'A2) x = A1'b1 - A2'b2 for
    the ERR column, computed without the preconditioners under test.

    The reduced normal matrix is formed once and factored by Cholesky;
    when it is indefinite (several classic benchmark constructions make it
    so) an LU solve takes over and the note says so, else the note is ''.
    A singular matrix raises ProblemAssumptionError, and more than
    DENSE_MAX_N unknowns ConfigurationError.
    """
    if prob.n > DENSE_MAX_N:
        raise ConfigurationError(f"dense reference solution requested for n = {prob.n} > cap {DENSE_MAX_N}")
    rhs = prob.b1 @ prob.a1 - prob.b2 @ prob.a2
    a1d, a2d = dense_blocks(prob)
    normal = a1d.T @ a1d - a2d.T @ a2d
    try:
        return cholesky_solve(dense_cholesky(normal), rhs), ""
    except NotSpdError:
        try:
            x = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            raise ProblemAssumptionError("reduced normal matrix is singular") from None
        return x, "reduced normal matrix indefinite; reference from dense LU solve"
