"""The partitioned indefinite-least-squares problem and its block system.

An instance minimizes (b - Ax)' H (b - Ax) with H = diag(I_p, -I_q); the
rows of A split into A1 (the +I_p part, full column rank) and A2.  Solvers
work on the equivalent square system

    [ I    A1   0  ] [ d1 ]   [ b1     ]
    [ 0  A1'A1 A2' ] [ x  ] = [ A1'b1  ]
    [ 0    A2   I  ] [ d2 ]   [ b2     ]

whose operator is applied matrix-free throughout: the Gram matrix A1'A1
is never formed outside the dense desk-scale helpers.  The blocks A1 and
A2 are plain matrices, CSR or 2-D float64 ndarray; both kinds give A x as
``A @ x`` and A'y as ``y @ A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dense import dense_cholesky, cholesky_solve, one_norm_dense
from .exceptions import (
    DegenerateMatrixError,
    DegenerateProblemError,
    IndefiniteOperatorError,
    NotSpdError,
    OracleFailureError,
    ProblemAssumptionError,
)
from .operators import LinearOperator, as_matrix
from .sparse import SparseMatrixCsr, one_norm

__all__ = [
    "BlockLayout",
    "BlockVector",
    "IlsProblem",
    "partition_problem",
    "compute_alpha",
    "apply_block_A",
    "build_rhs",
    "block_system_operator",
    "gram_operator",
    "shifted_gram_operator",
    "reduced_normal_operator",
    "densify",
    "dense_blocks",
    "exact_solution_oracle",
    "full_solution_from_x",
]


@dataclass(frozen=True)
class BlockLayout:
    """Index windows of the flat (d1; x; d2) vector of length p + n + q."""

    p: int
    n: int
    q: int

    @property
    def size(self) -> int:
        return self.p + self.n + self.q

    @property
    def s1(self) -> slice:
        return slice(0, self.p)

    @property
    def sx(self) -> slice:
        return slice(self.p, self.p + self.n)

    @property
    def s2(self) -> slice:
        return slice(self.p + self.n, self.size)

    def split(self, v: np.ndarray):
        return v[self.s1], v[self.sx], v[self.s2]

    def join(self, d1, x, d2) -> np.ndarray:
        return np.concatenate([d1, x, d2])


class BlockVector:
    """A flat array plus a layout; the block views are index windows, so
    Krylov kernels can treat the same storage as one long vector."""

    __slots__ = ("data", "layout")

    def __init__(self, data: np.ndarray, layout: BlockLayout):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (layout.size,):
            raise ValueError(f"data has shape {data.shape}, layout needs ({layout.size},)")
        self.data = data
        self.layout = layout

    @classmethod
    def from_parts(cls, d1, x, d2) -> "BlockVector":
        d1, x, d2 = (np.asarray(u, dtype=np.float64) for u in (d1, x, d2))
        layout = BlockLayout(len(d1), len(x), len(d2))
        return cls(np.concatenate([d1, x, d2]), layout)

    @classmethod
    def zeros(cls, layout: BlockLayout) -> "BlockVector":
        return cls(np.zeros(layout.size), layout)

    @property
    def d1(self) -> np.ndarray:
        return self.data[self.layout.s1]

    @property
    def x(self) -> np.ndarray:
        return self.data[self.layout.sx]

    @property
    def d2(self) -> np.ndarray:
        return self.data[self.layout.s2]


@dataclass(frozen=True)
class IlsProblem:
    """One partitioned problem: A1 (p x n), A2 (q x n), split right-hand
    side, and the diagonal shift used by the inexact preconditioners.

    A CSR block is kept as given; any other block is stored as a 2-D
    float64 ndarray (Hilbert blocks, say, stay dense).
    """

    a1: SparseMatrixCsr | np.ndarray
    a2: SparseMatrixCsr | np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    p: int
    q: int
    n: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "b1", np.asarray(self.b1, dtype=np.float64))
        object.__setattr__(self, "b2", np.asarray(self.b2, dtype=np.float64))
        object.__setattr__(self, "a1", as_matrix(self.a1, "A1"))
        object.__setattr__(self, "a2", as_matrix(self.a2, "A2"))
        if self.p < 1 or self.q < 1:
            raise DegenerateProblemError(
                "p and q must both be positive; an empty block reduces the "
                "problem to an ordinary least squares problem"
            )
        if self.a1.shape != (self.p, self.n):
            raise ValueError(f"A1 has shape {self.a1.shape}, expected ({self.p}, {self.n})")
        if self.a2.shape != (self.q, self.n):
            raise ValueError(f"A2 has shape {self.a2.shape}, expected ({self.q}, {self.n})")
        if self.b1.shape != (self.p,) or self.b2.shape != (self.q,):
            raise ValueError("right-hand side blocks do not match (p, q)")
        if not (np.isfinite(self.b1).all() and np.isfinite(self.b2).all()):
            raise ValueError("right-hand side has non-finite entries")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")

    @cached_property
    def layout(self) -> BlockLayout:
        return BlockLayout(self.p, self.n, self.q)

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def size(self) -> int:
        return self.p + self.n + self.q

    def label(self) -> str:
        return f"{self.m}x{self.n}"


def partition_problem(a: SparseMatrixCsr, b: np.ndarray, p: int, q: int, alpha="auto") -> IlsProblem:
    """Split an m x n matrix and length-m vector into the (A1, A2, b1, b2)
    blocks, with A1 the first p rows.  ``alpha`` is either 'auto' (the
    squared 1-norm of A1) or an explicit nonnegative value."""
    b = np.asarray(b, dtype=np.float64)
    if p + q != a.n_rows:
        raise ValueError(f"p + q = {p + q} does not match the {a.n_rows} rows of A")
    if b.shape != (a.n_rows,):
        raise ValueError("right-hand side length does not match A")
    if p == 0 or q == 0:
        raise DegenerateProblemError(
            "p and q must both be positive; an empty block reduces the "
            "problem to an ordinary least squares problem"
        )
    a1 = a.row_slice(0, p)
    a2 = a.row_slice(p, p + q)
    alpha_value = compute_alpha(a1) if alpha == "auto" else float(alpha)
    return IlsProblem(a1, a2, b[:p], b[p:], p, q, a.n_cols, alpha_value)


def compute_alpha(a1) -> float:
    """Default diagonal shift: the squared 1-norm of A1."""
    if isinstance(a1, SparseMatrixCsr):
        norm = one_norm(a1)
    else:
        norm = one_norm_dense(np.asarray(a1, dtype=np.float64))
    if norm == 0.0:
        raise DegenerateMatrixError("cannot derive a shift from an all-zero matrix")
    return norm * norm


def apply_block_A(prob: IlsProblem, v: np.ndarray) -> np.ndarray:
    """Product of the block system matrix with a flat (d1; x; d2) vector.

    The Gram product uses A1'(A1 x); nothing is materialized.
    """
    flat = np.asarray(v, dtype=np.float64)
    layout = prob.layout
    if flat.shape != (layout.size,):
        raise ValueError(f"vector has shape {flat.shape}, expected ({layout.size},)")
    d1, x, d2 = layout.split(flat)
    a1x = prob.a1 @ x
    out = np.empty(layout.size)
    out[layout.s1] = d1 + a1x
    out[layout.sx] = a1x @ prob.a1 + d2 @ prob.a2
    out[layout.s2] = prob.a2 @ x + d2
    return out


def build_rhs(prob: IlsProblem) -> BlockVector:
    """(b1; A1'b1; b2)."""
    return BlockVector.from_parts(prob.b1, prob.b1 @ prob.a1, prob.b2)


def block_system_operator(prob: IlsProblem) -> LinearOperator:
    size = prob.size
    return LinearOperator(size, size, lambda v: apply_block_A(prob, v))


def gram_operator(prob: IlsProblem) -> LinearOperator:
    """v -> A1'(A1 v)."""
    a1 = prob.a1
    return LinearOperator(prob.n, prob.n, lambda v: (a1 @ v) @ a1)


def shifted_gram_operator(prob: IlsProblem, alpha: float | None = None) -> LinearOperator:
    """v -> alpha*v + A1'(A1 v), the well-conditioned inner matrix of the
    inexact preconditioners."""
    a1 = prob.a1
    shift = prob.alpha if alpha is None else float(alpha)
    return LinearOperator(prob.n, prob.n, lambda v: shift * v + (a1 @ v) @ a1)


def reduced_normal_operator(prob: IlsProblem) -> LinearOperator:
    """v -> A1'(A1 v) - A2'(A2 v), the reduced normal matrix of the
    original minimization."""
    a1, a2 = prob.a1, prob.a2
    return LinearOperator(prob.n, prob.n, lambda v: (a1 @ v) @ a1 - (a2 @ v) @ a2)


def densify(block) -> np.ndarray:
    """Dense form of one block.  An ndarray block is returned as is, not
    copied, so callers must not write to the result."""
    return block.to_dense() if isinstance(block, SparseMatrixCsr) else block


def dense_blocks(prob: IlsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A1, A2) for desk-scale analysis (read-only, see densify)."""
    return densify(prob.a1), densify(prob.a2)


def _normal_rhs(prob: IlsProblem) -> np.ndarray:
    return prob.b1 @ prob.a1 - prob.b2 @ prob.a2


def exact_solution_oracle(prob: IlsProblem, mode: str = "auto") -> np.ndarray:
    """Reference solution of the normal equations, independent of the
    preconditioned solvers under test.

    dense-cholesky forms the reduced normal matrix densely and factors it
    (requires it to be SPD); tight-cg runs matrix-free CG at relative
    tolerance 1e-14 with at most 10n iterations.  'auto' picks dense for
    n <= 4000 and tight-cg above.
    """
    if mode == "auto":
        mode = "dense-cholesky" if prob.n <= 4000 else "tight-cg"
    if mode == "dense-cholesky":
        a1d, a2d = dense_blocks(prob)
        normal = a1d.T @ a1d - a2d.T @ a2d
        try:
            lower = dense_cholesky(normal)
        except NotSpdError as exc:
            raise ProblemAssumptionError(
                "reduced normal matrix A1'A1 - A2'A2 is not positive definite "
                f"(pivot failure at step {exc.step})"
            ) from exc
        return cholesky_solve(lower, _normal_rhs(prob))
    if mode == "tight-cg":
        from .krylov import CgConfig, cg_solve

        op = reduced_normal_operator(prob)
        cfg = CgConfig(rel_tolerance=1e-14, max_iterations=max(10 * prob.n, 1))
        try:
            x, report = cg_solve(op, _normal_rhs(prob), config=cfg)
        except IndefiniteOperatorError as exc:
            raise ProblemAssumptionError(
                "CG breakdown: reduced normal matrix is not positive definite"
            ) from exc
        if not report.converged:
            raise OracleFailureError(
                f"reference CG stalled at relative residual {report.final_res:.3e} "
                f"after {report.iterations} iterations"
            )
        return x
    raise ValueError(f"unknown oracle mode {mode!r}")


def full_solution_from_x(prob: IlsProblem, x: np.ndarray) -> BlockVector:
    """Lift a length-n solution to the full (b1 - A1 x; x; b2 - A2 x)."""
    x = np.asarray(x, dtype=np.float64)
    return BlockVector.from_parts(prob.b1 - prob.a1 @ x, x, prob.b2 - prob.a2 @ x)
