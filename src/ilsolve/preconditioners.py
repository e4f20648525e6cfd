"""Block-splitting preconditioners for the three-by-three system.

Eight variants share one application skeleton.  Each solves a single inner
system with the Gram matrix A1'A1 (the bs1/bs2/bs3/but baselines) or with
its diagonally shifted version alpha*I + A1'A1 (the inexact ibs1..ibs4
variants), then back-substitutes through at most two triangular block
rows:

    ibs1 / bs1:  z1 = r1;          solve z2;               z3 = r3
    ibs2 / bs2:  z1 = r1;  z3 = r3;  solve z2 from r2 - A2'z3
    ibs3 / bs3:  solve z2;  z1 = r1 - A1 z2;               z3 = r3
    ibs4 / but:  z3 = r3;  solve z2 from r2 - A2'z3;  z1 = r1 - A1 z2

Inner systems are solved either exactly (dense Cholesky, precomputed) or
inexactly (matrix-free CG from a zero start).  Inner CG failure is a
recorded statistic, not a fatal error: the loose-tolerance regime is the
intended operating point for the outer flexible solver.
"""

from __future__ import annotations

import numpy as np

from .dense import CholeskyFactor, cholesky_solve, dense_cholesky
from .exceptions import ConfigurationError, IndefiniteOperatorError
from .krylov import CgConfig, cg_solve
from .operators import LinearOperator
from .problem import BlockVector, IlsProblem, apply_block_A, densify, shifted_gram_operator

__all__ = [
    "VARIANTS",
    "IBS_VARIANTS",
    "BASELINE_VARIANTS",
    "Preconditioner",
    "make_preconditioner",
    "assemble_dense_preconditioned",
]

IBS_VARIANTS = ("ibs1", "ibs2", "ibs3", "ibs4")
BASELINE_VARIANTS = ("bs1", "bs2", "bs3", "but")
VARIANTS = IBS_VARIANTS + BASELINE_VARIANTS + ("none",)

# Which variants subtract A2'z3 from the inner right-hand side, and which
# back-substitute into the first block.
_COUPLED_RHS = {"ibs2", "ibs4", "bs2", "but"}
_BACKSUB_FIRST = {"ibs3", "ibs4", "bs3", "but"}


class _CgInner:
    """Matrix-free CG inner solver, zero start on every call."""

    def __init__(self, op: LinearOperator, config: CgConfig):
        self.op = op
        self.config = config
        self.iterations = 0
        self.failures = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        try:
            z, report = cg_solve(self.op, rhs, config=self.config)
        except IndefiniteOperatorError as exc:
            # Numerical breakdown on an ill-conditioned (but in exact
            # arithmetic SPD) Gram matrix: keep the best iterate.
            self.failures += 1
            self.iterations += exc.iterations
            return exc.x_best if exc.x_best is not None else np.zeros_like(rhs)
        self.iterations += report.iterations
        if not report.converged:
            self.failures += 1
        return z


class _CholeskyInner:
    """Exact inner solver from a precomputed dense factorization."""

    def __init__(self, factor: CholeskyFactor):
        self.factor = factor
        self.iterations = 0
        self.failures = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cholesky_solve(self.factor, rhs)


class Preconditioner:
    """Applies z = M^{-1} r for one splitting variant.

    Instances are reusable across solves; ``inner_iterations`` and
    ``inner_failures`` accumulate inner-solve statistics (call
    ``reset_stats`` between timed runs).
    """

    def __init__(self, kind: str, problem: IlsProblem, inner):
        self.kind = kind
        self.problem = problem
        self._inner = inner

    @property
    def inner_iterations(self) -> int:
        return 0 if self._inner is None else self._inner.iterations

    @property
    def inner_failures(self) -> int:
        return 0 if self._inner is None else self._inner.failures

    def reset_stats(self) -> None:
        if self._inner is not None:
            self._inner.iterations = 0
            self._inner.failures = 0

    def apply(self, r):
        wrapped = isinstance(r, BlockVector)
        flat = r.data if wrapped else np.asarray(r, dtype=np.float64)
        layout = self.problem.layout
        if flat.shape != (layout.size,):
            raise ValueError(f"vector has shape {flat.shape}, expected ({layout.size},)")
        if self.kind == "none":
            out = flat.copy()
            return BlockVector(out, layout) if wrapped else out
        r1, r2, r3 = layout.split(flat)
        rhs = r2 - self.problem.a2_op.apply_transpose(r3) if self.kind in _COUPLED_RHS else r2
        z2 = self._inner.solve(rhs)
        z1 = r1 - self.problem.a1_op.apply(z2) if self.kind in _BACKSUB_FIRST else r1.copy()
        out = np.empty(layout.size)
        out[layout.s1] = z1
        out[layout.sx] = z2
        out[layout.s2] = r3
        return BlockVector(out, layout) if wrapped else out

    def __call__(self, r):
        return self.apply(r)


def make_preconditioner(
    kind: str,
    problem: IlsProblem,
    inner: str = "cg",
    inner_config: CgConfig | None = None,
    dense_cap: int = 4000,
) -> Preconditioner:
    """Build a preconditioner.

    ``inner`` is 'cg' (matrix-free, inexact) or 'cholesky' (exact, dense
    factorization of the n x n inner matrix, permitted only for
    n <= dense_cap).  The ibs variants shift the inner matrix by
    problem.alpha; the baselines solve with the Gram matrix itself.
    """
    kind = kind.lower()
    if kind not in VARIANTS:
        raise ValueError(f"unknown preconditioner kind {kind!r}; choose from {VARIANTS}")
    if kind == "none":
        return Preconditioner(kind, problem, None)
    shift = problem.alpha if kind in IBS_VARIANTS else 0.0
    if inner == "cg":
        op = shifted_gram_operator(problem, alpha=shift)
        solver = _CgInner(op, inner_config or CgConfig())
    elif inner in ("cholesky", "dense-cholesky"):
        if problem.n > dense_cap:
            raise ConfigurationError(
                f"dense inner factorization requested for n = {problem.n} > cap {dense_cap}"
            )
        a1d = densify(problem.a1, problem.a1_op)
        inner_matrix = a1d.T @ a1d
        if shift:
            inner_matrix[np.diag_indices_from(inner_matrix)] += shift
        solver = _CholeskyInner(dense_cholesky(inner_matrix))
    else:
        raise ValueError(f"unknown inner solver mode {inner!r}")
    return Preconditioner(kind, problem, solver)


def assemble_dense_preconditioned(
    kind: str,
    problem: IlsProblem,
    cap: int = 2000,
) -> np.ndarray:
    """Dense M^{-1} A, column by column through the live application path
    with exact inner solves.  Desk-scale only."""
    size = problem.size
    if size > cap:
        raise ConfigurationError(f"dense assembly requested for size {size} > cap {cap}")
    pre = make_preconditioner(kind, problem, inner="cholesky", dense_cap=cap)
    out = np.empty((size, size))
    e = np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        out[:, j] = pre.apply(apply_block_A(problem, e))
        e[j] = 0.0
    return out
