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

A Preconditioner is built from the arguments of make_preconditioner
(kind, problem, inner solver, inner CG settings) and keeps the splitting.
Its inner solve is the entry of ``_INNER_SOLVES`` that the inner solver
names: matrix-free CG from a zero start on the problem's Gram pair
v -> (S v, A1 v), or exact, on the Cholesky factor that ``_inner_factor``
keeps per shift.  Inner CG failure is a recorded count, not an error: the
loose-tolerance regime is the outer flexible solver's operating point.

Each variant is a splitting A = M - N of the block matrix.  With
S = shift*I + A1'A1 as the inner matrix (shift = alpha for ibs, 0 for the
baselines), N holds shift*I in its middle block and the couplings that M
drops:

    ibs1 / bs1:  N = [0 -A1 0; 0 shift*I -A2'; 0 -A2 0]
    ibs2 / bs2:  N = [0 -A1 0; 0 shift*I 0;    0 -A2 0]
    ibs3 / bs3:  N = [0 0 0;   0 shift*I -A2'; 0 -A2 0]
    ibs4 / but:  N = [0 0 0;   0 shift*I 0;    0 -A2 0]

So once z = M^{-1} v is known for v = (r1, r2, r3), the product A z is
v - N z less the inner solve's residual s = c - S z2 in the middle block,
where c is the inner right-hand side (Eisenstat, SIAM J. Sci. Stat.
Comput. 2, 1981):

    ibs1 / bs1:  A z = (r1 + A1 z2, r2 - s - shift*z2 + A2'r3, r3 + A2 z2)
    ibs2 / bs2:  A z = (r1 + A1 z2, r2 - s - shift*z2,         r3 + A2 z2)
    ibs3 / bs3:  A z = (r1,         r2 - s - shift*z2 + A2'r3, r3 + A2 z2)
    ibs4 / but:  A z = (r1,         r2 - s - shift*z2,         r3 + A2 z2)

The step ``_apply(problem, v, paired=True)`` returns z and A z for every
kind.  Where the inner solve's entry says ``paired``, s is known to working
accuracy and A z comes from the splitting: after an exact solve (s = 0, up
to the Cholesky backward error) with the one product A1 z2, and after CG on
an S whose condition bound (shift + _gram_bound) / shift is at most
_PAIR_BOUND from CG's recurrence residual and the image A1 z2 that CG
carries, with no product by A1 or A1'A1; for an earlier iterate the cg
entry gets both from one Gram product of z2.  Otherwise (kind 'none', CG
unshifted or on a tiny shift) A z is one block product.

``solve`` builds the preconditioner and runs ``_block_solve`` on its own
block system (``fgmres_solve``'s benchmark route runs it too): FGMRES takes
each z and A z from the step, each true residual from ``apply_block_A``,
and the report each step's inner count.  Empty rows of A2 fold: on an
empty row i, block row 3 reads d2_i = b2_i, d2_i reaches no other row,
and every preconditioner passes it through, so the part of each Krylov
vector on those rows is a multiple of the right-hand side's (the paper's
A2 = s*I_{q x n}, q > n, has q - n of them).  With two or more, the solve
runs on the twin ``_fold(problem)``, in which they are one zero row (an
isometry of the Krylov space with the same iterates, counts and
residuals; its A1 is the same, so the preconditioner acts on it as on its
own problem), and lifts the answer back.  A1's empty rows do not fold.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from . import problem as problem_module
from .dense import _block_inverses, cholesky_solve, dense_cholesky
from .exceptions import ConfigurationError, IndefiniteOperatorError
from .krylov import CgConfig, FgmresConfig, SolveReport, _cg, _checked_rhs, _fgmres
from .problem import IlsProblem, _gram_pair, apply_block_A, build_rhs, densify
from .sparse import SparseMatrixCsr, _built_csr, _real, _sealed, one_norm

__all__ = [
    "VARIANTS",
    "IBS_VARIANTS",
    "BASELINE_VARIANTS",
    "INNER_SOLVERS",
    "Preconditioner",
    "make_preconditioner",
    "solve",
    "assemble_dense_preconditioned",
]

IBS_VARIANTS = ("ibs1", "ibs2", "ibs3", "ibs4")
BASELINE_VARIANTS = ("bs1", "bs2", "bs3", "but")
VARIANTS = IBS_VARIANTS + BASELINE_VARIANTS + ("none",)

# Which variants subtract A2'z3 from the inner right-hand side, and which
# back-substitute into the first block.
_COUPLED_RHS = {"ibs2", "ibs4", "bs2", "but"}
_BACKSUB_FIRST = {"ibs3", "ibs4", "bs3", "but"}

# Largest condition bound (shift + |A1|_1 |A1|_inf) / shift of the inner
# matrix at which the paired step trusts CG's recurrence residual.  With
# the shift scaled down, ibs solves with inner CG at 1e-3 took the same
# outer iterations on both paths up to bounds of 8.7e5 on the banded
# stand-in and 1e5 on Hilbert n = 200, and parted at 8.7e6 and 1e6 (a
# drifting estimate shows as an unconfirmed early end); unshifted Gram
# matrices drift at once.
_PAIR_BOUND = 1e4


def _inner_factor(prob: IlsProblem, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factor of shift*I + A1'A1 and the inverses of its diagonal
    blocks, read-only, built once per problem and shift; above DENSE_MAX_N, an error."""
    if prob.n > problem_module.DENSE_MAX_N:
        raise ConfigurationError(
            f"dense inner factorization requested for n = {prob.n} > cap {problem_module.DENSE_MAX_N}"
        )

    def factor():
        a1d = densify(prob.a1)
        inner = a1d.T @ a1d
        if shift:
            inner[np.diag_indices_from(inner)] += shift
        lower = dense_cholesky(inner)
        return lower, _block_inverses(lower)

    return prob._shared(shift, factor)


def _gram_bound(prob: IlsProblem) -> float:
    """|A1|_1 |A1|_inf, a bound on the 2-norm of A1'A1, so that the spectrum
    of shift*I + A1'A1 lies in [shift, shift + this bound]; built once per problem."""

    def bound():
        a1 = prob.a1
        if isinstance(a1, SparseMatrixCsr):
            rows = np.bincount(a1._rows, weights=np.abs(a1.values), minlength=a1.n_rows)
            return one_norm(a1) * float(rows.max())
        magnitudes = np.abs(a1)  # one pass for both norms, as np.linalg.norm sums them
        return float(magnitudes.sum(axis=0).max()) * float(magnitudes.sum(axis=1).max())

    return prob._shared("gram bound", bound)


def _exact(prob: IlsProblem, shift: float, pair, config: CgConfig) -> tuple:
    """The 'cholesky' entry: exact on the problem's shared factor, linear and
    paired, with solve(rhs) -> (z2, s = 0.0, None, 0, True)."""
    lower, inverses = _inner_factor(prob, shift)
    return (lambda rhs: (cholesky_solve(lower, rhs, inverses), 0.0, None, 0, True)), True, True


def _inexact(prob: IlsProblem, shift: float, pair, config: CgConfig) -> tuple:
    """The 'cg' entry: CG at ``config`` on ``pair``, not linear; paired under
    _PAIR_BOUND, where it carries A1 z2 and s, CG's recurrence residual, and
    gets both for an earlier iterate from one product of ``pair``."""
    paired = shift > 0.0 and shift + _gram_bound(prob) <= _PAIR_BOUND * shift

    def solve(rhs: np.ndarray) -> tuple:
        try:
            z2, history, converged, s, image = _cg(pair, rhs, config, np.zeros(prob.p) if paired else None)
            iterations = len(history) - 1
        except IndefiniteOperatorError as exc:
            # A breakdown on an ill-conditioned (in exact arithmetic SPD) S: keep the best iterate.
            z2, s, image, iterations, converged = exc.x_best, None, None, exc.iterations, False
        if s is None and paired:  # an earlier iterate: one Gram product gives s and A1 z2
            sz2, image = pair(z2)
            s = rhs - sz2
        return z2, s, image, iterations, converged

    return solve, False, paired


# Builders (problem, shift, Gram pair, CgConfig) -> (solve, linear, paired),
# with solve(rhs) -> (z2, s = rhs - S z2, A1 z2 or None, iterations, converged).
_INNER_SOLVES = {"cg": _inexact, "cholesky": _exact}
INNER_SOLVERS = tuple(_INNER_SOLVES)


def _fold(prob: IlsProblem):
    """_build_fold(prob), built once per problem; the twin does not refer to prob."""
    return prob._shared("fold", lambda: _build_fold(prob))


def _build_fold(prob: IlsProblem):
    """(twin, empty), or None when A2 has fewer than two empty rows.
    ``empty`` masks A2's empty rows; in the twin A2 keeps its other rows
    and ends in one zero row, the slot, and A1 and b1 are unchanged."""
    a2 = prob.a2
    csr = isinstance(a2, SparseMatrixCsr)
    empty = np.diff(a2.row_offsets) == 0 if csr else ~a2.any(axis=1)
    if np.count_nonzero(empty) < 2:
        return None
    keep = ~empty
    if csr:  # the dropped rows hold no entries
        offsets = np.concatenate([[0], a2.row_offsets[1:][keep], [a2.nnz]])
        # The row index is the twin's own: dropping empty rows renumbers the rows after them.
        a2 = _built_csr(len(offsets) - 1, a2.n_cols, offsets, a2.col_indices, a2.values)
    else:
        a2 = _sealed(np.vstack([a2[keep], np.zeros((1, a2.shape[1]))]))
    b2 = _sealed(np.append(prob.b2[keep], np.linalg.norm(prob.b2[empty])))
    return IlsProblem(prob.a1, a2, prob.b1, b2, prob.alpha), empty


class Preconditioner:
    """Applies z = M^{-1} r for one splitting variant.

    It keeps the splitting and takes its inner solve, once, from the entry
    of _INNER_SOLVES that ``inner`` names, which also says whether z is
    ``linear`` in r (kind 'none' always is) and whether the step is
    ``paired`` (see the module docstring); it reads ``inner_config`` then.
    ``inner_iterations`` and ``inner_failures`` add up the inner solves'
    counts over reuses; a block solve's report holds them per step.
    """

    def __init__(self, kind: str, problem: IlsProblem, inner: str = "cg", inner_config: CgConfig | None = None):
        kind = self.kind = kind.lower()
        if kind not in VARIANTS:
            raise ValueError(f"unknown preconditioner kind {kind!r}; choose from {VARIANTS}")
        if inner not in _INNER_SOLVES:
            raise ValueError(f"unknown inner solver mode {inner!r}")
        self.problem = problem
        shift = self.shift = problem.alpha if kind in IBS_VARIANTS else 0.0
        if kind == "none":  # solves nothing
            self.linear, self.paired = True, False
        else:
            build, config = _INNER_SOLVES[inner], inner_config or CgConfig()
            self._solve, self.linear, self.paired = build(problem, shift, _gram_pair(problem, shift), config)
        self.reset_stats()

    def reset_stats(self) -> None:
        self.inner_iterations = 0
        self.inner_failures = 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        """z = M^{-1} r, for a (size,) vector or each column of a (size, k)
        block: by one batched solve where ``linear`` holds; column by
        column for inner CG."""
        r = _real(r, "r")
        self.problem.split(r)  # the shape check
        if r.ndim == 2 and not self.linear:
            return np.stack([self._apply(self.problem, col) for col in r.T.copy()], axis=1)
        return self._apply(self.problem, r)

    def _apply(self, prob: IlsProblem, r: np.ndarray, paired: bool = False):
        """z = M^{-1} r on ``prob``, this preconditioner's problem or its
        folded twin; with ``paired``, the step (z, A z), whose z is bit for
        bit the one without (see the module docstring); r is trusted (a
        block if unpaired and ``linear``)."""
        if paired and not self.paired:
            z = self._apply(prob, r)
            return z, apply_block_A(prob, z)
        p, pn = prob.p, prob.p + prob.n
        r1, r2, r3 = r[:p], r[p:pn], r[pn:]
        if self.kind == "none":
            return np.concatenate([r1, r2, r3])
        coupled = self.kind in _COUPLED_RHS
        rhs = r2 - (r3.T @ prob.a2).T if coupled else r2
        z2, s, a1z2, iterations, converged = self._solve(rhs)
        self.inner_iterations += iterations
        self.inner_failures += not converged
        backsub = self.kind in _BACKSUB_FIRST
        if a1z2 is None and (backsub or paired):
            a1z2 = prob.a1 @ z2
        z = np.concatenate([r1 - a1z2 if backsub else r1, z2, r3])
        if not paired:
            return z
        w = np.empty(prob.size)
        w1, w2, w3 = w[:p], w[p:pn], w[pn:]
        if backsub:
            w1[:] = r1
        else:
            np.add(r1, a1z2, out=w1)
        np.subtract(r2, s, out=w2)
        w2 -= self.shift * z2
        if not coupled:
            w2 += r3 @ prob.a2
        np.add(r3, prob.a2 @ z2, out=w3)
        return z, w


def make_preconditioner(
    kind: str, problem: IlsProblem, inner: str = "cg", inner_config: CgConfig | None = None
) -> Preconditioner:
    """Build a preconditioner; ``Preconditioner`` takes the same arguments
    and validates them (an unknown kind or inner solver is a ValueError).

    ``inner`` is 'cg' (matrix-free, inexact, at ``inner_config``, by
    default CgConfig()) or 'cholesky' (exact, dense factorization of the
    n x n inner matrix, permitted only for n <= ilsolve.problem.DENSE_MAX_N).
    The ibs variants shift the inner matrix by problem.alpha; the baselines
    solve with the Gram matrix itself.  A factor and its diagonal-block
    inverses are shared, read-only, by all exact preconditioners of a
    problem with the same shift.
    """
    return Preconditioner(kind, problem, inner, inner_config)


def solve(prob: IlsProblem, kind: str, inner: str = "cg", inner_config: CgConfig | None = None,
          config: FgmresConfig | None = None) -> tuple[np.ndarray, SolveReport]:
    """(x, report) of FGMRES from zero at ``config`` (by default FgmresConfig()) on the block
    system of ``prob`` with make_preconditioner(kind, prob, inner, inner_config); ``inner`` is
    empty for kind 'none'.  Cholesky reads no ``inner_config``: one is a ValueError."""
    if inner == "cholesky" and inner_config is not None:
        raise ValueError("inner_config does not apply to inner = cholesky")
    pre = make_preconditioner(kind, prob, inner, inner_config)
    rhs = _checked_rhs((prob.size,) * 2, build_rhs(prob))  # as fgmres_solve's: a finite 2-norm
    return _block_solve(pre, rhs, config or FgmresConfig())


def _block_solve(pre: Preconditioner, rhs: np.ndarray, cfg: FgmresConfig) -> tuple[np.ndarray, SolveReport]:
    """FGMRES on the block system of ``pre.problem`` with ``pre``, on the
    folded twin when A2's empty rows fold: there the rhs on them becomes
    its norm at the twin's last entry, and the lift spreads that entry back
    along the rhs's direction.  The report then describes the full system:
    ``final_res``, ``converged`` and the returned iterate's confirmation
    entry come from the full system's true residual, in a new report that
    ``replace`` builds from the loop's, timed over fold, solve and lift."""
    t0 = time.perf_counter()
    full, fold = pre.problem, _fold(pre.problem)
    prob, solve_rhs = full, rhs
    if fold is not None:
        prob, empty = fold
        head = full.p + full.n
        part = rhs[head:][empty]
        norm = np.linalg.norm(part)
        solve_rhs = np.concatenate([rhs[:head], rhs[head:][~empty], [norm]])
    steps = []  # each outer step's (inner iterations, converged)

    def step(v):
        iterations, failures = pre.inner_iterations, pre.inner_failures
        out = pre._apply(prob, v, paired=True)
        steps.append((pre.inner_iterations - iterations, pre.inner_failures == failures))
        return out

    y, report = _fgmres(lambda v: apply_block_A(prob, v), step, solve_rhs, cfg)
    inner = tuple(steps) if pre.kind != "none" else ()
    if fold is None:
        return y, replace(report, inner=inner)
    x = np.empty(len(rhs))
    x[:head] = y[:head]
    tail = x[head:]
    tail[~empty] = y[head:-1]
    tail[empty] = y[-1] * (part / norm) if norm else 0.0
    bnorm = np.linalg.norm(rhs)
    true_res = float(np.linalg.norm(rhs - apply_block_A(full, x)) / bnorm) if bnorm else 0.0
    confirmations = report.confirmations
    if confirmations and confirmations[-1][2] == report.final_res:
        # The last confirmed iterate is the one returned (a solve that gave
        # up may return an earlier one): its entry gets the same residual.
        confirmations = confirmations[:-1] + (confirmations[-1][:2] + (true_res,),)
    return x, replace(
        report, wall_seconds=time.perf_counter() - t0,
        res_history=np.append(report.res_history[:-1], true_res),
        converged=true_res < cfg.rel_tolerance, confirmations=confirmations, inner=inner,
    )


DENSE_ASSEMBLY_MAX_SIZE = 2000  # largest p + n + q for a dense M^{-1} A
_ASSEMBLY_COLUMNS = 256  # columns per block apply; its scratch is a few (size, 256) blocks


def _assembly_size(problem: IlsProblem) -> int:
    """The size of ``problem``'s dense M^{-1} A; over the cap, a ConfigurationError."""
    if (size := problem.size) > DENSE_ASSEMBLY_MAX_SIZE:
        raise ConfigurationError(f"dense assembly requested for size {size} > cap {DENSE_ASSEMBLY_MAX_SIZE}")
    return size


def assemble_dense_preconditioned(kind: str, problem: IlsProblem) -> np.ndarray:
    """Dense M^{-1} A by the live application path with exact inner solves:
    block applies to ``apply_block_A`` of the identity's columns, at most
    _ASSEMBLY_COLUMNS at a time (one block at desk scale).  Desk-scale only."""
    size = _assembly_size(problem)
    pre = make_preconditioner(kind, problem, inner="cholesky")
    out = np.empty((size, size))
    for j in range(0, size, _ASSEMBLY_COLUMNS):
        k = min(_ASSEMBLY_COLUMNS, size - j)
        out[:, j : j + k] = pre.apply(apply_block_A(problem, np.eye(size, k, -j)))
    return out
