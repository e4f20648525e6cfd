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
(kind, problem, inner solver, inner CG settings) and owns its inner solve:
exact, with a dense Cholesky factor and the inverses of its diagonal
blocks, which the problem computes once per shift and shares among the
preconditioners built on it; or inexact, matrix-free CG from a zero start
on the problem's Gram pair v -> (S v, A1 v).  Inner CG failure is a
recorded statistic, not a fatal error: the loose-tolerance regime is the
intended operating point for the outer flexible solver.

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
kind.  It takes A z from the splitting where s is known to working
accuracy: after an exact inner solve (s = 0, up to the Cholesky backward
error), where it makes the one product A1 z2, and after CG on an S whose
condition bound (shift + |A1|_1 |A1|_inf) / shift is at most _PAIR_BOUND.
There s is CG's recurrence residual and A1 z2 the image that CG carries
from its Gram products, so after trusted inner CG the step makes no
product by A1 or A1'A1; when CG returns an earlier iterate or breaks
down, one Gram product of z2 gives both.  ``paired`` says whether this
holds (and CG carries the image, in ``apply`` too); for the unshifted
baselines on CG, a tiny shift and kind 'none' A z is one block product.

``_block_solve`` owns the solve of a preconditioner's own block system,
which ``fgmres_solve`` hands it for ``block_system_operator(problem)``.
When A2 has two or more empty rows it runs on the folded twin of
ilsolve.problem (the twin has the same A1 and so the same inner matrix,
and the preconditioner acts on it as on its own problem) and lifts the
answer back; FGMRES takes each z and A z from the step.
"""

from __future__ import annotations

import time

import numpy as np

from .dense import cholesky_solve
from .exceptions import ConfigurationError, IndefiniteOperatorError
from .krylov import CgConfig, FgmresConfig, SolveReport, _cg, _fgmres
from .problem import IlsProblem, _gram_pair, apply_block_A, block_system_operator
from .sparse import _real

__all__ = [
    "VARIANTS",
    "IBS_VARIANTS",
    "BASELINE_VARIANTS",
    "INNER_SOLVERS",
    "Preconditioner",
    "make_preconditioner",
    "assemble_dense_preconditioned",
]

IBS_VARIANTS = ("ibs1", "ibs2", "ibs3", "ibs4")
BASELINE_VARIANTS = ("bs1", "bs2", "bs3", "but")
VARIANTS = IBS_VARIANTS + BASELINE_VARIANTS + ("none",)
INNER_SOLVERS = ("cg", "cholesky")

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


class Preconditioner:
    """Applies z = M^{-1} r for one splitting variant.

    Built from make_preconditioner's arguments, it owns its inner solve:
    with inner 'cholesky', ``lower`` and ``inverses``, the problem's shared
    Cholesky factor of the inner matrix and the inverses of its diagonal
    blocks (see ilsolve.dense); with 'cg', CG at ``config`` on the
    problem's Gram pair.  ``paired`` says whether the step takes A z from
    the splitting (see the module docstring).  Instances are reusable
    across solves; ``inner_iterations`` and ``inner_failures`` accumulate
    CG statistics (call ``reset_stats`` between timed runs).
    """

    def __init__(self, kind: str, problem: IlsProblem, inner: str = "cg", inner_config: CgConfig | None = None):
        kind = self.kind = kind.lower()
        if kind not in VARIANTS:
            raise ValueError(f"unknown preconditioner kind {kind!r}; choose from {VARIANTS}")
        if inner not in INNER_SOLVERS:
            raise ValueError(f"unknown inner solver mode {inner!r}")
        self.problem = problem
        self.config = inner_config or CgConfig()
        shift = self.shift = problem.alpha if kind in IBS_VARIANTS else 0.0
        self.lower = self.inverses = None
        if kind != "none" and inner == "cholesky":
            self.lower, self.inverses = problem._inner_factor(shift)
        self._pair = _gram_pair(problem, shift)
        self.paired = kind != "none" and (
            self.lower is not None
            or (shift > 0.0 and shift + problem._gram_bound <= _PAIR_BOUND * shift)
        )
        self.inner_iterations = 0
        self.inner_failures = 0

    def reset_stats(self) -> None:
        self.inner_iterations = 0
        self.inner_failures = 0

    def _inner_solve(self, rhs: np.ndarray) -> tuple:
        """(z2, s, u) with s = rhs - S z2 and u = A1 z2 where known without
        a product by A1, else None: s = 0.0 after the exact solve; CG's
        recurrence residual and, where ``paired``, its carried image when CG
        returns its last iterate, so the paired step makes no such product."""
        if self.lower is not None:
            return cholesky_solve(self.lower, rhs, self.inverses), 0.0, None
        image = np.zeros(self.problem.p) if self.paired else None
        try:
            z, report, residual, image = _cg(self._pair, rhs, self.config, image)
        except IndefiniteOperatorError as exc:
            # Numerical breakdown on an ill-conditioned (but in exact
            # arithmetic SPD) Gram matrix: keep the best iterate.
            self.inner_failures += 1
            self.inner_iterations += exc.iterations
            return exc.x_best, None, None
        self.inner_iterations += report.iterations
        if not report.converged:
            self.inner_failures += 1
        return z, residual, image

    def apply(self, r: np.ndarray) -> np.ndarray:
        r = _real(r, "r")
        self.problem.split(r)  # the length check
        return self._apply(self.problem, r)

    def _apply(self, prob: IlsProblem, r: np.ndarray, paired: bool = False):
        """z = M^{-1} r on ``prob``, this preconditioner's problem or its
        folded twin; with ``paired``, the step (z, A z), whose z is bit for
        bit the one without: A z from the splitting where ``self.paired``
        holds (see the module docstring), else one block product; r is trusted."""
        if paired and not self.paired:
            z = self._apply(prob, r)
            return z, apply_block_A(prob, z)
        p, pn = prob.p, prob.p + prob.n
        r1, r2, r3 = r[:p], r[p:pn], r[pn:]
        if self.kind == "none":
            return np.concatenate([r1, r2, r3])
        coupled = self.kind in _COUPLED_RHS
        rhs = r2 - r3 @ prob.a2 if coupled else r2
        z2, s, a1z2 = self._inner_solve(rhs)
        if s is None and self.paired:
            # CG returned an earlier iterate or broke down: one Gram product
            # gives s and A1 z2, in both modes, so that z is the same.
            sz2, a1z2 = self._pair(z2)
            s = rhs - sz2
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


def _block_solve(pre: Preconditioner, rhs: np.ndarray, cfg: FgmresConfig) -> tuple[np.ndarray, SolveReport]:
    """FGMRES on the block system of ``pre.problem`` with ``pre``, on the
    folded twin when A2's empty rows fold: there the rhs on them becomes
    its norm at the twin's last entry, and the lift spreads that entry back
    along the rhs's direction.  The report then describes the full system:
    ``final_res``, ``converged`` and the returned iterate's confirmation
    entry come from the full system's true residual."""
    t0 = time.perf_counter()
    full, fold = pre.problem, pre.problem._fold
    prob, solve_rhs = full, rhs
    if fold is not None:
        prob, empty = fold
        head = full.p + full.n
        part = rhs[head:][empty]
        norm = np.linalg.norm(part)
        solve_rhs = np.concatenate([rhs[:head], rhs[head:][~empty], [norm]])
    step = lambda v: pre._apply(prob, v, paired=True)
    y, report = _fgmres(block_system_operator(prob).apply, step, solve_rhs, cfg)
    if fold is None:
        return y, report
    x = np.empty(len(rhs))
    x[:head] = y[:head]
    tail = x[head:]
    tail[~empty] = y[head:-1]
    tail[empty] = y[-1] * (part / norm) if norm else 0.0
    bnorm = np.linalg.norm(rhs)
    true_res = float(np.linalg.norm(rhs - block_system_operator(full).apply(x)) / bnorm) if bnorm else 0.0
    if report.confirmations and report.confirmations[-1][2] == report.final_res:
        # The last confirmed iterate is the one returned (a solve that gave
        # up may return an earlier one): its entry gets the same residual.
        it, estimate, _ = report.confirmations[-1]
        report.confirmations = report.confirmations[:-1] + ((it, estimate, true_res),)
    report.final_res = report.res_history[-1] = true_res
    report.converged = true_res < cfg.rel_tolerance
    report.wall_seconds = time.perf_counter() - t0
    return x, report


DENSE_ASSEMBLY_MAX_SIZE = 2000  # largest p + n + q for a dense M^{-1} A


def assemble_dense_preconditioned(kind: str, problem: IlsProblem) -> np.ndarray:
    """Dense M^{-1} A, column by column through the live application path
    with exact inner solves.  Desk-scale only."""
    size = problem.size
    if size > DENSE_ASSEMBLY_MAX_SIZE:
        raise ConfigurationError(
            f"dense assembly requested for size {size} > cap {DENSE_ASSEMBLY_MAX_SIZE}"
        )
    pre = make_preconditioner(kind, problem, inner="cholesky")
    out = np.empty((size, size))
    e = np.zeros(size)
    for j in range(size):
        e[j] = 1.0
        out[:, j] = pre.apply(apply_block_A(problem, e))
        e[j] = 0.0
    return out
