"""Matrix-free conjugate gradient and right-preconditioned flexible GMRES.

CG is the workhorse for the symmetric positive definite inner systems of
the preconditioners; flexible GMRES is the outer solver.  The flexible
variant stores the preconditioned basis Z so the preconditioner may change
from one iteration to the next (it does, whenever the inner solves are
themselves iterative).

Residual accounting follows one rule: an iteration records the Arnoldi
least-squares estimate, or the true residual of the assembled iterate
wherever that is computed (convergence, restart boundary, iteration cap).
A declared convergence is only accepted once the true residual confirms
it; if the estimate has drifted, the iteration resumes from the assembled
iterate (at most three times) before giving up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import IndefiniteOperatorError, NumericalFailureError
from .operators import LinearOperator

__all__ = ["CgConfig", "FgmresConfig", "SolveReport", "cg_solve", "fgmres_solve"]


@dataclass(frozen=True)
class CgConfig:
    rel_tolerance: float = 1e-3
    max_iterations: int = 1000

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ValueError("rel_tolerance must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class FgmresConfig:
    rel_tolerance: float = 1e-8
    max_iterations: int = 2000
    restart: int | None = None  # None = unrestarted

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ValueError("rel_tolerance must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.restart is not None and self.restart < 1:
            raise ValueError("restart must be at least 1 when bounded")


@dataclass
class SolveReport:
    """Outcome of one solve: iteration count, wall time, relative residual
    history (length iterations + 1, last entry equals final_res), and an
    optional relative error against a reference solution."""

    iterations: int
    wall_seconds: float
    final_res: float
    res_history: np.ndarray
    converged: bool
    err: float | None = None
    notes: tuple[str, ...] = ()


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def cg_solve(
    op: LinearOperator,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
    config: CgConfig | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradient for an SPD operator.

    Convergence is declared on the recurrence residual relative to |rhs|.
    A zero right-hand side returns the zero vector immediately.  On a
    breakdown (p'Ap <= 0) an IndefiniteOperatorError is raised carrying
    the best iterate reached so far; when the iteration cap is hit the
    lowest-residual iterate is returned with converged=False.
    """
    cfg = config or CgConfig()
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.n_cols,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({op.n_cols},)")
    t0 = time.perf_counter()
    bnorm = _norm(rhs)
    if bnorm == 0.0:
        report = SolveReport(0, time.perf_counter() - t0, 0.0, np.array([0.0]), True)
        return np.zeros_like(rhs), report

    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=np.float64)
    r = rhs - op.apply(x) if np.any(x) else rhs.copy()
    res = _norm(r) / bnorm
    history = [res]
    if res < cfg.rel_tolerance:
        return x, SolveReport(0, time.perf_counter() - t0, res, np.array(history), True)

    p = r.copy()
    rs = float(r @ r)
    best_x, best_res = x.copy(), res
    converged = False
    notes: list[str] = []
    k = 0
    while k < cfg.max_iterations:
        ap = op.apply(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteOperatorError(
                f"p'Ap = {pap:.3e} <= 0 at iteration {k + 1}: operator is not SPD",
                x_best=best_x,
                iterations=k,
            )
        gamma = rs / pap
        x += gamma * p
        r -= gamma * ap
        rs_new = float(r @ r)
        res = math.sqrt(rs_new) / bnorm
        history.append(res)
        k += 1
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res < cfg.rel_tolerance:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new

    if not converged and best_res < history[-1]:
        # Return the best iterate seen; final_res reflects it.
        notes.append(f"returned best iterate (residual {best_res:.3e}) instead of the last")
        x = best_x
        out_res = best_res
    else:
        out_res = history[-1]
    report = SolveReport(
        k, time.perf_counter() - t0, out_res, np.array(history), converged, notes=tuple(notes)
    )
    return x, report


def _givens(a: float, b: float) -> tuple[float, float]:
    rho = math.hypot(a, b)
    if rho == 0.0:
        return 1.0, 0.0
    return a / rho, b / rho


def fgmres_solve(
    op: LinearOperator,
    precond,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
    config: FgmresConfig | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Flexible GMRES with right preconditioning.

    ``precond`` maps a residual-space vector to a preconditioned vector
    (a callable, an object with an ``apply`` method, or None for no
    preconditioning); it may differ between iterations.  Orthogonalization
    is modified Gram-Schmidt with one reorthogonalization pass whenever
    the new basis vector loses more than half its norm.

    A subdiagonal entry at or below 1e-14 * |rhs| is treated as a happy
    breakdown: the subspace already contains the solution.
    """
    cfg = config or FgmresConfig()
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.n_cols,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({op.n_cols},)")
    if precond is None:
        apply_pc = None
    elif hasattr(precond, "apply"):
        apply_pc = precond.apply
    else:
        apply_pc = precond

    t0 = time.perf_counter()
    bnorm = _norm(rhs)
    if bnorm == 0.0:
        return np.zeros_like(rhs), SolveReport(0, time.perf_counter() - t0, 0.0, np.array([0.0]), True)

    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=np.float64)
    r = rhs - op.apply(x) if np.any(x) else rhs.copy()
    rnorm = _norm(r)
    history = [rnorm / bnorm]
    notes: list[str] = []
    if history[0] < cfg.rel_tolerance:
        return x, SolveReport(0, time.perf_counter() - t0, history[0], np.array(history), True)

    it = 0
    resumptions = 0
    converged = False
    finished = False
    breakdown_tol = 1e-14 * bnorm

    while not finished:
        cycle_cap = cfg.max_iterations - it
        if cfg.restart is not None:
            cycle_cap = min(cycle_cap, cfg.restart)
        basis = [r / rnorm]          # orthonormal Arnoldi basis V
        zdirs: list[np.ndarray] = [] # preconditioned directions Z
        r_cols: list[np.ndarray] = []  # rotated Hessenberg columns (upper triangle)
        cos: list[float] = []
        sin: list[float] = []
        g = [rnorm]

        def assemble(j_count: int) -> np.ndarray:
            y = np.zeros(j_count)
            for k in range(j_count - 1, -1, -1):
                acc = g[k]
                for l in range(k + 1, j_count):
                    acc -= r_cols[l][k] * y[l]
                # A zero diagonal means the direction contributed nothing
                # (degenerate preconditioner); leave its weight at zero.
                y[k] = acc / r_cols[k][k] if r_cols[k][k] != 0.0 else 0.0
            xa = x.copy()
            for k in range(j_count):
                xa += y[k] * zdirs[k]
            return xa

        for j in range(cycle_cap):
            z = basis[j].copy() if apply_pc is None else np.asarray(apply_pc(basis[j]), dtype=np.float64)
            w = op.apply(z)
            if not np.all(np.isfinite(w)):
                raise NumericalFailureError(f"non-finite basis vector at iteration {it + 1}")
            zdirs.append(z)

            h = np.zeros(j + 2)
            norm_before = _norm(w)
            for i in range(j + 1):
                hij = float(basis[i] @ w)
                w -= hij * basis[i]
                h[i] = hij
            wnorm = _norm(w)
            if wnorm < 0.5 * norm_before:
                for i in range(j + 1):
                    corr = float(basis[i] @ w)
                    w -= corr * basis[i]
                    h[i] += corr
                wnorm = _norm(w)
            h[j + 1] = wnorm

            for i in range(j):
                hi, hi1 = h[i], h[i + 1]
                h[i] = cos[i] * hi + sin[i] * hi1
                h[i + 1] = -sin[i] * hi + cos[i] * hi1
            c, s = _givens(h[j], h[j + 1])
            cos.append(c)
            sin.append(s)
            h[j] = c * h[j] + s * h[j + 1]
            r_cols.append(h[: j + 1].copy())
            g.append(-s * g[j])
            g[j] = c * g[j]

            it += 1
            estimate = abs(g[j + 1]) / bnorm
            history.append(estimate)
            happy = wnorm <= breakdown_tol

            if happy or estimate < cfg.rel_tolerance or it >= cfg.max_iterations or j == cycle_cap - 1:
                x_cand = assemble(j + 1)
                r = rhs - op.apply(x_cand)
                true_res = _norm(r) / bnorm
                x = x_cand
                rnorm = true_res * bnorm
                history[-1] = true_res
                if happy:
                    notes.append(f"happy breakdown at iteration {it}")
                    converged = true_res < cfg.rel_tolerance or true_res <= 10 * breakdown_tol / bnorm
                    if not converged:
                        notes.append("breakdown iterate did not meet the tolerance")
                    finished = True
                elif true_res < cfg.rel_tolerance:
                    converged = True
                    finished = True
                elif estimate < cfg.rel_tolerance:
                    # The least-squares estimate drifted from the true
                    # residual (loose inner solves can do this); resume
                    # from the assembled iterate.
                    resumptions += 1
                    notes.append(
                        f"estimate {estimate:.3e} not confirmed (true {true_res:.3e}) "
                        f"at iteration {it}; resuming"
                    )
                    if resumptions > 3 or it >= cfg.max_iterations:
                        finished = True
                elif it >= cfg.max_iterations:
                    finished = True
                break
            basis.append(w / wnorm)

    report = SolveReport(
        it,
        time.perf_counter() - t0,
        history[-1],
        np.array(history),
        converged,
        notes=tuple(notes),
    )
    return x, report
