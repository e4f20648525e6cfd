"""Matrix-free conjugate gradient and right-preconditioned flexible GMRES.

CG solves the symmetric positive definite inner systems of the
preconditioners; flexible GMRES is the outer solver, and keeps the
preconditioned basis Z so that the preconditioner may change from one
iteration to the next (it does, whenever the inner solves are iterative).

Both solvers start from zero.  An iteration records the Arnoldi
least-squares estimate, or the true residual of the assembled iterate
wherever that is computed (early end, restart boundary, iteration cap).
A cycle ends early on an estimate below the tolerance or on an Arnoldi
breakdown, and only the true residual declares convergence: in flexible
GMRES a breakdown yields the solution only when H_j is nonsingular (Saad,
SIAM J. Sci. Comput. 14, 1993), and loose inner solves let the estimate
drift.  An unconfirmed early end resumes from the assembled iterate (at
most three times) before giving up.  A solve that gives up returns the
confirmed iterate with the lowest true residual (the zero start counts),
as CG returns its best iterate; its residual then closes the history.

Each outer step needs z_j = M^{-1} v_j and the Arnoldi product A z_j,
which the loop takes from one ``step`` callable; confirmations and
restarts assemble the iterate and take its residual with the operator's
apply, so convergence rests on true residuals whatever the step.  Each
confirmation is recorded as (iteration, estimate, true residual) in the
report.  ``fgmres_solve`` hands the block system of a Preconditioner's own
problem to ``ilsolve.preconditioners._block_solve``, which folds A2's
empty rows and takes z_j and A z_j from the preconditioner's own step;
every other solve steps with ``precond.apply`` followed by ``op.apply``.  ``cg_solve`` and
``fgmres_solve`` check the operator and the right-hand side; their loops
``_cg`` and ``_fgmres`` trust float64 vectors and use ``ndarray.dot``, the
BLAS calls of ``@`` without its dispatch.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import IndefiniteOperatorError, NumericalFailureError
from .operators import LinearOperator
from .sparse import _real

__all__ = ["CgConfig", "FgmresConfig", "SolveReport", "cg_solve", "fgmres_solve"]


def _count(name: str, value, least: int = 1) -> None:
    """A ValueError naming ``name`` unless ``value`` is an integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


@dataclass(frozen=True)
class CgConfig:
    rel_tolerance: float = 1e-3
    max_iterations: int = 1000

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ValueError("rel_tolerance must lie in (0, 1)")
        _count("max_iterations", self.max_iterations)


@dataclass(frozen=True)
class FgmresConfig:
    rel_tolerance: float = 1e-8
    max_iterations: int = 2000
    restart: int | None = None  # None = unrestarted

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance < 1.0):
            raise ValueError("rel_tolerance must lie in (0, 1)")
        _count("max_iterations", self.max_iterations)
        if self.restart is not None:
            _count("restart", self.restart)


@dataclass
class SolveReport:
    """Outcome of one solve: iteration count, wall time, relative residual
    history (length iterations + 1, last entry equals final_res), whether
    the solve converged, free-text notes, how many times flexible GMRES
    resumed after an unconfirmed early end, and one (iteration, estimate,
    true residual) entry per flexible GMRES confirmation."""

    iterations: int
    wall_seconds: float
    final_res: float
    res_history: np.ndarray
    converged: bool
    notes: tuple[str, ...] = ()
    resumptions: int = 0
    confirmations: tuple[tuple[int, float, float], ...] = ()


_BASIS_CHUNK = 32  # rows the FGMRES basis starts with (plus one) and grows by


def cg_solve(
    op: LinearOperator,
    rhs: np.ndarray,
    config: CgConfig | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradient for an SPD operator, from x = 0.

    Convergence is declared on the recurrence residual relative to |rhs|.
    A zero right-hand side returns the zero vector immediately, and a
    non-square operator or an rhs of the wrong shape or of non-finite norm
    raises ValueError, a complex rhs TypeError.  On a breakdown (p'Ap <= 0) an
    IndefiniteOperatorError is raised carrying the best iterate reached so
    far, and on a non-finite p'Ap a NumericalFailureError naming the
    iteration; when the iteration cap is hit the lowest-residual iterate
    is returned with converged=False.
    """
    cfg = config or CgConfig()
    if op.n_rows != op.n_cols:
        raise ValueError(f"operator is {op.n_rows} x {op.n_cols}, not square")
    rhs = _real(rhs, "rhs")
    if rhs.shape != (op.n_cols,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({op.n_cols},)")
    return _cg(lambda p: (op.apply(p), None), rhs, cfg)[:2]


def _cg(product, rhs: np.ndarray, cfg: CgConfig, image=None):
    """The CG loop of cg_solve, as (x, report, residual, image):
    ``product(p)`` gives (S p, A1 p), whose A1 p may be None where
    ``image`` is None.  ``image``, zeros of length p, is updated in place
    to A1 x.  ``residual`` is the recurrence residual rhs - S x; both are
    None when an earlier iterate is returned, and with them the paired
    step of ilsolve.preconditioners makes no product by A1 or A1'A1."""
    t0 = time.perf_counter()
    # r is updated in place; x and p are only rebound, so p may alias rhs
    # and the best iterate is a reference, not a copy.
    r, p = rhs.copy(), np.ascontiguousarray(rhs)
    rs = float(r.dot(r))
    bnorm = math.sqrt(rs)  # what np.linalg.norm computes
    if not math.isfinite(bnorm):
        raise ValueError(f"rhs is not finite: its norm is {bnorm}")
    if bnorm == 0.0:
        report = SolveReport(0, time.perf_counter() - t0, 0.0, np.array([0.0]), True)
        return np.zeros(len(rhs)), report, r, image

    x = best_x = np.zeros(len(rhs))
    history = [1.0]
    best_res = 1.0
    converged = False
    notes: list[str] = []
    k = 0
    while k < cfg.max_iterations:
        ap, a1p = product(p)
        pap = float(p.dot(ap))
        if not math.isfinite(pap):
            raise NumericalFailureError(
                f"p'Ap = {pap} at iteration {k + 1}: operator output is not finite"
            )
        if pap <= 0.0:
            raise IndefiniteOperatorError(
                f"p'Ap = {pap:.3e} <= 0 at iteration {k + 1}: operator is not SPD",
                x_best=best_x,
                iterations=k,
            )
        gamma = rs / pap
        x = x + gamma * p
        if image is not None:
            image += gamma * a1p
        r -= gamma * ap
        rs_new = float(r.dot(r))
        res = math.sqrt(rs_new) / bnorm
        history.append(res)
        k += 1
        if res < best_res:
            best_x, best_res = x, res
        if res < cfg.rel_tolerance:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new

    if not converged and best_res < history[-1]:
        # Return the best iterate seen; final_res reflects it.
        notes.append(f"returned best iterate (residual {best_res:.3e}) instead of the last")
        x = best_x
        out_res, residual, image = best_res, None, None
    else:
        out_res, residual = history[-1], r
    report = SolveReport(
        k, time.perf_counter() - t0, out_res, np.array(history), converged, notes=tuple(notes)
    )
    return x, report, residual, image


def _givens(a: float, b: float) -> tuple[float, float]:
    rho = math.hypot(a, b)
    if rho == 0.0:
        return 1.0, 0.0
    return a / rho, b / rho


def _assemble(x, g, r_cols, zdirs) -> np.ndarray:
    """x + y Z, with y from back substitution in the rotated upper
    triangular system R y = g (column k of R is ``r_cols[k]``) and the
    cycle's directions as the rows of Z.

    The rows y_k z_k are added to x one at a time, in order, so the sum
    rounds as the loop x += y_k z_k does; iteration counts depend on it.
    np.cumsum along the rows gives the same sums at several times the
    cost, and np.sum and x + y @ Z add in other orders."""
    j_count = len(r_cols)
    y = [0.0] * j_count
    for k in range(j_count - 1, -1, -1):
        acc = g[k]
        for l in range(k + 1, j_count):
            acc -= r_cols[l][k] * y[l]
        # A zero diagonal means the direction contributed nothing
        # (degenerate preconditioner); leave its weight at zero.
        y[k] = acc / r_cols[k][k] if r_cols[k][k] != 0.0 else 0.0
    terms = np.array(y)[:, None] * zdirs[:j_count]
    out = x + terms[0]
    for row in terms[1:]:
        out += row
    return out


def fgmres_solve(
    op: LinearOperator,
    precond,
    rhs: np.ndarray,
    config: FgmresConfig | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Flexible GMRES with right preconditioning, from x = 0.

    ``precond`` is any object whose ``apply`` maps a residual-space vector
    to a preconditioned one (``make_preconditioner("none", prob)`` is the
    identity); it may differ between iterations.  The Arnoldi basis V and
    the preconditioned directions Z are row-major arrays, started at 33
    rows (fewer for a shorter cycle) and grown by 32 rows whenever they
    fill.  Orthogonalization is classical Gram-Schmidt applied twice, two
    matrix-vector products per pass ("twice is enough": Giraud, Langou and
    Rozloznik, 2005); the flexible variant permits it because only V, not
    Z, is orthogonalized.

    A subdiagonal entry at or below 1e-14 * |A z_j| is a breakdown (a
    test that does not change when A is scaled); like an estimate below
    the tolerance it ends the cycle early, subject to the true-residual
    confirmation described in the module docstring.  A NaN or inf in
    A z_j raises NumericalFailureError naming the iteration; the check
    reads the |A z_j| of the breakdown test rather than scanning A z_j
    entry by entry.  A preconditioner output whose shape is not that of
    ``rhs`` raises ValueError naming its shape and the iteration; a
    non-square operator or an rhs of the wrong shape or with a NaN or inf
    raises ValueError before the solve, and a complex one TypeError.

    Given ``block_system_operator(prob)`` and a Preconditioner built on
    the same ``prob``, the solve is that preconditioner's block solve (see
    the module docstring); any other pair, a wrapped block operator
    included, steps with ``precond.apply`` and ``op.apply``.  The true
    residuals of confirmations and restarts always come from the operator.
    """
    cfg = config or FgmresConfig()
    if op.n_rows != op.n_cols:
        raise ValueError(f"operator is {op.n_rows} x {op.n_cols}, not square")
    rhs = _real(rhs, "rhs")
    if rhs.shape != (op.n_cols,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({op.n_cols},)")
    if not np.isfinite(rhs).all():
        raise ValueError("rhs is not finite")
    # Imported here: both modules import this one.
    from .preconditioners import Preconditioner, _block_solve
    from .problem import _BlockOperator

    own = isinstance(op, _BlockOperator) and isinstance(precond, Preconditioner)
    if own and op.problem is precond.problem:
        return _block_solve(precond, rhs, cfg)
    calls = itertools.count(1)  # the step runs once per iteration

    def step(v):
        z = _real(precond.apply(v), "preconditioner output")
        it = next(calls)
        if z.shape != rhs.shape:
            raise ValueError(
                f"preconditioner output has shape {z.shape}, expected {rhs.shape}, at iteration {it}"
            )
        return z, op.apply(z)

    return _fgmres(op.apply, step, rhs, cfg)


def _fgmres(apply, step, rhs: np.ndarray, cfg: FgmresConfig) -> tuple[np.ndarray, SolveReport]:
    """The flexible GMRES loop: ``step(v)`` gives (z, A z) for z the
    preconditioned direction of v, and ``apply(x)`` the product A x of a
    true residual."""
    t0 = time.perf_counter()
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros(len(rhs)), SolveReport(0, time.perf_counter() - t0, 0.0, np.array([0.0]), True)

    x = np.zeros(len(rhs))
    r, rnorm = rhs, bnorm
    history = [1.0]
    confirmations: list[tuple[int, float, float]] = []
    # The confirmed iterate with the lowest true residual (x = 0 to start),
    # returned when the solve gives up.
    best_x, best_res, best_it = x, 1.0, 0
    notes: list[str] = []
    it = 0
    resumptions = 0
    converged = False
    finished = False

    while not finished:
        cycle_cap = cfg.max_iterations - it
        if cfg.restart is not None:
            cycle_cap = min(cycle_cap, cfg.restart)
        rows = min(cycle_cap, _BASIS_CHUNK) + 1
        basis = np.empty((rows, len(rhs)))  # orthonormal V, by rows
        zdirs = np.empty((rows, len(rhs)))  # preconditioned directions Z, by rows
        np.divide(r, rnorm, out=basis[0])
        r_cols: list[list[float]] = []  # rotated Hessenberg columns (upper triangle)
        cos: list[float] = []
        sin: list[float] = []
        g = [rnorm]

        for j in range(cycle_cap):
            z, w = step(basis[j])
            # |A z_j| scales the breakdown test, so scaling A leaves the test
            # alone, and shows a NaN or inf in A z_j before V w warns of it.
            az2 = float(w.dot(w))
            if not math.isfinite(az2):
                raise NumericalFailureError(f"non-finite basis vector at iteration {it + 1}")
            zdirs[j] = z

            v = basis[: j + 1]
            coef = v.dot(w)
            w -= coef.dot(v)
            corr = v.dot(w)
            w -= corr.dot(v)
            wnorm = math.sqrt(float(w.dot(w)))  # what np.linalg.norm computes
            breakdown = wnorm <= 1e-14 * math.sqrt(az2)
            h = (coef + corr).tolist()
            h.append(wnorm)

            for i in range(j):
                hi, hi1 = h[i], h[i + 1]
                h[i] = cos[i] * hi + sin[i] * hi1
                h[i + 1] = -sin[i] * hi + cos[i] * hi1
            c, s = _givens(h[j], h[j + 1])
            cos.append(c)
            sin.append(s)
            h[j] = c * h[j] + s * h[j + 1]
            del h[j + 1]
            r_cols.append(h)
            g.append(-s * g[j])
            g[j] = c * g[j]

            it += 1
            estimate = abs(g[j + 1]) / bnorm
            history.append(estimate)
            early = breakdown or estimate < cfg.rel_tolerance

            if early or it >= cfg.max_iterations or j == cycle_cap - 1:
                # Confirmation: only the true residual declares convergence.
                x = _assemble(x, g, r_cols, zdirs)
                r = rhs - apply(x)
                true_res = float(np.linalg.norm(r)) / bnorm
                rnorm = true_res * bnorm
                history[-1] = true_res
                confirmations.append((it, estimate, true_res))
                if true_res < best_res:
                    best_x, best_res, best_it = x, true_res, it
                if breakdown:
                    notes.append(f"happy breakdown at iteration {it}")
                converged = true_res < cfg.rel_tolerance
                unconfirmed = early and not converged
                finished = (
                    converged or it >= cfg.max_iterations or (unconfirmed and resumptions == 3)
                )
                if unconfirmed:
                    resumptions += not finished
                    notes.append(
                        f"iterate at iteration {it} did not meet the tolerance "
                        f"(estimate {estimate:.3e}, true {true_res:.3e}); "
                        + ("giving up" if finished else "resuming")
                    )
                break
            if j + 1 == len(basis):
                basis = np.concatenate([basis, np.empty((_BASIS_CHUNK, len(rhs)))])
                zdirs = np.concatenate([zdirs, np.empty((_BASIS_CHUNK, len(rhs)))])
            np.divide(w, wnorm, out=basis[j + 1])

    if best_res < history[-1]:
        # Giving up: the last iterate is not the best one confirmed.
        notes.append(
            f"returned the iterate of iteration {best_it} (true residual "
            f"{best_res:.3e}) instead of the last ({history[-1]:.3e})"
        )
        x = best_x
        history[-1] = best_res
    report = SolveReport(
        it,
        time.perf_counter() - t0,
        history[-1],
        np.array(history),
        converged,
        notes=tuple(notes),
        resumptions=resumptions,
        confirmations=tuple(confirmations),
    )
    return x, report
