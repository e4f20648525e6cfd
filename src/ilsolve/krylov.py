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
as capped CG returns its best iterate, and its residual closes the history.

Each outer step needs z_j = M^{-1} v_j and the Arnoldi product A z_j, which
the loop takes from one ``step`` callable.  Confirmations and restarts
assemble the iterate x0 + Z y, with y from one LAPACK solve of the rotated
triangular system R y = g, and take its residual with the operator's
product, so convergence rests on true residuals whatever the step; each is
recorded as (iteration, estimate, true residual).  The block system's
solve, ``ilsolve.preconditioners.solve``, folds A2's empty rows and takes
z_j and A z_j from the preconditioner's own step; ``fgmres_solve`` steps
with ``precond.apply`` followed by ``op.apply``, save for a benchmark
route to that block solve, kept for ``perfbench/``.  ``cg_solve`` and
``fgmres_solve`` check the operator and the right-hand side; their loops
``_cg`` and ``_fgmres`` trust float64 vectors of finite norm and use
``ndarray.dot``, the BLAS calls of ``@`` without its dispatch.
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


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve, built once: wall time, the relative residual
    history (a read-only float64 copy of the nonempty 1-D sequence given),
    whether it converged, free-text notes, how many times flexible GMRES
    resumed after an unconfirmed early end, one (iteration, estimate, true
    residual) per confirmation and a block solve's (inner iterations,
    converged) per outer step.  ``iterations`` and ``final_res`` are the
    history's length less one and last entry; the inner totals sum ``inner``."""

    wall_seconds: float
    res_history: np.ndarray
    converged: bool
    notes: tuple[str, ...] = ()
    resumptions: int = 0
    confirmations: tuple[tuple[int, float, float], ...] = ()
    inner: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):  # a read-only copy, so no one's writes reach it
        history = np.array(self.res_history, dtype=float)
        if history.ndim != 1 or not len(history):
            raise ValueError(f"res_history must be a nonempty 1-D sequence, got shape {history.shape}")
        history.setflags(write=False)
        object.__setattr__(self, "res_history", history)

    iterations = property(lambda self: len(self.res_history) - 1)
    final_res = property(lambda self: float(self.res_history[-1]))
    inner_iterations = property(lambda self: sum(count for count, _ in self.inner))
    inner_failures = property(lambda self: sum(not converged for _, converged in self.inner))


def _checked_rhs(shape: tuple[int, int], rhs) -> np.ndarray:
    """The solvers' entry check: ``rhs`` as float64 of the size of a square
    operator of ``shape``, with a finite 2-norm (so no NaN or inf entry)."""
    if shape[0] != shape[1]:
        raise ValueError(f"operator is {shape[0]} x {shape[1]}, not square")
    rhs = _real(rhs, "rhs")
    if rhs.shape != (shape[1],):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({shape[1]},)")
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(rhs.dot(rhs)))
    if not math.isfinite(norm):
        raise ValueError(f"rhs is not finite or too large: its 2-norm is {norm}")
    return rhs


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
    is returned with converged=False, its residual closing the history.
    """
    cfg = config or CgConfig()
    rhs = _checked_rhs(op.shape, rhs)
    t0 = time.perf_counter()
    x, history, converged, residual, _ = _cg(lambda p: (op.apply(p), None), rhs, cfg)
    best = f"returned best iterate (residual {history[-1]:.3e}) instead of the last"
    return x, SolveReport(time.perf_counter() - t0, history, converged, (best,) if residual is None else ())


def _cg(product, rhs: np.ndarray, cfg: CgConfig, image=None):
    """The CG loop of cg_solve, as (x, history, converged, residual, image):
    ``product(p)`` gives (S p, A1 p), whose A1 p may be None where
    ``image``, zeros of length p updated in place to A1 x, is None.
    ``history`` lists the relative recurrence residuals, and ``residual``
    is rhs - S x.  When the cap returns an earlier iterate, its residual
    closes the history and ``residual`` and ``image`` are None; with them
    the paired step of ilsolve.preconditioners makes no product by A1 or A1'A1."""
    # r is updated in place; x and p are only rebound, so p may alias rhs
    # and the best iterate is a reference, not a copy.
    r, p = rhs.copy(), np.ascontiguousarray(rhs)
    rs = float(r.dot(r))
    bnorm = math.sqrt(rs)  # what np.linalg.norm computes
    if bnorm == 0.0:
        return np.zeros(len(rhs)), [0.0], True, r, image

    x = best_x = np.zeros(len(rhs))
    history = [1.0]
    best_res = 1.0
    for k in range(cfg.max_iterations):
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
        if res < best_res:
            best_x, best_res = x, res
        if res < cfg.rel_tolerance:
            return x, history, True, r, image
        p = r + (rs_new / rs) * p
        rs = rs_new

    if best_res < history[-1]:  # capped: the best iterate seen closes the history
        history[-1] = best_res
        return best_x, history, False, None, None
    return x, history, False, r, image


def _givens(a: float, b: float) -> tuple[float, float]:
    rho = math.hypot(a, b)
    if rho == 0.0:
        return 1.0, 0.0
    return a / rho, b / rho


def _assemble(x, g, r_cols, zdirs) -> np.ndarray:
    """x + y Z, y from one LAPACK solve of the rotated upper triangular
    system R y = g (column k of R is ``r_cols[k]``), Z's rows the cycle's
    directions.  A zero diagonal (a direction that contributed nothing)
    becomes a unit row of R with g's entry zero: its weight is zero."""
    j = len(r_cols)
    r = np.zeros((j, j))
    r.T[np.tri(j, dtype=bool)] = np.concatenate(r_cols)  # R' by rows: R by columns
    dead = r.diagonal() == 0.0
    r[dead] = np.eye(j)[dead]
    return x + np.linalg.solve(r, np.where(dead, 0.0, g[:j])) @ zdirs[:j]


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
    non-square operator or an rhs of the wrong shape or of non-finite norm
    (a NaN or inf, or entries whose 2-norm overflows) raises ValueError
    before the solve, and a complex one TypeError.

    Given ``block_system_operator(prob)`` and a Preconditioner built on
    the same ``prob``, the solve is ``ilsolve.preconditioners.solve``'s
    (a benchmark route); any other pair, a wrapped block operator included,
    steps with ``precond.apply`` and ``op.apply``.  The true residuals of
    confirmations and restarts always come from the operator.
    """
    cfg = config or FgmresConfig()
    rhs = _checked_rhs(op.shape, rhs)
    # Imported here: both modules import this one.
    from .preconditioners import Preconditioner, _block_solve
    from .problem import _BlockOperator

    if isinstance(op, _BlockOperator) and isinstance(precond, Preconditioner) and op.problem is precond.problem:
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
        return np.zeros(len(rhs)), SolveReport(time.perf_counter() - t0, [0.0], True)

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
    wall = time.perf_counter() - t0
    return x, SolveReport(wall, history, converged, tuple(notes), resumptions, tuple(confirmations))
