"""Desk-scale diagnostics: convergence conditions, stationary iterations,
and the spectral structure of the preconditioned operators.

Everything here forms small matrices densely on purpose.  The point of
this module is verification, not production solving: positive definiteness
is certified by attempted Cholesky factorizations (LAPACK), null spaces
come from one LAPACK SVD, the other symmetric eigenproblems go through a
cyclic Jacobi sweep, and the preconditioned operator M^{-1} A is assembled
densely once per check, by batched preconditioner applies to the block
matrix (one at desk scale).  Spectral radii of the (non-symmetric)
iteration operators I - M^{-1} A are the largest eigenvalue moduli of that
matrix (``np.linalg.eigvals``), and the predicted eigenvector families are
checked against the same matrix.  The pencil (A1'A1 - A2'A2, alpha*I +
A1'A1) and null(A2') are decomposed once per problem and shared by the
four variants' eigenstructure checks.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dense import _block_inverses, dense_cholesky, is_spd, solve_lower, solve_lower_transpose
from .exceptions import (
    AccuracyWarning,
    ConfigurationError,
    NotSpdError,
    RankAmbiguityWarning,
    StationaryDivergenceError,
)
from .krylov import FgmresConfig, SolveReport
from .preconditioners import _BACKSUB_FIRST, _COUPLED_RHS
from .preconditioners import IBS_VARIANTS, assemble_dense_preconditioned, make_preconditioner, solve
from .problem import IlsProblem, apply_block_A, build_rhs, dense_blocks
from .sparse import _count

__all__ = [
    "ConditionReport",
    "EigenvectorFamily",
    "SpectralReport",
    "GmresBoundResult",
    "check_convergence_conditions",
    "stationary_solve",
    "spectral_radius_estimate",
    "jacobi_eigh",
    "generalized_sym_eigpairs",
    "null_space_basis",
    "verify_eigenstructure",
    "gmres_bound_check",
]

_EPS = float(np.finfo(np.float64).eps)


def _ibs_kind(kind: str, check: str) -> str:
    """``kind`` in lower case; a ValueError unless it is an ibs variant."""
    kind = kind.lower()
    if kind not in IBS_VARIANTS:
        raise ValueError(f"{check} is defined for {IBS_VARIANTS}, got {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# Symmetric eigensolvers (cyclic Jacobi)
# ---------------------------------------------------------------------------

def jacobi_eigh(s: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below tol times the
    Frobenius norm of the input, or the sweep cap is hit (which emits an
    AccuracyWarning with the achieved off-norm).  Returns eigenvalues in
    ascending order and the matching orthonormal eigenvector columns.
    """
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if n and np.abs(a - a.T).max() > 1e-12 * max(np.abs(a).max(), 1e-300):
        raise ValueError("matrix is not symmetric to the required tolerance")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    frob = float(np.linalg.norm(a))
    if n < 2 or frob == 0.0:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], v[:, order]

    def off_norm(m):
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if off_norm(a) < tol * frob:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                # Stable rotation angle (smaller root of t^2 + 2*theta*t = 1);
                # Python-float arithmetic so an overflowing theta degrades to
                # inf and the rotation to a plain flush of the tiny entry.
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                sgn = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sgn * rq
                a[q, :] = sgn * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - sgn * cq
                a[:, q] = sgn * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sgn * vq
                v[:, q] = sgn * vp + c * vq
    if off_norm(a) >= tol * frob:
        warnings.warn(
            f"Jacobi sweep cap reached with off-diagonal norm {off_norm(a):.3e}",
            AccuracyWarning,
            stacklevel=2,
        )
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)
    return eigvals[order], v[:, order]


def generalized_sym_eigpairs(b: np.ndarray, c: np.ndarray):
    """Eigenpairs of C^{-1} B for symmetric B and SPD C.

    Factors C = L L', forms S = L^{-1} B L^{-T}, runs Jacobi, and maps the
    eigenvectors back (they are C-orthonormal, not orthonormal).
    """
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if b.shape != c.shape or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("matrices must be square and of equal size")
    if b.shape[0] > 1000:
        raise ConfigurationError(f"generalized eigensolver capped at n = 1000, got {b.shape[0]}")
    try:
        lower = dense_cholesky(c)
    except NotSpdError as exc:
        raise ValueError("second matrix of the pencil must be SPD") from exc
    inverses = _block_inverses(lower)
    t = solve_lower(lower, b, inverses)
    s = solve_lower(lower, t.T, inverses).T
    s = 0.5 * (s + s.T)
    w, y_tilde = jacobi_eigh(s)
    y = solve_lower_transpose(lower, y_tilde, inverses)
    return w, y


def null_space_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of m (columns), from one SVD.

    The squared singular values, zero-padded to m's column count, are the
    eigenvalues w of m'm; the null space is spanned by the right singular
    vectors with w <= dim * eps * max(w).  m'm is never formed, so they are
    null to rounding (Golub and Van Loan, Matrix Computations, sec. 5.4).
    Warns RankAmbiguityWarning when the smallest retained eigenvalue sits
    within a decade of the threshold, i.e. when the rank decision is fragile.
    """
    m = np.asarray(m, dtype=np.float64)
    _, sing, vt = np.linalg.svd(m)
    w = np.pad(sing**2, (0, m.shape[1] - sing.size))
    thresh = m.shape[1] * _EPS * w.max(initial=0.0)
    null_mask = w <= thresh
    kept = w[~null_mask]
    if kept.size and thresh > 0.0 and kept.min() < 10.0 * thresh:
        warnings.warn(
            f"numerical rank ambiguous: eigenvalue {kept.min():.3e} is near threshold {thresh:.3e}",
            RankAmbiguityWarning,
            stacklevel=2,
        )
    return vt[null_mask].T


# ---------------------------------------------------------------------------
# Convergence conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Positive-definiteness certificates for the matrices that govern
    stationary convergence, plus the conditioning of the inner matrices.

    With H = A1'A1 - A2'A2 and S = alpha*I + A1'A1, ``spd_normal`` covers
    H, the problem's standing hypothesis (see ProblemAssumptionError), and
    the shifted certificates test S - A2'A2 = H + alpha*I, 2S - A1'A1 -
    A2'A2 = H + 2alpha*I and 2S - A1'A1 + A2'A2 = A1'A1 + A2'A2 + 2alpha*I.
    IlsProblem rejects alpha < 0, so ``spd_normal`` implies all three, and
    it alone certifies convergence of ibs1-ibs4: without it the shifted
    combinations can be SPD while rho(I - M^{-1}A) exceeds 1.
    """

    spd_normal: bool
    spd_shifted_minus_a2gram: bool
    spd_two_shifted_minus: bool
    spd_two_shifted_plus: bool
    kappa_gram: float
    kappa_shifted_gram: float


CONDITIONS_MAX_N = 2000  # largest n for which the conditions are checked densely


def check_convergence_conditions(prob: IlsProblem) -> ConditionReport:
    """Certify the stationary-convergence conditions on dense desk-scale
    copies of the blocks."""
    if prob.n > CONDITIONS_MAX_N:
        raise ConfigurationError(f"condition checks capped at n = {CONDITIONS_MAX_N}, got {prob.n}")
    a1d, a2d = dense_blocks(prob)
    gram = a1d.T @ a1d
    a2gram = a2d.T @ a2d
    shifted = gram + prob.alpha * np.eye(prob.n)

    eigs_gram, _ = jacobi_eigh(gram)
    lam_min, lam_max = float(eigs_gram[0]), float(eigs_gram[-1])
    kappa_gram = lam_max / lam_min if lam_min > 0.0 else math.inf
    denom = prob.alpha + lam_min
    kappa_shifted = (prob.alpha + lam_max) / denom if denom > 0.0 else math.inf

    return ConditionReport(
        spd_normal=is_spd(gram - a2gram),
        spd_shifted_minus_a2gram=is_spd(shifted - a2gram),
        spd_two_shifted_minus=is_spd(2.0 * shifted - gram - a2gram),
        spd_two_shifted_plus=is_spd(2.0 * shifted - gram + a2gram),
        kappa_gram=kappa_gram,
        kappa_shifted_gram=kappa_shifted,
    )


# ---------------------------------------------------------------------------
# Stationary iterations
# ---------------------------------------------------------------------------

def stationary_solve(
    kind: str,
    prob: IlsProblem,
    tol: float = 1e-8,
    maxit: int = 1000,
) -> tuple[np.ndarray, SolveReport]:
    """Run the splitting's stationary iteration x <- x + M^{-1}(rhs - A x)
    from x = 0, with exact (dense Cholesky) inner solves.

    ``tol`` must lie in (0, 1) and ``maxit`` be an integer >= 1 (a
    ValueError names the argument).  Raises StationaryDivergenceError once
    the relative residual exceeds 1e8 times its initial value; that is the
    expected outcome when the convergence conditions fail.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    _count("maxit", maxit)
    pre = make_preconditioner(_ibs_kind(kind, "the stationary iteration"), prob, inner="cholesky")
    rhs = build_rhs(prob)
    denom = float(np.linalg.norm(rhs)) or 1.0
    x = np.zeros(prob.size)

    t0 = time.perf_counter()
    r = rhs
    history = [float(np.linalg.norm(r)) / denom]
    while history[-1] >= tol and len(history) <= maxit:
        x = x + pre.apply(r)
        r = rhs - apply_block_A(prob, x)
        res = float(np.linalg.norm(r)) / denom
        history.append(res)
        if res > 1e8 * history[0]:  # the first residual is at least tol here
            report = SolveReport(time.perf_counter() - t0, history, False, ("divergence guard tripped",))
            raise StationaryDivergenceError(
                f"residual grew to {res:.3e} (1e8 x initial) at iteration {report.iterations}", report=report
            )
    return x, SolveReport(time.perf_counter() - t0, history, history[-1] < tol)


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

def spectral_radius_estimate(kind: str, prob: IlsProblem) -> float:
    """Spectral radius of the iteration operator I - M^{-1} A, with exact
    inner solves, assembled densely at desk scale: the largest eigenvalue
    modulus from ``np.linalg.eigvals``."""
    return _radius(assemble_dense_preconditioned(kind, prob))


def _radius(t: np.ndarray) -> float:
    """Spectral radius of I - t for an assembled M^{-1} A."""
    return float(np.abs(np.linalg.eigvals(np.eye(len(t)) - t)).max())


# ---------------------------------------------------------------------------
# Eigenstructure verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvectorFamily:
    """Residual checks of one family of predicted eigenvectors.

    ``count`` is the number of independent candidates actually checked
    (the observed multiplicity); a family that is empty by construction
    sets ``vacuous`` and passes trivially.
    """

    label: str
    eigenvalues: np.ndarray
    residuals: np.ndarray
    vacuous: bool = False

    @property
    def count(self) -> int:
        return len(self.residuals)

    def passed(self, tol: float = 1e-10) -> bool:
        return self.vacuous or (self.count > 0 and float(np.max(self.residuals)) <= tol)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.count else math.nan


@dataclass(frozen=True)
class SpectralReport:
    """Spectral diagnostics for one preconditioner variant; ``disk_contained``
    is rho_estimate < 1: every eigenvalue of M^{-1} A lies in |1 - z| < 1."""

    kind: str
    rho_estimate: float
    interval_eigs: np.ndarray
    unit_eigenvalue_checks: list[EigenvectorFamily]
    nonunit_checks: list[EigenvectorFamily]
    disk_contained: bool
    interval_contained: bool | None

    def families(self) -> list[EigenvectorFamily]:
        return list(self.unit_eigenvalue_checks) + list(self.nonunit_checks)


def _vacuous(label) -> EigenvectorFamily:
    return EigenvectorFamily(label, np.zeros(0), np.zeros(0), vacuous=True)


def _family(label, t, v, mus) -> EigenvectorFamily:
    """Residuals ||t v - mu v|| / ||v|| of the candidate columns of v; a
    vacuous family when there are none."""
    if not v.shape[1]:
        return _vacuous(label)
    residuals = np.linalg.norm(t @ v - v * mus, axis=0) / np.linalg.norm(v, axis=0)
    return EigenvectorFamily(label, mus, residuals)


def _stack(prob, d1=None, x=None, d2=None) -> np.ndarray:
    """Candidate columns (d1; x; d2) as one block; a missing part is zero."""
    k = next(b.shape[1] for b in (d1, x, d2) if b is not None)
    parts = zip((prob.p, prob.n, prob.q), (d1, x, d2))
    return np.vstack([np.zeros((rows, k)) if b is None else b for rows, b in parts])


def _null_family(label, t, prob, m, part) -> EigenvectorFamily:
    """Unit-eigenvalue family of null(m) placed in block ``part``; vacuous,
    with a RankAmbiguityWarning, when the rank of m is ambiguous."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankAmbiguityWarning)
        try:
            basis = prob._shared(label, lambda: null_space_basis(m))
        except RankAmbiguityWarning:
            basis = None
    if basis is None:
        warnings.warn(
            f"rank decision ambiguous for the {label}; family skipped",
            RankAmbiguityWarning,
            stacklevel=3,
        )
        return _vacuous(f"unit: {label} (skipped, rank ambiguous)")
    return _family(f"unit: {label}", t, _stack(prob, **{part: basis}), np.ones(basis.shape[1]))


def verify_eigenstructure(kind: str, prob: IlsProblem) -> SpectralReport:
    """Build the predicted eigenvectors of the preconditioned operator and
    measure their residuals against M^{-1} A, assembled once with exact
    inner solves; the same matrix gives ``rho_estimate``.

    Unit-eigenvalue families: first-block unit vectors for every variant;
    third-block vectors from the null space of A2' for ibs1/ibs3; full
    third-block unit vectors for ibs2/ibs4.  Middle-block families that
    require null vectors of the shift gap are empty whenever alpha > 0 and
    are reported as vacuous rather than failed.  A null-space family whose
    rank decision is ambiguous is reported as vacuous, with a
    RankAmbiguityWarning.  Non-unit families (ibs2 and ibs4) come from the
    symmetric pencil (A1'A1 - A2'A2, alpha*I + A1'A1).  The pencil and
    null(A2') are decomposed once per problem and shared by the variants.
    """
    kind = _ibs_kind(kind, "the eigenstructure check")
    coupled = kind in _COUPLED_RHS
    p, q = prob.p, prob.q
    t = assemble_dense_preconditioned(kind, prob)

    a1d, a2d = dense_blocks(prob)
    def pencil():
        gram = a1d.T @ a1d
        return generalized_sym_eigpairs(gram - a2d.T @ a2d, gram + prob.alpha * np.eye(prob.n))

    unit = [_family("unit: first-block basis", t, _stack(prob, d1=np.eye(p)), np.ones(p))]
    if coupled:
        unit.append(_family("unit: third-block basis", t, _stack(prob, d2=np.eye(q)), np.ones(q)))
    else:
        unit.append(_null_family("null(A2') basis", t, prob, a2d.T, "d2"))
    if kind in _BACKSUB_FIRST:
        # Middle-block unit-eigenvalue family needs (shifted - gram) y = 0,
        # which has no nonzero solutions when alpha > 0.
        if prob.alpha > 0.0:
            unit.append(_vacuous("unit: middle-block family (empty for alpha > 0)"))
        else:
            unit.append(_null_family("null(A2) middle-block basis", t, prob, a2d, "x"))

    interval_eigs, y_vectors = prob._shared("pencil", pencil)

    if coupled:
        keep = np.abs(interval_eigs - 1.0) > 1e-8
        mus, y = interval_eigs[keep], y_vectors[:, keep]
        a1y = a1d @ y
        d1 = a1y / (mus - 1.0) if kind == "ibs2" else -a1y
        v = _stack(prob, d1=d1, x=y, d2=(a2d @ y) / (mus - 1.0))
        nonunit = [_family("non-unit: generalized eigenpairs", t, v, mus)]
    else:
        nonunit = [_vacuous("non-unit families not constructed for this variant")]

    rho = _radius(t)
    return SpectralReport(
        kind=kind,
        rho_estimate=rho,
        interval_eigs=interval_eigs,
        unit_eigenvalue_checks=unit,
        nonunit_checks=nonunit,
        disk_contained=rho < 1.0,
        interval_contained=(
            bool(np.all((interval_eigs > 0.0) & (interval_eigs < 2.0))) if coupled else None
        ),
    )


# ---------------------------------------------------------------------------
# GMRES termination bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GmresBoundResult:
    iterations: int
    bound: int
    passed: bool


def gmres_bound_check(kind: str, prob: IlsProblem) -> GmresBoundResult:
    """Unrestarted flexible GMRES with exact inner solves must reach a
    1e-12 relative residual in at most n + q + 1 iterations (the minimal
    polynomial degree bound of the preconditioned matrix)."""
    cfg = FgmresConfig(rel_tolerance=1e-12, max_iterations=prob.size, restart=None)
    _, report = solve(prob, _ibs_kind(kind, "the bound check"), inner="cholesky", config=cfg)
    bound = prob.n + prob.q + 1
    return GmresBoundResult(report.iterations, bound, bool(report.converged and report.iterations <= bound))
