"""Desk-scale diagnostics: convergence conditions, stationary iterations,
and the spectral structure of the preconditioned operators.

Everything here forms small matrices densely on purpose.  The point of
this module is verification, not production solving: positive
definiteness is certified by attempted Cholesky factorizations (LAPACK),
symmetric eigenproblems go through a cyclic Jacobi sweep, and spectral
radii of the (non-symmetric) iteration operators are the largest
eigenvalue moduli of the assembled dense operators (``np.linalg.eigvals``).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dense import dense_cholesky, is_spd, one_norm_dense, solve_lower, solve_lower_transpose
from .exceptions import (
    AccuracyWarning,
    ConfigurationError,
    NotSpdError,
    RankAmbiguityWarning,
    StationaryDivergenceError,
)
from .krylov import FgmresConfig, SolveReport, fgmres_solve
from .preconditioners import IBS_VARIANTS, assemble_dense_preconditioned, make_preconditioner
from .problem import IlsProblem, apply_block_A, block_system_operator, build_rhs, dense_blocks

__all__ = [
    "ConditionReport",
    "EigenvectorFamily",
    "SpectralReport",
    "GmresBoundResult",
    "check_convergence_conditions",
    "stationary_solve",
    "spectral_radius_estimate",
    "jacobi_eigh",
    "generalized_sym_eigs",
    "generalized_sym_eigpairs",
    "null_space_basis",
    "verify_eigenstructure",
    "gmres_bound_check",
]

_EPS = float(np.finfo(np.float64).eps)


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
    t = solve_lower(lower, b)
    s = solve_lower(lower, t.T).T
    s = 0.5 * (s + s.T)
    w, y_tilde = jacobi_eigh(s)
    y = solve_lower_transpose(lower, y_tilde)
    return w, y


def generalized_sym_eigs(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Eigenvalues of C^{-1} B (ascending) for symmetric B, SPD C."""
    w, _ = generalized_sym_eigpairs(b, c)
    return w


def null_space_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of m (columns), using a Jacobi
    eigendecomposition of m'm with rank threshold dim * eps * lambda_max.

    Null candidates are polished by projecting out the row-space
    eigenvectors (whose accuracy is set by the spectral gap, not by the
    square root of the threshold) and re-orthonormalizing.  Warns
    RankAmbiguityWarning when the smallest retained eigenvalue sits within
    a decade of the threshold, i.e. when the rank decision is fragile.
    """
    m = np.asarray(m, dtype=np.float64)
    gram = m.T @ m
    w, v = jacobi_eigh(gram)
    lam_max = float(w[-1]) if w.size else 0.0
    thresh = gram.shape[0] * _EPS * max(lam_max, 0.0)
    null_mask = w <= thresh
    kept = w[~null_mask]
    if kept.size and thresh > 0.0 and kept.min() < 10.0 * thresh:
        warnings.warn(
            f"numerical rank ambiguous: eigenvalue {kept.min():.3e} is near threshold {thresh:.3e}",
            RankAmbiguityWarning,
            stacklevel=2,
        )
    basis = v[:, null_mask]
    row_space = v[:, ~null_mask]
    if basis.shape[1] and row_space.shape[1]:
        basis = basis - row_space @ (row_space.T @ basis)
        # Re-orthonormalize (two Gram-Schmidt passes).
        for _ in range(2):
            for j in range(basis.shape[1]):
                if j:
                    basis[:, j] -= basis[:, :j] @ (basis[:, :j].T @ basis[:, j])
                basis[:, j] /= np.linalg.norm(basis[:, j])
    return basis


# ---------------------------------------------------------------------------
# Convergence conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Positive-definiteness certificates for the matrices that govern
    stationary convergence, plus the conditioning of the inner matrices.

    ``spd_normal`` covers A1'A1 - A2'A2; the *_shifted variants replace
    the Gram matrix by its alpha-shifted version inside the tested
    combinations; ``spsd_shift`` certifies the shift gap (alpha*I when the
    default choice is in use).
    """

    spd_normal: bool
    spd_shifted_minus_a2gram: bool
    spd_two_shifted_minus: bool
    spd_two_shifted_plus: bool
    spsd_shift: bool
    kappa_gram: float
    kappa_shifted_gram: float

    @property
    def ibs13_converges(self) -> bool:
        return self.spd_two_shifted_minus and self.spd_shifted_minus_a2gram

    @property
    def ibs24_converges(self) -> bool:
        return self.spd_two_shifted_plus


def _is_spsd(m: np.ndarray) -> bool:
    norm = one_norm_dense(m)
    if norm == 0.0:
        return True
    shift = m.shape[0] * _EPS * norm
    return is_spd(m + shift * np.eye(m.shape[0]))


def check_convergence_conditions(prob: IlsProblem, cap: int = 2000) -> ConditionReport:
    """Certify the stationary-convergence conditions on dense desk-scale
    copies of the blocks."""
    if prob.n > cap:
        raise ConfigurationError(f"condition checks capped at n = {cap}, got {prob.n}")
    a1d, a2d = dense_blocks(prob)
    gram = a1d.T @ a1d
    a2gram = a2d.T @ a2d
    eye = np.eye(prob.n)
    shifted = gram + prob.alpha * eye

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
        spsd_shift=_is_spsd(shifted - gram),
        kappa_gram=kappa_gram,
        kappa_shifted_gram=kappa_shifted,
    )


# ---------------------------------------------------------------------------
# Stationary iterations
# ---------------------------------------------------------------------------

def stationary_solve(
    kind: str,
    prob: IlsProblem,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxit: int = 1000,
) -> tuple[np.ndarray, SolveReport]:
    """Run the splitting's stationary iteration x <- x + M^{-1}(rhs - A x)
    with exact (dense Cholesky) inner solves.

    Raises StationaryDivergenceError once the relative residual exceeds
    1e8 times its initial value; that is the expected outcome when the
    convergence conditions fail.
    """
    kind = kind.lower()
    if kind not in IBS_VARIANTS:
        raise ValueError(f"stationary iterations are defined for {IBS_VARIANTS}, got {kind!r}")
    pre = make_preconditioner(kind, prob, inner="cholesky")
    rhs = build_rhs(prob).data
    denom = float(np.linalg.norm(rhs))
    denom = denom if denom > 0.0 else 1.0
    x = np.zeros(prob.size) if x0 is None else np.array(x0, dtype=np.float64)

    t0 = time.perf_counter()
    r = rhs - apply_block_A(prob, x)
    res = float(np.linalg.norm(r)) / denom
    history = [res]
    converged = res < tol
    k = 0
    while not converged and k < maxit:
        x = x + pre.apply(r)
        r = rhs - apply_block_A(prob, x)
        res = float(np.linalg.norm(r)) / denom
        history.append(res)
        k += 1
        if res < tol:
            converged = True
        elif history[0] > 0.0 and res > 1e8 * history[0]:
            report = SolveReport(
                k, time.perf_counter() - t0, res, np.array(history), False,
                notes=("divergence guard tripped",),
            )
            raise StationaryDivergenceError(
                f"residual grew to {res:.3e} (1e8 x initial) at iteration {k}", report=report
            )
    report = SolveReport(k, time.perf_counter() - t0, res, np.array(history), converged)
    return x, report


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

def spectral_radius_estimate(kind: str, prob: IlsProblem) -> float:
    """Spectral radius of the iteration operator I - M^{-1} A, with exact
    inner solves, assembled densely at desk scale: the largest eigenvalue
    modulus from ``np.linalg.eigvals``."""
    mat = assemble_dense_preconditioned(kind, prob)
    g = np.eye(mat.shape[0]) - mat
    return float(np.abs(np.linalg.eigvals(g)).max())


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
    """Spectral diagnostics for one preconditioner variant."""

    kind: str
    rho_estimate: float | None
    interval_eigs: np.ndarray
    unit_eigenvalue_checks: list[EigenvectorFamily]
    nonunit_checks: list[EigenvectorFamily]
    disk_contained: bool
    interval_contained: bool | None

    @property
    def eigenvector_residuals(self) -> np.ndarray:
        parts = [f.residuals for f in self.unit_eigenvalue_checks + self.nonunit_checks]
        return np.concatenate(parts) if parts else np.zeros(0)

    def families(self) -> list[EigenvectorFamily]:
        return list(self.unit_eigenvalue_checks) + list(self.nonunit_checks)


def _family(label, apply_op, candidates, eigenvalues) -> EigenvectorFamily:
    residuals = []
    for v, mu in zip(candidates, eigenvalues):
        nv = float(np.linalg.norm(v))
        residuals.append(float(np.linalg.norm(apply_op(v) - mu * v)) / nv)
    return EigenvectorFamily(
        label, np.asarray(eigenvalues, dtype=np.float64), np.asarray(residuals)
    )


def _vacuous(label) -> EigenvectorFamily:
    return EigenvectorFamily(label, np.zeros(0), np.zeros(0), vacuous=True)


def verify_eigenstructure(kind: str, prob: IlsProblem) -> SpectralReport:
    """Build the predicted eigenvectors of the preconditioned operator and
    measure their operator-application residuals with exact inner solves.

    Unit-eigenvalue families: first-block unit vectors for every variant;
    third-block vectors from the null space of A2' for ibs1/ibs3; full
    third-block unit vectors for ibs2/ibs4.  Middle-block families that
    require null vectors of the shift gap are empty whenever alpha > 0 and
    are reported as vacuous rather than failed.  Non-unit families (ibs2
    and ibs4) come from the symmetric generalized eigenproblem of the
    reduced normal matrix against the shifted Gram matrix.
    """
    kind = kind.lower()
    if kind not in IBS_VARIANTS:
        raise ValueError(f"eigenstructure families are defined for {IBS_VARIANTS}, got {kind!r}")
    p, n, q = prob.p, prob.n, prob.q
    layout = prob.layout
    pre = make_preconditioner(kind, prob, inner="cholesky")

    def apply_op(v):
        return pre.apply(apply_block_A(prob, v))

    a1d, a2d = dense_blocks(prob)
    gram = a1d.T @ a1d
    shifted = gram + prob.alpha * np.eye(n)
    normal = gram - a2d.T @ a2d

    def embed(d1=None, x=None, d2=None):
        v = np.zeros(layout.size)
        if d1 is not None:
            v[layout.s1] = d1
        if x is not None:
            v[layout.sx] = x
        if d2 is not None:
            v[layout.s2] = d2
        return v

    unit_families: list[EigenvectorFamily] = []

    eyes_p = np.eye(p)
    unit_families.append(
        _family(
            "unit: first-block basis",
            apply_op,
            [embed(d1=eyes_p[:, i]) for i in range(p)],
            np.ones(p),
        )
    )

    rank_warning = False
    if kind in ("ibs1", "ibs3"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RankAmbiguityWarning)
            basis = null_space_basis(a2d.T)  # null space of A2'
            rank_warning = any(issubclass(w.category, RankAmbiguityWarning) for w in caught)
        if rank_warning:
            warnings.warn(
                "rank decision ambiguous for the null space of A2'; "
                "restricting unit-eigenvalue checks to the first-block family",
                RankAmbiguityWarning,
                stacklevel=2,
            )
            unit_families.append(_vacuous("unit: null(A2') basis (skipped, rank ambiguous)"))
        elif basis.shape[1] == 0:
            unit_families.append(_vacuous("unit: null(A2') basis"))
        else:
            unit_families.append(
                _family(
                    "unit: null(A2') basis",
                    apply_op,
                    [embed(d2=basis[:, i]) for i in range(basis.shape[1])],
                    np.ones(basis.shape[1]),
                )
            )
    else:
        eyes_q = np.eye(q)
        unit_families.append(
            _family(
                "unit: third-block basis",
                apply_op,
                [embed(d2=eyes_q[:, i]) for i in range(q)],
                np.ones(q),
            )
        )

    if kind in ("ibs3", "ibs4"):
        # Middle-block unit-eigenvalue family needs (shifted - gram) y = 0,
        # which has no nonzero solutions when alpha > 0.
        if prob.alpha > 0.0:
            unit_families.append(_vacuous("unit: middle-block family (empty for alpha > 0)"))
        else:
            basis = null_space_basis(a2d)
            if basis.shape[1] == 0:
                unit_families.append(_vacuous("unit: null(A2) middle-block basis"))
            else:
                unit_families.append(
                    _family(
                        "unit: null(A2) middle-block basis",
                        apply_op,
                        [embed(x=basis[:, i]) for i in range(basis.shape[1])],
                        np.ones(basis.shape[1]),
                    )
                )

    interval_eigs, y_vectors = generalized_sym_eigpairs(normal, shifted)

    nonunit: list[EigenvectorFamily] = []
    if kind in ("ibs2", "ibs4"):
        candidates, mus = [], []
        for j in range(n):
            mu = float(interval_eigs[j])
            if abs(mu - 1.0) <= 1e-8:
                continue
            y = y_vectors[:, j]
            a1y = a1d @ y
            a2y = a2d @ y
            if kind == "ibs2":
                v = embed(d1=a1y / (mu - 1.0), x=y, d2=a2y / (mu - 1.0))
            else:
                v = embed(d1=-a1y, x=y, d2=a2y / (mu - 1.0))
            candidates.append(v)
            mus.append(mu)
        if candidates:
            nonunit.append(_family("non-unit: generalized eigenpairs", apply_op, candidates, mus))
        else:
            nonunit.append(_vacuous("non-unit: generalized eigenpairs"))
    else:
        nonunit.append(_vacuous("non-unit families not constructed for this variant"))

    rho = spectral_radius_estimate(kind, prob)

    verified_mus = np.concatenate(
        [f.eigenvalues for f in unit_families + nonunit if f.count]
    ) if any(f.count for f in unit_families + nonunit) else np.zeros(0)
    disk_ok = bool(np.all(np.abs(1.0 - verified_mus) < 1.0)) if verified_mus.size else True
    interval_ok = None
    if kind in ("ibs2", "ibs4"):
        interval_ok = bool(np.all((interval_eigs > 0.0) & (interval_eigs < 2.0)))

    return SpectralReport(
        kind=kind,
        rho_estimate=rho,
        interval_eigs=interval_eigs,
        unit_eigenvalue_checks=unit_families,
        nonunit_checks=nonunit,
        disk_contained=disk_ok,
        interval_contained=interval_ok,
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
    kind = kind.lower()
    if kind not in IBS_VARIANTS:
        raise ValueError(f"bound check is defined for {IBS_VARIANTS}, got {kind!r}")
    pre = make_preconditioner(kind, prob, inner="cholesky")
    cfg = FgmresConfig(rel_tolerance=1e-12, max_iterations=prob.size, restart=None)
    _, report = fgmres_solve(block_system_operator(prob), pre, build_rhs(prob).data, config=cfg)
    bound = prob.n + prob.q + 1
    return GmresBoundResult(report.iterations, bound, bool(report.converged and report.iterations <= bound))
