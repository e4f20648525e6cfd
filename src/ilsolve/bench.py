"""Benchmark harness: problem generation, experiment execution, reporting.

An experiment is described by a flat key-value spec file (see
``load_experiment_spec``) naming a problem source, a list of
preconditioners, inner/outer solver settings, and an output path.  Each
(problem, preconditioner) cell is solved ``runs`` times from a zero start;
the table reports the mean iteration count and wall time, the final run's
relative residual, and the relative error against an independently
computed reference solution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SOLVER_FAILURES, ConfigurationError, IlsolveError
from .krylov import CgConfig, FgmresConfig, _count, fgmres_solve
from .mmio import read_matrix_market
from .preconditioners import IBS_VARIANTS, INNER_SOLVERS, VARIANTS, make_preconditioner
from .problem import (
    IlsProblem,
    block_system_operator,
    build_rhs,
    compute_alpha,
    reference_solution,
)
from .sparse import SparseMatrixCsr, normalize_to_unit_one_norm, rectangular_identity_csr

__all__ = [
    "ExperimentSpec",
    "TableRow",
    "generate_augmented_problem",
    "generate_hilbert_problem",
    "generate_random_problem",
    "hilbert_matrix",
    "build_problem",
    "load_experiment_spec",
    "run_cell",
    "run_experiment",
    "report_write",
]


# ---------------------------------------------------------------------------
# Problem generators
# ---------------------------------------------------------------------------

def generate_augmented_problem(
    core: SparseMatrixCsr,
    q: int,
    scale: float = 6.0,
) -> IlsProblem:
    """Augment a p x n matrix into an ILS instance: A1 = core,
    A2 = scale * I_{q x n} (rectangular identity pattern), all-ones right-
    hand side, and the default shift derived from A1."""
    if q < 1:
        raise ValueError("q must be at least 1")
    a2 = rectangular_identity_csr(q, core.n_cols, scale)
    return IlsProblem(core, a2, np.ones(core.n_rows), np.ones(q), compute_alpha(core))


def hilbert_matrix(n: int) -> np.ndarray:
    """H[i, j] = 1 / (i + j + 1) with 0-based indices."""
    idx = np.arange(n, dtype=np.float64)
    return 1.0 / (idx[:, None] + idx[None, :] + 1.0)


HILBERT_MAX_N = 2000  # largest order of the (dense) Hilbert block


def generate_hilbert_problem(n: int, a2_scale: float = 0.7) -> IlsProblem:
    """A1 is the (fully dense) n x n Hilbert matrix kept as a dense
    operand, A2 = a2_scale * I_n, all-ones right-hand side."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > HILBERT_MAX_N:
        raise ConfigurationError(f"Hilbert generator capped at n = {HILBERT_MAX_N}, got {n}")
    h = hilbert_matrix(n)
    a2 = rectangular_identity_csr(n, n, a2_scale)
    return IlsProblem(h, a2, np.ones(n), np.ones(n), compute_alpha(h))


def generate_random_problem(p: int, q: int, n: int, seed: int = 0) -> IlsProblem:
    """Dense random instance engineered so the reduced normal matrix is
    SPD: A1 has singular values in [1, 2] (so the Gram spectrum sits in
    [1, 4]) and A2 is rescaled until its largest squared singular value is
    half the smallest Gram eigenvalue.  alpha is drawn uniformly from
    [0.1, 0.5).  p >= n is required so A1 can have full column rank."""
    if p < n:
        raise ValueError("p must be at least n for A1 to have full column rank")
    if min(p, q, n) < 1:
        raise ValueError("p, q, n must all be positive")
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((p, n)))
    vt, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sing = rng.uniform(1.0, 2.0, size=n)
    a1 = u @ (sing[:, None] * vt.T)
    a2 = rng.standard_normal((q, n))
    top = np.linalg.norm(a2, ord=2)
    a2 *= np.sqrt(0.5) / top  # largest eigenvalue of A2'A2 becomes 0.5
    alpha = float(rng.uniform(0.1, 0.5))
    b1 = rng.standard_normal(p)
    b2 = rng.standard_normal(q)
    return IlsProblem(a1, a2, b1, b2, alpha)


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------

# The spec fields each problem source reads, as (required, optional); a
# source rejects the others.
_SOURCE_FIELDS = {
    "matrix-market": (("matrix", "q"), ("a2_scale", "normalize")),
    "hilbert": (("n",), ("a2_scale",)),
    "random": (("p", "q", "n"), ("seed",)),
}
_SOURCE_SETTINGS = {name for required, optional in _SOURCE_FIELDS.values() for name in required + optional}


@dataclass
class ExperimentSpec:
    """One experiment: a problem source, preconditioner list, solver
    settings, and output destination; spec files and the command line both
    describe a run with one.  The solver settings default to CgConfig's and
    FgmresConfig's, and an unset ``a2_scale`` or ``seed`` to the
    generator's own; an unset ``normalize`` means True.  Leaving out a field
    that the problem source requires, or setting one that it does not read
    (see ``_SOURCE_FIELDS``), is an error."""

    problem: str = "matrix-market"    # "matrix-market" | "hilbert" | "random"
    matrix: str | None = None         # path for matrix-market sources
    p: int | None = None
    q: int | None = None
    n: int | None = None
    a2_scale: float | None = None
    normalize: bool | None = None
    preconditioners: tuple[str, ...] = IBS_VARIANTS
    inner: str = "cg"                 # one of INNER_SOLVERS
    inner_tol: float = CgConfig.rel_tolerance
    inner_maxit: int = CgConfig.max_iterations
    outer_tol: float = FgmresConfig.rel_tolerance
    outer_maxit: int = FgmresConfig.max_iterations
    restart: int | None = FgmresConfig.restart
    runs: int = 5
    seed: int | None = None
    out: str | None = None

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name, least in (("p", 1), ("q", 1), ("n", 1), ("runs", 1), ("seed", 0)):
            if getattr(self, name) is not None:
                _count(name, getattr(self, name), least)
        if not self.preconditioners:
            raise ValueError("preconditioners must name at least one variant")
        if self.problem not in _SOURCE_FIELDS:
            raise ValueError(f"unknown problem source {self.problem!r}")
        required, optional = _SOURCE_FIELDS[self.problem]
        for name, value in vars(self).items():
            if value is not None and name in _SOURCE_SETTINGS and name not in required + optional:
                raise ValueError(f"{name} does not apply to problem = {self.problem}")
        if self.a2_scale is not None and not math.isfinite(self.a2_scale):
            raise ValueError(f"a2_scale must be finite, got {self.a2_scale}")
        bad = [k for k in self.preconditioners if k.lower() not in VARIANTS]
        if bad:
            raise ValueError(f"unknown preconditioners {bad}; choose from {VARIANTS}")
        self.preconditioners = tuple(k.lower() for k in self.preconditioners)
        if self.inner not in INNER_SOLVERS:
            raise ValueError(f"unknown inner solver {self.inner!r}; choose from {INNER_SOLVERS}")
        # Bad solver settings fail here, before any problem is built.
        self.inner_config()
        self.outer_config()
        for name in required:
            if getattr(self, name) in (None, ""):
                raise ValueError(f"{name} is required for problem = {self.problem}")

    def inner_config(self) -> CgConfig:
        return CgConfig(self.inner_tol, self.inner_maxit)

    def outer_config(self) -> FgmresConfig:
        return FgmresConfig(self.outer_tol, self.outer_maxit, self.restart)


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {text!r}") from None


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


# Spec file key -> (ExperimentSpec field, converter of the value text).
_SPEC_KEYS = {
    "problem": ("problem", str), "matrix": ("matrix", str),
    "p": ("p", int), "q": ("q", int), "n": ("n", int),
    "a2_scale": ("a2_scale", float), "normalize": ("normalize", _parse_bool),
    "preconditioners": ("preconditioners", _parse_names), "inner": ("inner", str),
    "inner.tol": ("inner_tol", float), "inner.maxit": ("inner_maxit", int),
    "outer.tol": ("outer_tol", float), "outer.maxit": ("outer_maxit", int),
    "outer.restart": ("restart", int),
    "runs": ("runs", int), "seed": ("seed", int), "out": ("out", str),
}


def load_experiment_spec(path) -> ExperimentSpec:
    """Parse the flat ``key = value`` spec format ('#' starts a comment).

    Keys: those of ``_SPEC_KEYS``; preconditioners is comma separated, and
    a key left out keeps the ExperimentSpec default.  A value that does not
    convert, or a key given twice, raises ValueError('path:line: key:
    reason'), an invalid spec ValueError('path: reason').
    """
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in _SPEC_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            name, convert = _SPEC_KEYS[key]
            if name in settings:
                raise ValueError(f"{path}:{line_no}: {key}: set twice")
            try:
                settings[name] = convert(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    try:
        return ExperimentSpec(**settings)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def build_problem(spec: ExperimentSpec) -> IlsProblem:
    """Materialize the problem a spec describes."""
    scale = () if spec.a2_scale is None else (spec.a2_scale,)
    if spec.problem == "matrix-market":
        core = read_matrix_market(spec.matrix)
        if spec.normalize is not False:
            core = normalize_to_unit_one_norm(core)
        return generate_augmented_problem(core, spec.q, *scale)
    if spec.problem == "hilbert":
        return generate_hilbert_problem(spec.n, *scale)
    seed = () if spec.seed is None else (spec.seed,)
    return generate_random_problem(spec.p, spec.q, spec.n, *seed)


# ---------------------------------------------------------------------------
# Execution and reporting
# ---------------------------------------------------------------------------

@dataclass
class TableRow:
    """One benchmark cell.  Unconverged rows keep it/res/err as None
    (rendered as empty CSV cells); the inner counts are the final run's."""

    problem: str
    preconditioner: str
    it: float | None
    cpu: float
    res: float | None
    err: float | None
    converged: bool
    note: str = ""
    inner_iterations: int = 0
    inner_failures: int = 0


def run_cell(spec: ExperimentSpec, prob: IlsProblem, kind: str, x_star=None, note: str = ""):
    """Solve one (problem, preconditioner) cell ``spec.runs`` times from a
    zero start with one preconditioner, and return (row, final report).

    The row averages IT and CPU over the runs and takes the rest from the
    final run; ERR needs the reference solution ``x_star``, and ``note``
    opens the row's note.  Set-up and solver errors propagate.
    """
    pre = make_preconditioner(kind, prob, inner=spec.inner, inner_config=spec.inner_config())
    op, rhs, outer = block_system_operator(prob), build_rhs(prob), spec.outer_config()
    its, cpus = [], []
    for _ in range(spec.runs):
        pre.reset_stats()
        x, report = fgmres_solve(op, pre, rhs, config=outer)
        its.append(report.iterations)
        cpus.append(report.wall_seconds)
    row = TableRow(
        prob.label(), kind, None, float(np.mean(cpus)), None, None, False,
        inner_iterations=pre.inner_iterations, inner_failures=pre.inner_failures,
    )
    notes = [note] if note else []
    if pre.inner_failures:
        notes.append(f"{pre.inner_failures} inner solves hit their cap")
    if report.converged:
        row.it, row.res, row.converged = float(np.mean(its)), report.final_res, True
        x_star_norm = 0.0 if x_star is None else float(np.linalg.norm(x_star))
        if x_star_norm > 0.0:
            row.err = float(np.linalg.norm(prob.split(x)[1] - x_star)) / x_star_norm
    else:
        notes.append(f"no convergence in {report.iterations} iterations")
    row.note = "; ".join(notes)
    return row, report


def run_experiment(spec: ExperimentSpec, echo=None) -> list[TableRow]:
    """Run every (problem, preconditioner) cell of the experiment.

    The reference solution is computed once per problem.  A cell whose
    solve fails with one of SOLVER_FAILURES becomes a failed row.  ``echo``,
    when given, is called with each finished TableRow (CLI progress).
    """
    prob = build_problem(spec)
    try:
        x_star, ref_note = reference_solution(prob)
    except IlsolveError as exc:
        x_star, ref_note = None, f"reference solution unavailable: {exc}"

    rows = []
    for kind in spec.preconditioners:
        try:
            row, _ = run_cell(spec, prob, kind, x_star, ref_note)
        except SOLVER_FAILURES as exc:
            row = TableRow(prob.label(), kind, None, 0.0, None, None, False, f"solver failure: {exc}")
        rows.append(row)
        if echo is not None:
            echo(row)
    return rows


def _fmt_sci(x: float | None) -> str:
    return "" if x is None else f"{x:.2e}"


def _fmt_it(x: float | None) -> str:
    if x is None:
        return ""
    return str(int(round(x))) if abs(x - round(x)) < 1e-9 else f"{x:.1f}"


def report_write(rows: list[TableRow], fmt: str, path) -> None:
    """Write rows as CSV or JSON with a fixed column order.

    CSV renders res/err in scientific notation with three significant
    digits; JSON keeps full precision.
    """
    if not rows:
        raise ValueError("no rows to write")
    if fmt == "csv":
        lines = ["problem,preconditioner,IT,CPU,RES,ERR,converged"]
        for r in rows:
            lines.append(
                f"{r.problem},{r.preconditioner},{_fmt_it(r.it)},{r.cpu:.6g},"
                f"{_fmt_sci(r.res)},{_fmt_sci(r.err)},{str(r.converged).lower()}"
            )
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = [
            {
                "problem": r.problem,
                "preconditioner": r.preconditioner,
                "IT": r.it,
                "CPU": r.cpu,
                "RES": r.res,
                "ERR": r.err,
                "converged": r.converged,
                "note": r.note,
                "inner_iterations": r.inner_iterations,
                "inner_failures": r.inner_failures,
            }
            for r in rows
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
