"""Benchmark harness: problem generation, experiment execution, reporting.

An experiment is described by a flat key-value spec file (see
``load_experiment_spec``) naming a problem source, a list of
preconditioners, inner/outer solver settings, and an output path.  Each
(problem, preconditioner) cell is solved ``runs`` times by ``solve``; the
runs are deterministic, so the table reports the final run's iteration
count and relative residual, the relative error against an independently
computed reference solution, and the mean wall time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import SOLVER_FAILURES, ConfigurationError, IlsolveError
from .krylov import CgConfig, FgmresConfig
from .mmio import read_matrix_market
from .operators import as_matrix
from .preconditioners import IBS_VARIANTS, INNER_SOLVERS, VARIANTS, solve
from .problem import IlsProblem, compute_alpha, reference_solution
from .sparse import SparseMatrixCsr, _count, _sealed, normalize_to_unit_one_norm, rectangular_identity_csr

__all__ = [
    "ExperimentSpec",
    "TableRow",
    "generate_augmented_problem",
    "generate_hilbert_problem",
    "generate_random_problem",
    "hilbert_matrix",
    "build_problem",
    "load_experiment_spec",
    "run_experiment",
    "report_write",
]


# ---------------------------------------------------------------------------
# Problem generators
# ---------------------------------------------------------------------------

def generate_augmented_problem(
    core: SparseMatrixCsr | np.ndarray,
    q: int,
    scale: float = 6.0,
) -> IlsProblem:
    """Augment a p x n matrix, CSR or dense, into an instance of the paper's
    class: A1 = core, A2 = scale * I_{q x n} (rectangular identity pattern,
    CSR), all-ones right-hand side, and the default shift derived from A1."""
    _count("q", q)
    core = as_matrix(core, "core")
    a2 = rectangular_identity_csr(q, core.shape[1], scale)
    return IlsProblem(core, a2, *map(_sealed, (np.ones(core.shape[0]), np.ones(q))), compute_alpha(core))


def hilbert_matrix(n: int) -> np.ndarray:
    """H[i, j] = 1 / (i + j + 1) with 0-based indices."""
    idx = np.arange(n, dtype=np.float64)
    h = np.add.outer(idx, idx + 1.0)  # whole numbers, so exactly i + j + 1
    return np.divide(1.0, h, out=h)


HILBERT_MAX_N = 2000  # largest order of the (dense) Hilbert block


def generate_hilbert_problem(n: int, a2_scale: float = 0.7) -> IlsProblem:
    """The augmented problem on the (fully dense) n x n Hilbert matrix, kept
    as a dense A1: A2 = a2_scale * I_n, all-ones right-hand side."""
    _count("n", n)
    if n > HILBERT_MAX_N:
        raise ConfigurationError(f"Hilbert generator capped at n = {HILBERT_MAX_N}, got {n}")
    return generate_augmented_problem(_sealed(hilbert_matrix(n)), n, a2_scale)


def generate_random_problem(p: int, q: int, n: int, seed: int = 0) -> IlsProblem:
    """Dense random instance engineered so the reduced normal matrix is
    SPD: A1 has singular values in [1, 2] (so the Gram spectrum sits in
    [1, 4]) and A2 is rescaled until its largest squared singular value is
    half the smallest Gram eigenvalue.  alpha is drawn uniformly from
    [0.1, 0.5).  p >= n is required so A1 can have full column rank."""
    for name, value in (("p", p), ("q", q), ("n", n)):
        _count(name, value)
    if p < n:
        raise ValueError("p must be at least n for A1 to have full column rank")
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
    return IlsProblem(*map(_sealed, (a1, a2, b1, b2)), alpha)


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
# The spec fields each inner solver reads; it rejects the others.
_INNER_FIELDS = {"cg": ("inner_tol", "inner_maxit"), "cholesky": ()}
_INNER_SETTINGS = {name for names in _INNER_FIELDS.values() for name in names}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a problem source, preconditioner list, solver
    settings, and output destination; spec files and the command line both
    describe a run with one.  The solver settings default to CgConfig's and
    FgmresConfig's, and an unset ``a2_scale`` or ``seed`` to the
    generator's own; an unset ``normalize`` means True.  Leaving out a field
    that the problem source requires, or setting one that it or the inner
    solver does not read (``_SOURCE_FIELDS``, ``_INNER_FIELDS``), is an
    error.  A spec is immutable; ``replace`` rechecks it."""

    problem: str = "matrix-market"    # "matrix-market" | "hilbert" | "random"
    matrix: str | None = None         # path for matrix-market sources
    p: int | None = None
    q: int | None = None
    n: int | None = None
    a2_scale: float | None = None
    normalize: bool | None = None
    preconditioners: tuple[str, ...] = IBS_VARIANTS
    inner: str = "cg"                 # one of INNER_SOLVERS
    inner_tol: float | None = None    # None: CgConfig's
    inner_maxit: int | None = None
    outer_tol: float = FgmresConfig.rel_tolerance
    outer_maxit: int = FgmresConfig.max_iterations
    restart: int | None = FgmresConfig.restart
    runs: int = 5
    seed: int | None = None
    out: str | None = None

    def __post_init__(self):
        for name, least in (("p", 1), ("q", 1), ("n", 1), ("runs", 1), ("seed", 0)):
            if getattr(self, name) is not None:
                _count(name, getattr(self, name), least)
        if not self.preconditioners:
            raise ValueError("preconditioners must name at least one variant")
        if self.problem not in _SOURCE_FIELDS:
            raise ValueError(f"unknown problem source {self.problem!r}")
        if self.inner not in INNER_SOLVERS:
            raise ValueError(f"unknown inner solver {self.inner!r}; choose from {INNER_SOLVERS}")
        required, optional = _SOURCE_FIELDS[self.problem]
        for name, value in vars(self).items():
            if value is not None and name in _SOURCE_SETTINGS and name not in required + optional:
                raise ValueError(f"{name} does not apply to problem = {self.problem}")
            if value is not None and name in _INNER_SETTINGS and name not in _INNER_FIELDS[self.inner]:
                raise ValueError(f"{name} does not apply to inner = {self.inner}")
        if self.a2_scale is not None and not math.isfinite(self.a2_scale):
            raise ValueError(f"a2_scale must be finite, got {self.a2_scale}")
        bad = [k for k in self.preconditioners if k.lower() not in VARIANTS]
        if bad:
            raise ValueError(f"unknown preconditioners {bad}; choose from {VARIANTS}")
        object.__setattr__(self, "preconditioners", tuple(k.lower() for k in self.preconditioners))
        # Bad solver settings fail here, before any problem is built.
        self.inner_config()
        self.outer_config()
        for name in required:
            if getattr(self, name) in (None, ""):
                raise ValueError(f"{name} is required for problem = {self.problem}")

    def inner_config(self) -> CgConfig | None:  # None for an inner solver that reads no settings
        settings = {"rel_tolerance": self.inner_tol, "max_iterations": self.inner_maxit}
        given = {name: value for name, value in settings.items() if value is not None}
        return CgConfig(**given) if _INNER_FIELDS[self.inner] else None

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

@dataclass(frozen=True)
class TableRow:
    """One benchmark cell, built once.  Unconverged rows keep it/res/err as
    None, and a failed solve's row cpu too (rendered as empty CSV cells);
    cpu is the mean over the runs, the rest the final run's."""

    problem: str
    preconditioner: str
    it: int | None
    cpu: float | None
    res: float | None
    err: float | None
    converged: bool
    note: str = ""
    inner_iterations: int = 0
    inner_failures: int = 0


def run_experiment(spec: ExperimentSpec, echo=None) -> list[TableRow]:
    """Run every (problem, preconditioner) cell of the experiment.

    A row averages CPU over the runs and takes the rest from the final
    run.  The reference solution is computed once per problem, and its
    note opens each row's note.  A cell whose solve fails with one of
    SOLVER_FAILURES becomes a failed row; other errors propagate.  ``echo``,
    when given, is called with each finished TableRow (CLI progress).
    """
    prob = build_problem(spec)
    try:
        x_star, ref_note = reference_solution(prob)
    except IlsolveError as exc:
        x_star, ref_note = None, f"reference solution unavailable: {exc}"
    x_star_norm = 0.0 if x_star is None else float(np.linalg.norm(x_star))

    rows = []
    for kind in spec.preconditioners:
        notes, cpus = [ref_note] if ref_note else [], []
        try:
            for _ in range(spec.runs):
                x, report = solve(prob, kind, spec.inner, spec.inner_config(), spec.outer_config())
                cpus.append(report.wall_seconds)
        except SOLVER_FAILURES as exc:
            notes.append(f"solver failure: {exc}")
            row = TableRow(prob.label(), kind, None, None, None, None, False, "; ".join(notes))
        else:
            if report.inner_failures:
                notes.append(f"{report.inner_failures} inner solves hit their cap")
            it = res = err = None
            if report.converged:
                it, res = report.iterations, report.final_res
                err = float(np.linalg.norm(prob.split(x)[1] - x_star)) / x_star_norm if x_star_norm else None
            else:
                notes.append(f"no convergence in {report.iterations} iterations")
            row = TableRow(prob.label(), kind, it, float(np.mean(cpus)), res, err, report.converged,
                           "; ".join(notes), report.inner_iterations, report.inner_failures)
        rows.append(row)
        if echo is not None:
            echo(row)
    return rows


def _fmt(x: float | None, spec: str) -> str:
    return "" if x is None else format(x, spec)


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
                f"{r.problem},{r.preconditioner},{_fmt(r.it, 'd')},{_fmt(r.cpu, '.6g')},"
                f"{_fmt(r.res, '.2e')},{_fmt(r.err, '.2e')},{str(r.converged).lower()}"
            )
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        keys = {"it": "IT", "cpu": "CPU", "res": "RES", "err": "ERR"}  # the paper's column names
        payload = [{keys.get(key, key): value for key, value in asdict(r).items()} for r in rows]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
