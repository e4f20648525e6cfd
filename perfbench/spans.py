"""Span tracing of ilsolve's layers, from outside the package.

Tracing replaces a layer's public functions at the module attributes their
callers look up (and the methods on their classes) with wrappers that
record one span per call: name, start, end and the id of the enclosing
span.  Spans are kept in flat typed arrays, so a run of millions of calls
stays small, and are written out when the run ends.  A span's self time is
its duration minus that of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from ilsolve import analysis, bench, dense, krylov, mmio, operators, preconditioners, problem, sparse
from ilsolve.exceptions import IndefiniteOperatorError


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, span: str, fn, hook=None):
        """Wrapper of ``fn`` recording a span; ``hook(tracer, args, result,
        exc)`` runs after the call to record counts at the same boundary."""
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        start, end, parent, name, stack = self.start, self.end, self.parent, self.name, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, None, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint16),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        out = {nm: {"calls": float(calls[i]), "total": float(total[i]), "self": float(self_s[i])}
               for i, nm in enumerate(self.names)}
        # Operator applies issued by FGMRES itself: one per outer step, the
        # rest are true-residual checks.
        if "krylov.fgmres" in self.names and "operators.apply" in self.names:
            fg, ap = self.names.index("krylov.fgmres"), self.names.index("operators.apply")
            under = a["name"][a["parent"][has_parent]] == fg
            out["krylov.fgmres"]["applies"] = float(np.sum(under & (a["name"][has_parent] == ap)))
        return out


# ---------------------------------------------------------------------------
# Counts recorded at the layer boundaries
# ---------------------------------------------------------------------------

def _spmv_bytes(t, args, result, exc):
    # Computed from array sizes: per nonzero a value, a column index and a
    # gathered operand entry; plus the row offsets and the output vector.
    a = args[0]
    if result is not None:
        t.add("sparse.bytes", 8 * (3 * a.nnz + a.n_rows + 1 + len(result)))


def _fgmres_counts(t, args, result, exc):
    if result is not None:
        rep = result[1]
        t.add("krylov.outer_it", rep.iterations)
        t.add("krylov.resumptions", sum("resuming" in note for note in rep.notes))


def _cg_counts(t, args, result, exc):
    if isinstance(exc, IndefiniteOperatorError):
        t.add("krylov.cg_it", exc.iterations)
        t.add("krylov.cg_failed", 1)
    elif result is not None:
        rep = result[1]
        t.add("krylov.cg_it", rep.iterations)
        t.add("krylov.cg_failed", 0 if rep.converged else 1)


def _mmio_counts(t, args, result, exc):
    if result is not None:
        t.add("mmio.entries", result.nnz)


FUNCTIONS = [
    ("sparse.spmv", sparse.spmv, _spmv_bytes),
    ("sparse.spmv_t", sparse.spmv_transpose, _spmv_bytes),
    ("problem.block_apply", problem.apply_block_A, None),
    ("krylov.fgmres", krylov.fgmres_solve, _fgmres_counts),
    ("krylov.cg", krylov.cg_solve, _cg_counts),
    ("preconditioners.build", preconditioners.make_preconditioner, None),
    ("preconditioners.assemble_dense", preconditioners.assemble_dense_preconditioned, None),
    ("dense.cholesky", dense.dense_cholesky, None),
    ("dense.cholesky_solve", dense.cholesky_solve, None),
    ("analysis.conditions", analysis.check_convergence_conditions, None),
    ("analysis.eigenstructure", analysis.verify_eigenstructure, None),
    ("analysis.spectral_radius", analysis.spectral_radius_estimate, None),
    ("analysis.jacobi", analysis.jacobi_eigh, None),
    ("analysis.stationary", analysis.stationary_solve, None),
    ("analysis.gmres_bound", analysis.gmres_bound_check, None),
    ("mmio.read", mmio.read_matrix_market, _mmio_counts),
    ("bench.generate", bench.generate_augmented_problem, None),
    ("bench.generate", bench.generate_hilbert_problem, None),
    ("bench.generate", bench.generate_random_problem, None),
]
METHODS = [
    ("operators.apply", operators.LinearOperator, "apply"),
    ("operators.apply", operators.LinearOperator, "apply_transpose"),
    ("preconditioners.apply", preconditioners.Preconditioner, "apply"),
]


def _lookup_sites(fn):
    """Every attribute of an ilsolve module bound to ``fn``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ilsolve" or mod_name.startswith("ilsolve."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    yield mod, attr


@contextmanager
def installed(tracer: Tracer):
    """Route the layers' public functions through ``tracer`` for the body
    of the ``with`` block, and restore them afterwards."""
    saved = []
    try:
        for span, fn, hook in FUNCTIONS:
            wrapper = tracer.wrap(span, fn, hook)
            for owner, attr in list(_lookup_sites(fn)):
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for span, cls, attr in METHODS:
            fn = vars(cls)[attr]
            saved.append((cls, attr, fn))
            setattr(cls, attr, tracer.wrap(span, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def combine(setup: Tracer, passes: Tracer, n_passes: int) -> tuple[dict, dict]:
    """Layer totals and counts for one set-up plus one pass, the pass
    figures averaged over ``n_passes`` traced passes."""
    totals: dict[str, dict[str, float]] = {}
    for tracer, weight in ((setup, 1.0), (passes, 1.0 / n_passes)):
        for nm, row in tracer.layer_totals().items():
            acc = totals.setdefault(nm, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0.0) + weight * value
    counts: dict[str, float] = {}
    for tracer, weight in ((setup, 1.0), (passes, 1.0 / n_passes)):
        for key, value in tracer.counts.items():
            counts[key] = counts.get(key, 0.0) + weight * value
    return totals, counts


def layer_metrics(totals: dict, counts: dict, traced_wall_s: float, overhead_s: float) -> dict:
    def get(nm, key):
        return totals.get(nm, {}).get(key, 0.0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    outer = counts.get("krylov.outer_it", 0.0)
    cg_it = counts.get("krylov.cg_it", 0.0)
    pc_calls = get("preconditioners.apply", "calls")
    inner_failed = counts.get("krylov.cg_failed", 0.0)
    read_s = get("mmio.read", "total")
    values = {
        "sparse.spmv_calls": (get("sparse.spmv", "calls"), "count"),
        "sparse.spmv_us": (per(get("sparse.spmv", "total"), get("sparse.spmv", "calls"), 1e6), "us"),
        "sparse.spmv_t_calls": (get("sparse.spmv_t", "calls"), "count"),
        "sparse.spmv_t_us": (per(get("sparse.spmv_t", "total"), get("sparse.spmv_t", "calls"), 1e6), "us"),
        "sparse.bytes_computed": (counts.get("sparse.bytes", 0.0), "B"),
        "operators.apply_calls": (get("operators.apply", "calls"), "count"),
        "operators.apply_self_s": (get("operators.apply", "self"), "s"),
        "problem.block_apply_calls": (get("problem.block_apply", "calls"), "count"),
        "problem.block_apply_us": (
            per(get("problem.block_apply", "total"), get("problem.block_apply", "calls"), 1e6), "us"),
        "krylov.fgmres_self_s": (get("krylov.fgmres", "self"), "s"),
        "krylov.orth_us_per_step": (per(get("krylov.fgmres", "self"), outer, 1e6), "us"),
        "krylov.true_res_checks": (get("krylov.fgmres", "applies") - outer, "count"),
        "krylov.resumptions": (counts.get("krylov.resumptions", 0.0), "count"),
        "krylov.cg_calls": (get("krylov.cg", "calls"), "count"),
        "krylov.cg_self_s": (get("krylov.cg", "self"), "s"),
        "krylov.cg_us_per_it": (per(get("krylov.cg", "total"), cg_it, 1e6), "us"),
        "preconditioners.apply_calls": (pc_calls, "count"),
        "preconditioners.apply_self_s": (get("preconditioners.apply", "self"), "s"),
        "preconditioners.inner_cap_hits": (inner_failed, "count"),
        "preconditioners.inner_useful_ratio": (per(pc_calls - inner_failed, pc_calls) if pc_calls else 1.0,
                                               "ratio"),
        "preconditioners.assemble_dense_s": (get("preconditioners.assemble_dense", "total"), "s"),
        "preconditioners.build_self_s": (get("preconditioners.build", "self"), "s"),
        "dense.cholesky_calls": (get("dense.cholesky", "calls"), "count"),
        "dense.cholesky_s": (get("dense.cholesky", "total"), "s"),
        "dense.cholesky_solve_calls": (get("dense.cholesky_solve", "calls"), "count"),
        "dense.cholesky_solve_us": (
            per(get("dense.cholesky_solve", "total"), get("dense.cholesky_solve", "calls"), 1e6), "us"),
        "analysis.conditions_s": (get("analysis.conditions", "total"), "s"),
        "analysis.eigenstructure_self_s": (get("analysis.eigenstructure", "self"), "s"),
        "analysis.spectral_radius_s": (get("analysis.spectral_radius", "total"), "s"),
        "analysis.jacobi_calls": (get("analysis.jacobi", "calls"), "count"),
        "analysis.jacobi_s": (get("analysis.jacobi", "total"), "s"),
        "analysis.stationary_s": (get("analysis.stationary", "total"), "s"),
        "analysis.gmres_bound_s": (get("analysis.gmres_bound", "total"), "s"),
        "mmio.read_s": (read_s, "s"),
        "mmio.entries_per_s": (per(counts.get("mmio.entries", 0.0), read_s), "1/s"),
        "bench.generate_s": (get("bench.generate", "total"), "s"),
        "trace.unattributed_s": (traced_wall_s - sum(row["self"] for row in totals.values()), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def save(path, setup: Tracer, passes: Tracer) -> None:
    arrays = {}
    for prefix, tracer in (("setup", setup), ("pass", passes)):
        arrays[f"{prefix}_names"] = np.array(tracer.names)
        for key, value in tracer.arrays().items():
            arrays[f"{prefix}_{key}"] = value
    np.savez(path, **arrays)
