"""Closed-loop benchmark of ilsolve.

    python3 perfbench/run.py --workload sparse-ibs --seed 1234 --seconds 30 --trace 0

One caller in one process issues each operation after the previous one
returns.  A run builds its inputs from the seed, times the set-up several
times, then repeats passes over the workload's operations until
``--seconds`` have elapsed, checking every answer outside the timed region.
It prints a machine line, one ``cell`` line per operation of the first pass
(and for any later operation whose counts differ), and as its last line a
JSON object with the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of an additional traced set-up and traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1234     # the seed of the test suite's rng fixture
BLAS_THREADS = 1
SETUP_REPEATS = 3       # timed set-ups before the first pass
SETUP_SHARE = 0.1       # later set-ups keep their total at this share of the pass time
MIN_PASSES = 3         # so every operation's fastest time has several samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


class TimedSetup:
    """Builds a workload's operations from its inputs and keeps the time
    each set-up took."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.times: list[float] = []

    def __call__(self):
        t0 = time.perf_counter()
        ops = self.workload.setup(self.inputs)
        self.times.append(time.perf_counter() - t0)
        return ops


def run_passes(ops, seconds: float, setup: TimedSetup | None = None, min_passes: int = MIN_PASSES):
    """Passes over ``ops`` until ``seconds`` have elapsed, and at least
    ``min_passes``.  With ``setup``, timed set-ups follow a pass until set-ups
    have taken SETUP_SHARE of the pass time, and the next pass uses the
    operations of the last one; this spreads set-up samples over the run.
    Returns per-pass lists of operation times and checked cells."""
    passes = []
    pass_time = 0.0
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        times, cells = [], []
        for op in ops:
            t0 = time.perf_counter()
            result = op.run()
            times.append(time.perf_counter() - t0)
            cells.append(op.check(result))
        passes.append((times, cells))
        pass_time += sum(times)
        while setup is not None and sum(setup.times) < SETUP_SHARE * pass_time:
            ops = setup()
    return passes


def fastest_ops(passes) -> list[float]:
    """Each operation's fastest time over the passes.  Other tenants of a
    shared host only ever slow an operation down, so the minimum is the
    steadiest estimate of its cost."""
    return [min(times) for times in zip(*(times for times, _ in passes))]


def emit_cells(passes, reference=None) -> list:
    """Print the first pass's cells, and any later cell whose counts differ
    from the first pass.  Returns the first pass's cells."""
    first = reference if reference is not None else passes[0][1]
    for i, (_, cells) in enumerate(passes):
        for j, cell in enumerate(cells):
            if (reference is None and i == 0) or cell.counts() != first[j].counts():
                record = {
                    "problem": cell.problem, "variant": cell.variant, "inner": cell.inner,
                    "op": cell.op, "outer_it": cell.outer_it, "inner_it": cell.inner_it,
                    "cap_hits": cell.cap_hits, "converged": cell.converged, "ok": cell.ok,
                    **cell.detail,
                }
                print("cell", json.dumps(record), flush=True)
    return first


def end_to_end(setup_times, passes, cells, failed: int, attempted: int) -> dict:
    fastest = fastest_ops(passes)
    values = {
        # The fastest set-up, for the reason fastest_ops gives.
        "setup_s": (min(setup_times), "s"),
        "wall_s": (sum(fastest), "s"),
        "op_s_p90": (statistics.quantiles(fastest, n=10, method="inclusive")[-1]
                     if len(fastest) > 1 else fastest[0], "s"),
        "outer_it": (sum(c.outer_it for c in cells), "count"),
        "inner_it": (sum(c.inner_it for c in cells), "count"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ilsolve" / "__init__.py").is_file():
        print(f"perfbench: no ilsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ilsolve

    if not Path(ilsolve.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported ilsolve from {ilsolve.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    print("machine", json.dumps(machine_block()), flush=True)

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build, prefix="perfbench-") as scratch:
        result, tracers = measure(workload, args, Path(scratch))
    if tracers is not None:
        spans.save(build / f"spans-{args.workload}.npz", *tracers)
    print(json.dumps(result), flush=True)
    return 0


def measure(workload, args, scratch: Path):
    """One run: the result object, and with ``args.trace`` the set-up and
    pass tracers (else None)."""
    import spans

    setup = TimedSetup(workload, workload.inputs(args.seed, scratch))
    for _ in range(SETUP_REPEATS):
        ops = setup()
    passes = run_passes(ops, args.seconds, setup)
    cells = emit_cells(passes)
    all_cells = [c for _, pass_cells in passes for c in pass_cells]
    # The median operation is reported here, not as a metric: on
    # desk-analysis it is a 10-30 ms call whose cost moves with the seed.
    # median_high: with two clusters of operation times and an even count,
    # the plain median would average across the gap.
    print("samples", json.dumps({"setups": len(setup.times), "passes": len(passes),
                                 "ops_per_pass": len(cells), "ops": len(all_cells),
                                 "op_s_p50": statistics.median_high(fastest_ops(passes))}), flush=True)
    if not args.trace:
        failed = sum(not c.ok for c in all_cells)
        return {"correct": failed == 0, "attempted": len(all_cells), "failed": failed,
                "metrics": end_to_end(setup.times, passes, cells, failed, len(all_cells))}, None

    setup_tracer, pass_tracer = spans.Tracer(), spans.Tracer()
    with spans.installed(setup_tracer):
        t0 = time.perf_counter()
        ops = workload.setup(setup.inputs)
        traced_setup_s = time.perf_counter() - t0
    with spans.installed(pass_tracer):
        traced = run_passes(ops, args.seconds, min_passes=1)
    emit_cells(traced, reference=cells)
    all_cells += [c for _, pass_cells in traced for c in pass_cells]
    failed = sum(not c.ok for c in all_cells)

    # Pass times are sums of operation times, so the answer checks, which
    # run inside the traced window but call no traced function, drop out.
    totals, counts = spans.combine(setup_tracer, pass_tracer, len(traced))
    metrics = spans.layer_metrics(
        totals, counts,
        traced_wall_s=traced_setup_s + statistics.mean(sum(times) for times, _ in traced),
        overhead_s=sum(fastest_ops(traced)) - sum(fastest_ops(passes)),
    )
    return ({"correct": failed == 0, "attempted": len(all_cells), "failed": failed,
             "metrics": metrics}, (setup_tracer, pass_tracer))


if __name__ == "__main__":
    sys.exit(main())
