"""SHA-256 digests of what the benchmark's workloads compute, one per workload.

    python3 tools/digest.py --seed 1234

Builds each workload of perfbench/workloads.py from the seed, and a desk
pool with q > n, runs each of its operations once, and prints two lines
per workload.  The ``values`` line hashes every result: iterates, residual
histories, iteration and failure counts, notes and eigen reports, with
wall times left out.  The ``counts`` line hashes each operation's
``Cell.counts()`` from that operation's own check, and gives the summed
outer and inner iteration counts and how many checks passed.  Two
checkouts that print the same values digest for a workload computed the
same bits on it; a change that moves only rounding prints other values
and the same counts.  Values digests compare only on one machine and BLAS
build, since those change the rounding.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED_FIELDS = {"wall_seconds"}  # timings differ from run to run
# A SolveReport is fed by its public attributes, not its dataclass fields,
# so a field that becomes a property derived from another hashes the same.
REPORT_ATTRIBUTES = (
    "iterations", "final_res", "res_history", "converged", "notes", "resumptions", "confirmations", "inner",
)


def feed(h, value) -> None:
    """Add ``value`` to the hash ``h``: arrays by dtype, shape and bytes, a
    SolveReport by REPORT_ATTRIBUTES and other dataclasses field by field
    (timings left out), containers item by item, the rest by repr."""
    import numpy as np

    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        h.update(name.encode())
        fields = [f.name for f in dataclasses.fields(value) if f.name not in SKIPPED_FIELDS]
        for attribute in REPORT_ATTRIBUTES if name == "SolveReport" else fields:
            h.update(attribute.encode())
            feed(h, getattr(value, attribute))
    elif isinstance(value, (tuple, list)):
        h.update(f"seq {len(value)}".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, dict):
        h.update(f"map {len(value)}".encode())
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key])
    else:
        h.update(repr(value).encode())


def digest(workload, seed: int, scratch: Path) -> tuple[str, str]:
    """The ``values`` and ``counts`` lines of one pass over ``workload``'s
    operations, each result checked by its own operation after it is hashed."""
    values, counts = hashlib.sha256(), hashlib.sha256()
    ops = workload.setup(workload.inputs(seed, scratch))
    cells = []
    for op in ops:
        result = op.run()
        feed(values, result)
        cells.append(op.check(result))
        feed(counts, cells[-1].counts())
    outer = sum(cell.outer_it for cell in cells)
    inner = sum(cell.inner_it for cell in cells)
    passed = sum(cell.ok for cell in cells)
    return (
        f"values {values.hexdigest()} {len(ops)} operations",
        f"counts {counts.hexdigest()} outer {outer} inner {inner}, {passed} of {len(ops)} ok",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    # One pool beyond the benchmark's: with q > n, null(A2') is not
    # trivial, so its unit-eigenvalue family is hashed too.
    pools = {**workloads.WORKLOADS, "desk-20x20x10": lambda: workloads.DeskWorkload(p=20, q=20, n=10)}
    with tempfile.TemporaryDirectory(prefix="digest-") as scratch:
        for name, workload in pools.items():
            for line in digest(workload(), args.seed, Path(scratch)):
                print(f"{name} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
