"""tools/digest.py hashes what a solve computes, leaving out wall times;
a SolveReport is fed by its public attributes, so a field that becomes a
property derived from another hashes the same.  A second digest per
workload hashes the checked counts, so a change that moves only rounding
reads "values differ, counts equal"."""

import dataclasses
import hashlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

from ilsolve import SolveReport

_SPEC = importlib.util.spec_from_file_location(
    "digest_tool", Path(__file__).resolve().parent.parent / "tools" / "digest.py"
)
digest_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest_tool)


def hexdigest(value):
    h = hashlib.sha256()
    digest_tool.feed(h, value)
    return h.hexdigest()


def report(history=(1.0, 0.5, 0.25), notes=("a note",), wall_seconds=0.125):
    return SolveReport(wall_seconds, list(history), False, notes, 1, ((2, 0.3, 0.25),))


def result(**changes):
    """What an operation returns: an iterate, a report and counts."""
    return (np.array([1.0, -2.0, 3.0]), report(**changes), 7, 0)


def test_equal_values_digest_alike():
    assert hexdigest(result()) == hexdigest(result())
    assert hexdigest({"b": 1, "a": [np.eye(2)]}) == hexdigest({"a": [np.eye(2)], "b": 1})


def test_one_changed_bit_in_an_array_changes_the_digest():
    x, rep, *counts = result()
    flipped = x.copy()
    flipped.view(np.uint64)[1] ^= 1
    assert hexdigest((flipped, rep, *counts)) != hexdigest((x, rep, *counts))
    bits = np.array([1.0, 0.5, 0.25])
    bits.view(np.uint64)[2] ^= 1
    assert hexdigest(result(history=bits)) != hexdigest(result())


def test_one_changed_note_changes_the_digest():
    assert hexdigest(result(notes=("a note.",))) != hexdigest(result())
    assert hexdigest(result(notes=())) != hexdigest(result())


def test_reports_that_differ_only_in_wall_time_digest_alike():
    assert hexdigest(result(wall_seconds=9.0)) == hexdigest(result())


def test_a_report_is_fed_by_its_public_attributes():
    # The derived iterations and final_res are hashed: a report hashes as
    # a record of those attributes, whichever of them are fields.
    rep = report()
    h = hashlib.sha256()
    h.update(b"SolveReport")
    for name in digest_tool.REPORT_ATTRIBUTES:
        h.update(name.encode())
        digest_tool.feed(h, getattr(rep, name))
    assert hexdigest(rep) == h.hexdigest()
    fields = {f.name for f in dataclasses.fields(SolveReport)}
    assert fields - digest_tool.SKIPPED_FIELDS <= set(digest_tool.REPORT_ATTRIBUTES)


class Cell:
    """The part of perfbench's Cell that the counts line reads."""

    def __init__(self, outer_it, inner_it, ok=True):
        self.outer_it, self.inner_it, self.ok = outer_it, inner_it, ok

    def counts(self):
        return (self.outer_it, self.inner_it, 0, True, self.ok)


class Op:
    def __init__(self, value, cell):
        self.run = lambda: value
        self.check = lambda result: cell


class Workload:
    """Two operations whose results are ``values`` and whose cells count ``counts``."""

    def __init__(self, values=(1.0, 2.0), counts=((3, 5), (4, 6)), ok=True):
        self.ops = [Op(np.array([v]), Cell(*c, ok)) for v, c in zip(values, counts)]

    def inputs(self, seed, scratch):
        return seed

    def setup(self, inputs):
        return self.ops


def lines(workload):
    return digest_tool.digest(workload, 1234, Path("."))


def test_counts_line_sums_the_checked_counts():
    values, counts = lines(Workload())
    assert values.startswith("values ") and values.endswith(" 2 operations")
    assert counts.startswith("counts ") and counts.endswith(" outer 7 inner 11, 2 of 2 ok")
    assert lines(Workload(ok=False))[1].endswith(" outer 7 inner 11, 0 of 2 ok")


def test_a_rounding_level_change_moves_the_values_not_the_counts():
    nudged = np.nextafter(2.0, 3.0)
    base, rounded = lines(Workload()), lines(Workload(values=(1.0, nudged)))
    assert rounded[0] != base[0] and rounded[1] == base[1]
    swapped = lines(Workload(counts=((4, 5), (3, 6))))  # other cells, the same sums
    assert swapped[0] == base[0] and swapped[1] != base[1]
    assert swapped[1].split()[2:] == base[1].split()[2:]


def test_main_prints_both_lines_for_every_workload(monkeypatch, capsys):
    fake = types.ModuleType("workloads")
    fake.WORKLOADS = {"one": Workload}
    fake.DeskWorkload = lambda **shape: Workload(counts=((1, 1), (2, 2)))
    monkeypatch.setitem(sys.modules, "workloads", fake)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert digest_tool.main(["--seed", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [
        ["one", "values"], ["one", "counts"], ["desk-20x20x10", "values"], ["desk-20x20x10", "counts"],
    ]
    assert out[3].endswith(" outer 3 inner 3, 2 of 2 ok")
