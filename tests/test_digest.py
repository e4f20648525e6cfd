"""tools/digest.py hashes what a solve computes, leaving out wall times;
a SolveReport is fed by its public attributes, so a field that becomes a
property derived from another hashes the same."""

import dataclasses
import hashlib
import importlib.util
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
