"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest perfbench"""

import argparse
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from workloads import Cell, DeskWorkload, HilbertWorkload, SparseWorkload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sparse-ibs": lambda: SparseWorkload(workloads.preconditioners.IBS_VARIANTS, pool=2, n=12, q=40),
    "sparse-baseline": lambda: SparseWorkload(("bs2", "but"), n=12, q=40),
    "dense-hilbert": lambda: HilbertWorkload(n=6),
    "desk-analysis": lambda: DeskWorkload(pool=2, p=12, q=6, n=8),
}


def tiny_run(name, trace, tmp_path, capsys):
    args = argparse.Namespace(seed=run.DEFAULT_SEED, seconds=0.0, trace=trace)
    result = run.measure(TINY[name](), args, tmp_path)
    capsys.readouterr()
    return result


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, tmp_path, capsys):
    plain, tracers = tiny_run(name, 0, tmp_path, capsys)
    assert tracers is None
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    traced, tracers = tiny_run(name, 1, tmp_path, capsys)
    spans.save(tmp_path / "spans.npz", *tracers)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metrics in (plain["metrics"], traced["metrics"]):
        for value in metrics.values():
            assert np.isfinite(value["value"])


def test_every_workload_has_a_tiny_twin():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def _solved_cell(tmp_path):
    wl = SparseWorkload(("ibs2",), n=12, q=40)
    item = wl.inputs(7, tmp_path)[0]
    op = wl.setup([item])[0]
    x, rep, inner_it, cap_hits = op.run()
    assert op.check((x, rep, inner_it, cap_hits)).ok
    return item.check, x, rep


def test_gate_trips_on_planted_wrong_answer(tmp_path):
    chk, x, rep = _solved_cell(tmp_path)

    def gate(v, final_res, converged):
        return workloads.check_solve(Cell("p", "ibs2", "cg", "fgmres"), chk, v, final_res, converged).ok

    assert gate(x, rep.final_res, True)
    wrong = x.copy()
    wrong[chk.p] += 1e-3
    assert not gate(wrong, rep.final_res, True)          # wrong iterate
    assert not gate(x, rep.final_res * 0.5, True)        # report overstates
    assert not gate(x, rep.final_res, False)             # unconverged


def test_block_check_matches_dense_assembly(tmp_path):
    chk, x, _ = _solved_cell(tmp_path)
    a2 = chk.a2x(np.eye(chk.n))
    dense = np.block([
        [np.eye(chk.p), chk.a1, np.zeros((chk.p, chk.q))],
        [np.zeros((chk.n, chk.p)), chk.a1.T @ chk.a1, a2.T],
        [np.zeros((chk.q, chk.p)), a2, np.eye(chk.q)],
    ])
    np.testing.assert_allclose(chk.block_product(x), dense @ x, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(chk.block_matrix(), dense)


def test_same_seed_builds_bit_identical_problems(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    a, b = (SparseWorkload(("ibs2",), pool=2).inputs(1234, tmp_path / sub) for sub in ("a", "b"))
    for x, y in zip(a, b):
        assert x.path.read_bytes() == y.path.read_bytes()
        assert x.check.a1.tobytes() == y.check.a1.tobytes()
    read = [workloads.mmio.read_matrix_market(item.path) for item in (a[0], b[0])]
    for field in ("row_offsets", "col_indices", "values"):
        assert getattr(read[0], field).tobytes() == getattr(read[1], field).tobytes()
    c, d = (DeskWorkload(pool=2, p=12, q=6, n=8).inputs(5, tmp_path) for _ in range(2))
    for x, y in zip(c, d):
        assert x.check.a1.tobytes() == y.check.a1.tobytes()
        assert x.check.a2.tobytes() == y.check.a2.tobytes()


def test_pool_members_differ(tmp_path):
    items = SparseWorkload(("ibs2",), pool=3, n=12, q=40).inputs(1234, tmp_path)
    desks = DeskWorkload(pool=3, p=12, q=6, n=8).inputs(1234, tmp_path)
    for a1s in ([item.check.a1 for item in items], [item.check.a1 for item in desks]):
        assert not np.array_equal(a1s[0], a1s[1]) and not np.array_equal(a1s[1], a1s[2])


def test_standin_matches_seed_and_second_seed_differs(tmp_path):
    outer = {}
    for seed in (1234, 1):
        (tmp_path / str(seed)).mkdir()
        wl = SparseWorkload(("ibs2",))
        item = wl.inputs(seed, tmp_path / str(seed))[0]
        op = wl.setup([item])[0]
        cell = op.check(op.run())
        assert cell.ok
        outer[seed] = (cell.outer_it, item.check.a1)
    assert outer[1234][0] == 11 and outer[1][0] == 13
    assert not np.array_equal(outer[1234][1], outer[1][1])


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
