import json

import numpy as np
import pytest

import ilsolve as il
from ilsolve.cli import main


def test_solve_random_instance(capsys):
    code = main(["solve", "--random", "8,6,5", "--preconditioner", "ibs2", "--inner", "cholesky"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged: True" in out


def test_solve_json_output(capsys):
    code = main(["solve", "--random", "8,6,5", "--preconditioner", "ibs4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["RES"] < 1e-8
    assert payload["resumptions"] == sum(note.endswith("resuming") for note in payload["notes"])
    # One (iteration, estimate, true residual) per confirmation; the last
    # confirms the answer.
    *_, (it, estimate, true_res) = payload["confirmations"]
    assert it == payload["IT"] and true_res == payload["RES"] and estimate < 1e-8


def test_solve_failure_exit_code(capsys):
    code = main([
        "solve", "--random", "20,15,12", "--preconditioner", "none",
        "--outer-tol", "1e-12", "--outer-maxit", "2",
    ])
    assert code == 2


def test_validation_errors_exit_one(capsys):
    assert main(["solve", "--random", "8,6"]) == 1          # malformed triple
    assert main(["solve", "--matrix", "nope.mtx", "--q", "5"]) == 1  # missing file
    assert main(["solve", "--random", "8,6,5", "--matrix", "x.mtx", "--q", "2"]) == 1
    assert main(["bench", "does-not-exist.spec"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--random", "8,6,5", "--a2-scale", "3"], "a2_scale does not apply to problem = random"),
        (["--random", "8,6,5", "--no-normalize"], "normalize does not apply to problem = random"),
        (["--random", "8,6,5", "--q", "99"], "--q applies only to --matrix"),
        (["--hilbert", "30", "--seed", "5"], "seed does not apply to problem = hilbert"),
        (["--hilbert", "30", "--no-normalize"], "normalize does not apply to problem = hilbert"),
        (["--hilbert", "30", "--q", "5"], "--q applies only to --matrix"),
        (["--matrix", "x.mtx", "--q", "5", "--seed", "5"], "seed does not apply to problem = matrix-market"),
    ],
)
def test_setting_of_another_source_exits_one(capsys, argv, message):
    assert main(["solve", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bench_writes_reports(tmp_path, capsys):
    spec = tmp_path / "exp.txt"
    spec.write_text(
        "problem = random\np = 8\nq = 6\nn = 5\nseed = 3\n"
        "preconditioners = ibs2, ibs4\ninner = cholesky\nruns = 1\n"
    )
    out_base = tmp_path / "results"
    code = main(["bench", str(spec), "--out", str(out_base)])
    assert code == 0
    assert (tmp_path / "results.csv").exists()
    data = json.loads((tmp_path / "results.json").read_text())
    assert {row["preconditioner"] for row in data} == {"ibs2", "ibs4"}
    assert all(row["converged"] for row in data)


def test_analyze_reports_conditions(tmp_path):
    out = tmp_path / "analysis.json"
    code = main(["analyze", "--random", "8,5,4", "--preconditioners", "ibs2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["conditions"]["spd_normal"] is True
    variant = data["variants"]["ibs2"]
    assert variant["rho_estimate"] < 1.0
    assert variant["gmres_bound_ok"] is True
    assert variant["interval_contained"] is True


@pytest.mark.parametrize("names", [",", " , ,", ""])
def test_analyze_without_a_variant_exits_one(capsys, names):
    assert main(["analyze", "--random", "8,5,4", "--preconditioners", names]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --preconditioners must name at least one variant\n"


def test_matrix_without_q_exits_one(capsys):
    assert main(["solve", "--matrix", "x.mtx"]) == 1
    assert capsys.readouterr().err == "error: q is required for problem = matrix-market\n"


def test_generate_roundtrip(tmp_path):
    prefix = tmp_path / "prob"
    code = main(["generate", "--random", "6,4,3", "--out-prefix", str(prefix)])
    assert code == 0
    a1 = il.read_matrix_market(f"{prefix}_a1.mtx")
    a2 = il.read_matrix_market(f"{prefix}_a2.mtx")
    b1 = il.read_matrix_market(f"{prefix}_b1.mtx")
    assert a1.shape == (6, 3) and a2.shape == (4, 3)
    assert b1.shape == (6, 1)
    # Values survive the text round trip exactly.
    original = il.generate_random_problem(6, 4, 3, seed=0)
    assert np.allclose(a1.to_dense(), np.asarray(original.a1), rtol=0, atol=0)


def test_hilbert_solve_cli(capsys):
    code = main(["solve", "--hilbert", "40", "--preconditioner", "ibs2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
