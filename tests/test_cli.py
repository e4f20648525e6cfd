import argparse
import json
import re

import numpy as np
import pytest

import ilsolve as il
from ilsolve import cli
from ilsolve.bench import _SPEC_KEYS, load_experiment_spec
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


def test_failed_exact_factor_exits_two(capsys):
    # bs1's unshifted Gram factor of Hilbert n = 100 meets a pivot at or
    # below the rounding floor: a solver failure, not a validation error.
    argv = ["solve", "--hilbert", "100", "--inner", "cholesky", "--preconditioner", "bs1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: pivot \S+ at elimination step \d+ is at or below the rounding floor \S+\n",
                        captured.err)


def test_failed_exact_factor_is_a_failed_row(tmp_path, capsys):
    spec = tmp_path / "exp.spec"
    spec.write_text(
        "problem = hilbert\nn = 100\ninner = cholesky\npreconditioners = ibs2, bs1, ibs4\n"
        f"runs = 1\nout = {tmp_path / 'res'}\n"
    )
    assert main(["bench", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "[200x100] bs1: FAILED IT=- CPU=-"
    assert lines[-1] == f"wrote {tmp_path / 'res'}.csv and {tmp_path / 'res'}.json"
    data = json.loads((tmp_path / "res.json").read_text())
    assert [(row["preconditioner"], row["converged"]) for row in data] == [
        ("ibs2", True), ("bs1", False), ("ibs4", True),
    ]
    ref_note = "reduced normal matrix indefinite; reference from dense LU solve"
    assert data[0]["note"] == data[2]["note"] == ref_note
    assert data[1]["note"].startswith(f"{ref_note}; solver failure: pivot ")
    # A failed solve leaves CPU empty, as it does IT, RES and ERR.
    assert data[1]["IT"] is data[1]["CPU"] is data[1]["RES"] is data[1]["ERR"] is None
    assert data[0]["CPU"] > 0.0 and data[2]["CPU"] > 0.0
    record = (tmp_path / "res.csv").read_text().splitlines()[2].split(",")
    assert record == ["200x100", "bs1", "", "", "", "", "false"]


def test_validation_errors_exit_one(capsys):
    assert main(["solve", "--random", "8,6"]) == 1          # malformed triple
    assert main(["solve", "--matrix", "nope.mtx", "--q", "5"]) == 1  # missing file
    assert main(["solve", "--random", "8,6,5", "--matrix", "x.mtx", "--q", "2"]) == 1
    assert main(["bench", "does-not-exist.spec"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--random", "8,6,5", "--a2-scale", "3"], "a2_scale does not apply to problem = random"),
        (["--random", "8,6,5", "--normalize", "false"], "normalize does not apply to problem = random"),
        (["--random", "8,6,5", "--q", "99"], "--q applies only to --matrix"),
        (["--hilbert", "30", "--seed", "5"], "seed does not apply to problem = hilbert"),
        (["--hilbert", "30", "--normalize", "false"], "normalize does not apply to problem = hilbert"),
        (["--hilbert", "30", "--q", "5"], "--q applies only to --matrix"),
        (["--matrix", "x.mtx", "--q", "5", "--seed", "5"], "seed does not apply to problem = matrix-market"),
        (["--random", "8,6,5", "--inner", "cholesky", "--inner-tol", "0.5", "--inner-maxit", "3"],
         "inner_tol does not apply to inner = cholesky"),
        (["--random", "8,6,5", "--inner", "cholesky", "--inner-maxit", "3"],
         "inner_maxit does not apply to inner = cholesky"),
    ],
)
def test_setting_of_another_source_exits_one(capsys, argv, message):
    assert main(["solve", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--random", "8,6,5", "--inner-tol", "abc"], "argument --inner-tol: "),
        (["--random", "8,6,5", "--preconditioner", "xyz"], "argument --preconditioner: "),
        (["--hilbert", "abc"], "argument --hilbert: "),
        (["--random", "8,6,5", "--bogus"], "unrecognized arguments: --bogus"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, flag):
    assert main(["solve", *argv]) == 1
    assert flag in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--inner-tol" in capsys.readouterr().out


# One source per spec file key that is a flag, as (argv, spec file lines),
# with a value that the source accepts.
RANDOM = (["--random", "8,6,5"], "problem = random\np = 8\nq = 6\nn = 5\n")
HILBERT = (["--hilbert", "4"], "problem = hilbert\nn = 4\n")
MATRIX = (["--matrix", "x.mtx", "--q", "5"], "problem = matrix-market\nmatrix = x.mtx\nq = 5\n")
FLAG_CASES = {
    "a2_scale": (HILBERT, "2.5"),
    "normalize": (MATRIX, "no"),
    "seed": (RANDOM, "7"),
    "inner": (RANDOM, "cholesky"),
    "inner.tol": (RANDOM, "0.25"),
    "inner.maxit": (RANDOM, "7"),
    "outer.tol": (RANDOM, "1e-6"),
    "outer.maxit": (RANDOM, "30"),
    "outer.restart": (RANDOM, "12"),
}


def _flag(key):
    return "--" + _SPEC_KEYS[key][0].replace("_", "-")


def _solve_spec(monkeypatch, argv):
    """The ExperimentSpec that ``ilsolve solve argv`` builds its problem from."""
    specs = []

    def capture(spec):
        specs.append(spec)
        raise il.ConfigurationError("captured")

    monkeypatch.setattr(cli, "build_problem", capture)
    assert main(["solve", *argv]) == 1
    return specs[0]


def test_every_flag_key_has_a_case():
    assert set(FLAG_CASES) == set(cli._SOURCE_FLAGS + cli._SOLVER_FLAGS)


@pytest.mark.parametrize("command, keys", [
    ("solve", cli._SOURCE_FLAGS + cli._SOLVER_FLAGS),
    ("analyze", cli._SOURCE_FLAGS),
    ("generate", cli._SOURCE_FLAGS),
])
def test_generated_flags_are_the_listed_spec_fields(command, keys):
    # A generated flag defaults to SUPPRESS, so an unset one leaves the
    # spec's default; no hand-written flag does.
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    generated = [
        action for action in subparsers.choices[command]._actions
        if action.default is argparse.SUPPRESS and action.dest != "help"
    ]
    assert {action.dest for action in generated} == {_SPEC_KEYS[key][0] for key in keys}
    for action in generated:
        assert action.option_strings == ["--" + action.dest.replace("_", "-")]


@pytest.mark.parametrize("key", FLAG_CASES)
def test_flag_and_spec_file_key_build_equal_specs(tmp_path, capsys, monkeypatch, key):
    (argv, lines), value = FLAG_CASES[key]
    path = tmp_path / "x.spec"
    path.write_text(f"{lines}{key} = {value}\n")
    from_flag = _solve_spec(monkeypatch, [*argv, "--preconditioner", "ibs2", _flag(key), value])
    assert from_flag == load_experiment_spec(path)
    assert from_flag != _solve_spec(monkeypatch, [*argv, "--preconditioner", "ibs2"])


@pytest.mark.parametrize("key", FLAG_CASES)
def test_value_that_does_not_convert_exits_one_from_both(tmp_path, capsys, key):
    (argv, lines), _ = FLAG_CASES[key]
    path = tmp_path / "x.spec"
    path.write_text(f"{lines}{key} = abc\n")
    assert main(["bench", str(path)]) == 1
    line = lines.count("\n") + 1
    reason = capsys.readouterr().err.removeprefix(f"error: {path}").removeprefix(f":{line}: {key}")
    assert main(["solve", *argv, _flag(key), "abc"]) == 1
    # The same reason from both, after the key or the flag where it is a
    # conversion error.
    assert capsys.readouterr().err.endswith(reason.removeprefix(": "))


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


def test_bench_out_overrides_the_spec_files_out(tmp_path, capsys):
    spec = tmp_path / "exp.txt"
    spec.write_text(
        "problem = random\np = 8\nq = 6\nn = 5\nseed = 3\npreconditioners = ibs2\n"
        f"inner = cholesky\nruns = 1\nout = {tmp_path / 'from_spec'}\n"
    )
    assert main(["bench", str(spec), "--out", str(tmp_path / "from_flag")]) == 0
    assert f"wrote {tmp_path / 'from_flag'}.csv" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.txt", "from_flag.csv", "from_flag.json"]


def _refuse(constant):
    raise AssertionError(f"{constant} is not JSON")


def test_analyze_prints_an_infinite_condition_number_as_null(capsys):
    # Hilbert n = 30: the computed smallest eigenvalue of A1'A1 is not
    # positive, so kappa_gram is infinite.
    assert main(["analyze", "--hilbert", "30", "--preconditioners", "ibs2"]) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    assert data["conditions"]["spd_normal"] is False
    assert data["conditions"]["kappa_gram"] is None
    assert data["conditions"]["kappa_shifted_gram"] > 1.0


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


def test_analyze_refuses_an_over_cap_problem_before_any_work(capsys, monkeypatch):
    # --random 12,8,6 has size 12 + 6 + 8 = 26; with the cap at 25 the
    # condition check must not run.
    checked = []
    monkeypatch.setattr(il.preconditioners, "DENSE_ASSEMBLY_MAX_SIZE", 25)
    monkeypatch.setattr(cli, "check_convergence_conditions", lambda prob: checked.append(prob))
    assert main(["analyze", "--random", "12,8,6"]) == 1
    assert capsys.readouterr().err == "error: dense assembly requested for size 26 > cap 25\n"
    assert checked == []


def test_analyze_with_a_baseline_exits_one(capsys, monkeypatch):
    # The variants are checked before any problem is built.
    monkeypatch.setattr(il.cli, "build_problem", pytest.fail)
    assert main(["analyze", "--random", "8,5,4", "--preconditioners", "ibs2, BS1"]) == 1
    assert capsys.readouterr().err == f"error: analyze is defined for {il.IBS_VARIANTS}, got 'bs1'\n"


def test_matrix_without_q_exits_one(capsys):
    assert main(["solve", "--matrix", "x.mtx"]) == 1
    assert capsys.readouterr().err == "error: q is required for problem = matrix-market\n"


@pytest.mark.parametrize("argv, original", [
    (["--random", "6,4,3"], il.generate_random_problem(6, 4, 3, seed=0)),
    (["--hilbert", "5"], il.generate_hilbert_problem(5)),
], ids=["random", "hilbert"])
def test_generate_roundtrip(tmp_path, argv, original):
    prefix = tmp_path / "prob"
    assert main(["generate", *argv, "--out-prefix", str(prefix)]) == 0
    for name in ("a1", "a2", "b1", "b2"):
        block = getattr(original, name)
        path = tmp_path / f"prob_{name}.mtx"
        layout = "coordinate" if isinstance(block, il.SparseMatrixCsr) else "array"
        assert path.read_text().startswith(f"%%MatrixMarket matrix {layout} real general\n")
        # Values survive the text round trip exactly.
        back = il.read_matrix_market(path).to_dense()
        want = block.to_dense() if layout == "coordinate" else block.reshape(block.shape[0], -1)
        assert np.array_equal(back, want), name


def test_hilbert_solve_cli(capsys):
    code = main(["solve", "--hilbert", "40", "--preconditioner", "ibs2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True


def test_analyze_refuses_a_pencil_over_its_cap_before_any_work(tmp_path, capsys, monkeypatch):
    # A 5 x 1001 core: the dense assembly (size 5 + 1001 + 5) is under its
    # cap, the pencil (n = 1001) is over its own; the Jacobi sweep of the
    # condition check on the 1001 x 1001 Gram must not start.
    path = tmp_path / "wide.mtx"
    il.write_matrix_market(np.random.default_rng(0).standard_normal((5, 1001)), path)
    checked = []
    monkeypatch.setattr(cli, "check_convergence_conditions", lambda prob: checked.append(prob))
    assert main(["analyze", "--matrix", str(path), "--q", "5"]) == 1
    assert capsys.readouterr().err == f"error: pencil reduction capped at n = {il.analysis.PENCIL_MAX_N}, got 1001\n"
    assert checked == []
