import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ilsolve as il
from ilsolve import (
    ConfigurationError,
    ExperimentSpec,
    TableRow,
    generate_augmented_problem,
    generate_hilbert_problem,
    generate_random_problem,
    load_experiment_spec,
    reference_solution,
    report_write,
    run_experiment,
)
from ilsolve.bench import build_problem, hilbert_matrix
from ilsolve.cli import main
from ilsolve.sparse import normalize_to_unit_one_norm, rectangular_identity_csr

from conftest import random_csr, scalar_problem


class TestAugmentedGenerator:
    def test_zero_scale_gives_empty_a2(self):
        prob = generate_augmented_problem(rectangular_identity_csr(2, 2), q=2, scale=0.0)
        assert prob.a2.nnz == 0
        assert np.array_equal(prob.b1, np.ones(2))

    def test_dimensions_and_nnz(self, rng):
        core = random_csr(rng, 7, 7)
        for q in (3, 7, 20):
            prob = generate_augmented_problem(core, q=q, scale=6.0)
            assert (prob.m, prob.n) == (7 + q, 7)
            assert prob.a2.nnz == min(q, 7)

    def test_normalized_core_gives_unit_alpha(self, rng):
        core = normalize_to_unit_one_norm(random_csr(rng, 9, 9))
        prob = generate_augmented_problem(core, q=30, scale=6.0)
        assert abs(prob.alpha - 1.0) <= 4e-15

    def test_q_validation(self):
        with pytest.raises(ValueError):
            generate_augmented_problem(rectangular_identity_csr(2, 2), q=0)


class TestHilbertGenerator:
    def test_order_two_entries(self):
        h = hilbert_matrix(2)
        assert np.array_equal(h, np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]]))

    def test_alpha_from_one_norm(self):
        prob = generate_hilbert_problem(2, a2_scale=0.7)
        assert abs(prob.alpha - 2.25) <= 1e-15  # (1 + 1/2)^2

    def test_shape_labels(self):
        prob = generate_hilbert_problem(5, a2_scale=0.7)
        assert prob.label() == "10x5"
        assert prob.p == prob.q == prob.n == 5

    def test_cap_enforced(self):
        with pytest.raises(ConfigurationError):
            generate_hilbert_problem(2001)


class TestRandomGenerator:
    def test_reduced_normal_matrix_is_spd(self):
        for seed in range(5):
            prob = generate_random_problem(12, 9, 7, seed=seed)
            a1, a2 = np.asarray(prob.a1), np.asarray(prob.a2)
            eigs = np.linalg.eigvalsh(a1.T @ a1 - a2.T @ a2)
            assert eigs.min() > 0.4  # construction targets 0.5

    def test_requires_full_column_rank_shape(self):
        with pytest.raises(ValueError):
            generate_random_problem(4, 5, 6, seed=0)

    def test_deterministic_in_seed(self):
        a = generate_random_problem(8, 5, 4, seed=7)
        b = generate_random_problem(8, 5, 4, seed=7)
        assert np.array_equal(np.asarray(a.a1), np.asarray(b.a1))
        assert a.alpha == b.alpha


class TestReferenceSolution:
    def test_scalar(self):
        x, note = reference_solution(scalar_problem())
        assert note == ""
        np.testing.assert_allclose(x, [2.0], rtol=0, atol=1e-14)

    def test_indefinite_fallback(self):
        # Hilbert-style instance: the reduced normal matrix is indefinite
        # but nonsingular, so the fallback must produce a valid solution
        # of the normal equations.
        prob = generate_hilbert_problem(30, a2_scale=0.7)
        x, note = reference_solution(prob)
        assert "indefinite" in note
        h = hilbert_matrix(30)
        normal = h.T @ h - 0.49 * np.eye(30)
        rhs = h.T @ np.ones(30) - 0.7 * np.ones(30)
        assert np.linalg.norm(normal @ x - rhs) / np.linalg.norm(rhs) <= 1e-8

    @pytest.mark.parametrize(
        "a2_scale, cap, error, message",
        [
            # A1 = A2 = I_4 makes A1'A1 - A2'A2 the zero matrix.
            (1.0, None, il.ProblemAssumptionError, "reduced normal matrix is singular"),
            # A nonsingular problem one unknown past the dense cap.
            (0.5, 3, ConfigurationError, "dense reference solution requested for n = 4 > cap 3"),
        ],
        ids=["singular", "above-cap"],
    )
    def test_singular_normal_matrix_gives_rows_without_err(
        self, tmp_path, monkeypatch, a2_scale, cap, error, message
    ):
        matrix = tmp_path / "eye.mtx"
        il.write_matrix_market(rectangular_identity_csr(4, 4), matrix)
        spec = ExperimentSpec(
            matrix=str(matrix), q=4, a2_scale=a2_scale, normalize=False,
            preconditioners=("ibs2",), runs=1,
        )
        if cap is not None:
            monkeypatch.setattr(il.problem, "DENSE_MAX_N", cap)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            reference_solution(build_problem(spec))
        (row,) = run_experiment(spec)
        assert row.preconditioner == "ibs2" and row.err is None
        assert row.note == f"reference solution unavailable: {message}"


class TestSpecParsing:
    def test_full_file(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(
            """
            # comment
            problem = random
            p = 8
            q = 6
            n = 5
            preconditioners = ibs2, but
            inner = cg
            inner.tol = 1e-4
            inner.maxit = 500
            outer.tol = 1e-9
            outer.maxit = 300
            outer.restart = 40
            runs = 2
            seed = 11
            out = some/base
            """
        )
        spec = load_experiment_spec(path)
        assert spec.problem == "random"
        assert spec.preconditioners == ("ibs2", "but")
        assert spec.inner == "cg"
        assert spec.inner_tol == 1e-4 and spec.inner_maxit == 500
        assert spec.outer_tol == 1e-9 and spec.outer_maxit == 300
        assert spec.restart == 40 and spec.runs == 2 and spec.seed == 11
        assert spec.out == "some/base"

    def test_hilbert_a2_scale(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("problem = hilbert\nn = 4\na2_scale = 2.5\n")
        spec = load_experiment_spec(path)
        assert spec.a2_scale == 2.5
        assert np.array_equal(build_problem(spec).a2.to_dense(), 2.5 * np.eye(4))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("problem = random\nwibble = 3\n")
        with pytest.raises(ValueError, match="wibble"):
            load_experiment_spec(path)

    def test_defaults(self, tmp_path):
        path = tmp_path / "min.txt"
        path.write_text("problem = random\np = 6\nq = 4\nn = 3\n")
        spec = load_experiment_spec(path)
        assert spec.preconditioners == ("ibs1", "ibs2", "ibs3", "ibs4")
        assert spec.inner == "cg" and spec.runs == 5
        assert spec.outer_tol == 1e-8 and spec.outer_maxit == 2000

    def test_bad_preconditioner_name(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="random", preconditioners=("ibs7",))

    def test_runs_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="random", runs=0)

    def test_missing_matrix_path(self):
        # Rejected by the spec itself, before any problem is built.
        with pytest.raises(ValueError, match="^matrix is required for problem = matrix-market$"):
            ExperimentSpec(problem="matrix-market", q=10)

    def test_missing_matrix_file_fails_before_solving(self, tmp_path):
        spec = ExperimentSpec(problem="matrix-market", matrix=str(tmp_path / "nope.mtx"), q=10)
        with pytest.raises(OSError):
            build_problem(spec)


class TestSpecBoundary:
    @pytest.mark.parametrize(
        "line, key",
        [("q = x", "q"), ("outer.tol = abc", "outer.tol"), ("normalize = flase", "normalize")],
    )
    def test_conversion_error_names_path_line_and_key(self, tmp_path, capsys, line, key):
        path = tmp_path / "bad.spec"
        path.write_text(f"problem = random\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_experiment_spec(path)
        assert str(exc.value).startswith(f"{path}:2: {key}: ")
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: {key}: ")

    def test_key_given_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "twice.spec"
        path.write_text("problem = random\nruns = 1\n# again\nruns = 3\n")
        with pytest.raises(ValueError) as exc:
            load_experiment_spec(path)
        assert str(exc.value) == f"{path}:4: runs: set twice"
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:4: runs: set twice\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("preconditioners =", "preconditioners must name at least one variant"),
            ("seed = -1", "seed must be at least 0"),
        ],
    )
    def test_invalid_value_rejected_before_building(self, tmp_path, capsys, monkeypatch, line, message):
        path = tmp_path / "v.spec"
        path.write_text(f"problem = random\np = 6\nq = 4\nn = 3\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_experiment_spec(path)
        assert str(exc.value) == f"{path}: {message}"
        monkeypatch.setattr(il.bench, "build_problem", pytest.fail)
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_negative_seed_rejected_on_the_command_line(self, capsys):
        assert main(["solve", "--random", "6,4,3", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be at least 0\n"

    @pytest.mark.parametrize("text, value", [("no", False), ("0", False), ("YES", True), ("1", True)])
    def test_boolean_spellings(self, tmp_path, text, value):
        path = tmp_path / "b.spec"
        path.write_text(f"problem = matrix-market\nmatrix = a.mtx\nq = 1\nnormalize = {text}\n")
        assert load_experiment_spec(path).normalize is value

    def test_unknown_inner_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "qr.spec"
        path.write_text("problem = random\np = 6\nq = 4\nn = 3\ninner = qr\n")
        with pytest.raises(ValueError, match="inner solver 'qr'"):
            load_experiment_spec(path)
        assert main(["bench", str(path)]) == 1
        assert "inner solver 'qr'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, line, key",
        [
            ("matrix-market", "p = 4", "p"),
            ("matrix-market", "n = 4", "n"),
            ("matrix-market", "seed = 3", "seed"),
            ("hilbert", "matrix = a.mtx", "matrix"),
            ("hilbert", "p = 4", "p"),
            ("hilbert", "q = 4", "q"),
            ("hilbert", "normalize = no", "normalize"),
            ("hilbert", "seed = 3", "seed"),
            ("random", "matrix = a.mtx", "matrix"),
            ("random", "a2_scale = 2.5", "a2_scale"),
            ("random", "normalize = no", "normalize"),
        ],
    )
    def test_setting_of_another_source_rejected(self, tmp_path, capsys, source, line, key):
        path = tmp_path / "x.spec"
        path.write_text(f"problem = {source}\n{line}\n")
        message = f"{path}: {key} does not apply to problem = {source}"
        with pytest.raises(ValueError) as exc:
            load_experiment_spec(path)
        assert str(exc.value) == message
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("lines, key", [
        ("inner.tol = 0.5\ninner.maxit = 3", "inner_tol"),
        ("inner.maxit = 3", "inner_maxit"),
    ], ids=["tol-and-maxit", "maxit"])
    def test_inner_setting_that_cholesky_does_not_read_rejected(self, tmp_path, capsys, lines, key):
        path = tmp_path / "c.spec"
        path.write_text(f"problem = random\np = 6\nq = 4\nn = 3\ninner = cholesky\n{lines}\n")
        message = f"{path}: {key} does not apply to inner = cholesky"
        with pytest.raises(ValueError) as exc:
            load_experiment_spec(path)
        assert str(exc.value) == message
        assert main(["bench", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unset_inner_settings_take_cg_defaults(self):
        assert set(il.bench._INNER_FIELDS) == set(il.preconditioners.INNER_SOLVERS)
        spec = ExperimentSpec(problem="random", p=6, q=4, n=3)
        assert spec.inner_tol is None and spec.inner_maxit is None
        assert spec.inner_config() == il.CgConfig()
        assert dataclasses.replace(spec, inner_maxit=7).inner_config() == il.CgConfig(max_iterations=7)

    def test_cholesky_has_no_inner_config(self):
        # Cholesky reads no inner settings, so a spec gives solve none.
        spec = ExperimentSpec(problem="random", p=6, q=4, n=3, inner="cholesky")
        assert spec.inner_config() is None

    def test_unset_seed_and_normalize_take_the_generator_defaults(self, tmp_path):
        prob = build_problem(ExperimentSpec(problem="random", p=6, q=4, n=3))
        ref = generate_random_problem(6, 4, 3)
        assert np.array_equal(prob.a1, ref.a1) and prob.alpha == ref.alpha
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 2.0\n")
        spec = ExperimentSpec(problem="matrix-market", matrix=str(path), q=1)
        assert np.array_equal(build_problem(spec).a1.to_dense(), np.diag([1.0, 0.5]))

    def test_hilbert_spec_uses_generator_a2_scale(self):
        prob = build_problem(ExperimentSpec(problem="hilbert", n=3))
        assert np.array_equal(prob.a2.to_dense(), 0.7 * np.eye(3))

    def test_spec_and_cli_solve_agree(self, tmp_path, capsys):
        path = tmp_path / "h.spec"
        path.write_text("problem = hilbert\nn = 40\npreconditioners = ibs2\nruns = 1\n")
        row = run_experiment(load_experiment_spec(path))[0]
        assert main(["solve", "--hilbert", "40", "--preconditioner", "ibs2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (row.it, row.res) == (payload["IT"], payload["RES"])
        assert row.inner_iterations == payload["inner_iterations"]


class TestSpecIsImmutable:
    SPEC = ExperimentSpec(problem="hilbert", n=4, runs=1)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentSpec)])
    def test_no_field_can_be_assigned(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.SPEC, name, None)

    def test_replaced_runs_are_checked(self):
        with pytest.raises(ValueError, match="^runs must be at least 1$"):
            dataclasses.replace(self.SPEC, runs=0)

    def test_replaced_preconditioners_are_checked(self):
        with pytest.raises(ValueError, match=r"^unknown preconditioners \['IBS7'\]"):
            dataclasses.replace(self.SPEC, preconditioners=("IBS7",))
        spec = dataclasses.replace(self.SPEC, preconditioners=("IBS2", "But"))
        assert spec.preconditioners == ("ibs2", "but")


class TestRunExperiment:
    def test_rows_for_random_problem(self):
        spec = ExperimentSpec(
            problem="random", p=8, q=6, n=5, seed=3,
            preconditioners=("ibs2", "none"), inner="cholesky",
            outer_tol=1e-10, runs=2,
        )
        rows = run_experiment(spec)
        assert [r.preconditioner for r in rows] == ["ibs2", "none"]
        for row in rows:
            assert row.converged
            assert row.res is not None and row.res < 1e-10
            assert row.err is not None and row.err < 1e-8
            assert row.problem == "14x5"

    def test_deterministic_given_seed_and_exact_inner(self):
        spec = ExperimentSpec(
            problem="random", p=9, q=5, n=4, seed=8,
            preconditioners=("ibs1", "ibs4"), inner="cholesky", runs=3,
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        for ra, rb in zip(a, b):
            assert ra.it == rb.it and ra.res == rb.res and ra.err == rb.err

    def test_unconverged_row_flagged(self):
        spec = ExperimentSpec(
            problem="random", p=20, q=15, n=12, seed=4,
            preconditioners=("none",), inner="cholesky",
            outer_tol=1e-12, outer_maxit=2, runs=1,
        )
        row = run_experiment(spec)[0]
        assert not row.converged
        assert row.it is None and row.res is None and row.err is None
        assert "no convergence" in row.note


class TestItIsACount:
    """Repeated solves of one cell are deterministic, so IT is the final
    run's count: the count of any one solve, an int."""

    @pytest.mark.parametrize("inner", ["cg", "cholesky"])
    def test_it_of_three_runs_is_one_solves_count(self, tmp_path, inner):
        spec = ExperimentSpec(problem="hilbert", n=40, preconditioners=("ibs2",), inner=inner, runs=3)
        [row] = run_experiment(spec)
        [single] = run_experiment(dataclasses.replace(spec, runs=1))
        _, report = il.solve(build_problem(spec), "ibs2", inner, spec.inner_config(), spec.outer_config())
        assert row.converged and type(row.it) is int
        assert row.it == report.iterations == single.it
        assert row.inner_iterations == report.inner_iterations == single.inner_iterations
        report_write([row], "csv", tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[2] == str(row.it)
        report_write([row], "json", tmp_path / "r.json")
        assert type(json.loads((tmp_path / "r.json").read_text())[0]["IT"]) is int


class TestReportWrite:
    def test_single_row_csv(self, tmp_path):
        rows = [TableRow("2x1", "ibs2", 3, 0.001, 9.89e-10, 1.5e-9, True)]
        path = tmp_path / "r.csv"
        report_write(rows, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "problem,preconditioner,IT,CPU,RES,ERR,converged"
        assert len(lines) == 2
        assert lines[1].startswith("2x1,ibs2,3,0.001,")
        assert "9.89e-10" in lines[1]

    def test_unconverged_cells_empty(self, tmp_path):
        rows = [TableRow("2x1", "bs2", None, 0.5, None, None, False)]
        path = tmp_path / "r.csv"
        report_write(rows, "csv", path)
        record = path.read_text().strip().splitlines()[1].split(",")
        assert record[2] == "" and record[4] == "" and record[5] == ""
        assert record[6] == "false"

    def test_json_full_precision(self, tmp_path):
        res = 9.887654321e-10
        rows = [TableRow("2x1", "ibs2", 3, 0.001, res, None, True)]
        path = tmp_path / "r.json"
        report_write(rows, "json", path)
        data = json.loads(path.read_text())
        assert data[0]["RES"] == res
        assert data[0]["ERR"] is None

    def test_csv_json_agreement(self, tmp_path):
        spec = ExperimentSpec(
            problem="random", p=8, q=6, n=5, seed=3,
            preconditioners=("ibs1", "ibs3"), inner="cholesky", runs=1,
        )
        rows = run_experiment(spec)
        report_write(rows, "csv", tmp_path / "r.csv")
        report_write(rows, "json", tmp_path / "r.json")
        with open(tmp_path / "r.csv") as fh:
            parsed = list(csv.DictReader(fh))
        data = json.loads((tmp_path / "r.json").read_text())
        for c, j in zip(parsed, data):
            assert c["problem"] == j["problem"]
            assert c["preconditioner"] == j["preconditioner"]
            assert int(c["IT"]) == j["IT"]
            assert float(c["RES"]) == pytest.approx(j["RES"], rel=5e-3)
            assert float(c["ERR"]) == pytest.approx(j["ERR"], rel=5e-3)

    def test_json_carries_inner_counts(self, tmp_path):
        spec = ExperimentSpec(
            problem="random", p=8, q=6, n=5, seed=3, preconditioners=("ibs2",), runs=2,
        )
        rows = run_experiment(spec)
        report_write(rows, "json", tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data[0]["inner_iterations"] == rows[0].inner_iterations > 0
        assert data[0]["inner_failures"] == rows[0].inner_failures == 0

    def test_json_keys_follow_the_row_fields(self, tmp_path):
        rows = [TableRow("2x1", "ibs2", 3, 0.001, 1e-9, 2e-9, True, "a note", 7, 1)]
        report_write(rows, "json", tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data == [{
            "problem": "2x1", "preconditioner": "ibs2", "IT": 3, "CPU": 0.001, "RES": 1e-9,
            "ERR": 2e-9, "converged": True, "note": "a note", "inner_iterations": 7, "inner_failures": 1,
        }]
        assert list(data[0]) == [
            "problem", "preconditioner", "IT", "CPU", "RES", "ERR", "converged", "note",
            "inner_iterations", "inner_failures",
        ]

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report_write([], "csv", tmp_path / "r.csv")

    def test_unknown_format_rejected(self, tmp_path):
        rows = [TableRow("1x1", "none", 1, 0.0, 1e-9, None, True)]
        with pytest.raises(ValueError):
            report_write(rows, "xml", tmp_path / "r.xml")


def test_scalar_problem_with_no_preconditioner():
    spec = ExperimentSpec(
        problem="random", p=1, q=1, n=1, seed=2,
        preconditioners=("none",), inner="cholesky", runs=1,
    )
    row = run_experiment(spec)[0]
    assert row.converged and row.it <= 3
    assert row.res < 1e-8 and row.err < 1e-8


def standin_problem(rng, n=340):
    """Synthetic stand-in shaped like the published sparse benchmark rows:
    banded n x n core, q = 10000, scale-6 rectangular identity."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in (i - 2, i - 1, i, i + 1, i + 2):
            if 0 <= j < n and rng.random() < 0.8:
                rows.append(i)
                cols.append(j)
                vals.append(rng.standard_normal())
    core = normalize_to_unit_one_norm(
        il.SparseMatrixCsr.from_triplets(n, n, rows, cols, vals)
    )
    return generate_augmented_problem(core, q=10000, scale=6.0)


def test_full_pipeline_at_benchmark_scale(rng):
    # On the stand-in the reduced normal matrix goes indefinite exactly as
    # with the real matrices, the fallback reference kicks in, and the
    # paired variants should not lose to the unpaired ones.
    prob = standin_problem(rng)
    assert abs(prob.alpha - 1.0) <= 1e-12

    x_star, note = reference_solution(prob)
    assert "indefinite" in note

    rhs = il.build_rhs(prob)
    op = il.block_system_operator(prob)
    its = {}
    for kind in ("ibs1", "ibs2", "ibs3", "ibs4"):
        pre = il.make_preconditioner(
            kind, prob, inner="cg", inner_config=il.CgConfig(1e-3, 1000)
        )
        x, rep = il.fgmres_solve(op, pre, rhs, config=il.FgmresConfig(1e-8, 2000))
        assert rep.converged and rep.final_res < 1e-8
        err = np.linalg.norm(prob.split(x)[1] - x_star) / np.linalg.norm(x_star)
        assert err < 1e-6
        its[kind] = (rep.iterations, pre.inner_iterations)
    assert max(its["ibs2"][0], its["ibs4"][0]) <= min(its["ibs1"][0], its["ibs3"][0])
    # (outer, inner) counts, the first stand-in of the sparse-ibs
    # benchmark: a change to the solve path must not move them.
    assert its == {"ibs1": (15, 45), "ibs2": (11, 33), "ibs3": (15, 45), "ibs4": (11, 33)}


def test_hilbert_counts_at_benchmark_scale():
    # The dense-hilbert benchmark: Hilbert A1 (n = 1000, one dense block
    # swept by row panels in every Gram product), A2 = 0.7 I.  An exact
    # inner solve counts as one inner iteration, as in the benchmark.
    prob = generate_hilbert_problem(1000, a2_scale=0.7)
    rhs = il.build_rhs(prob)
    op = il.block_system_operator(prob)
    its = {}
    for kind in ("ibs2", "ibs4"):
        for inner in ("cholesky", "cg"):
            pre = il.make_preconditioner(kind, prob, inner=inner, inner_config=il.CgConfig(1e-3, 1000))
            _, rep = il.fgmres_solve(op, pre, rhs, config=il.FgmresConfig(1e-8, 2000))
            assert rep.converged and rep.final_res < 1e-8
            its[kind, inner] = (rep.iterations, pre.inner_iterations if inner == "cg" else rep.iterations)
    # (outer, inner) counts of the dense-hilbert benchmark: a rounding
    # change in the Gram product or the inner solves must not move them.
    assert its == {
        ("ibs2", "cholesky"): (8, 8), ("ibs4", "cholesky"): (8, 8),
        ("ibs2", "cg"): (10, 18), ("ibs4", "cg"): (10, 18),
    }


@pytest.mark.parametrize("workload, counts", [("sparse-ibs", (954, 2972)), ("desk-analysis", (586, 586))])
def test_benchmark_pool_counts(workload, counts):
    # The whole pool of a benchmark workload, run as the benchmark runs it:
    # its (outer, inner) totals are pinned here, since the benchmark itself
    # lets a count move by up to a quarter before it objects.
    run = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    args = ["--workload", workload, "--seed", "1234", "--seconds", "0", "--trace", "0"]
    out = subprocess.run([sys.executable, str(run), *args], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert (metrics["outer_it"]["value"], metrics["inner_it"]["value"]) == counts


@pytest.mark.parametrize(
    "problem, kind, inner",
    [("standin", kind, "cg") for kind in ("ibs1", "ibs2", "ibs3", "ibs4")]
    + [("hilbert", kind, inner) for kind in ("ibs2", "ibs4") for inner in ("cholesky", "cg")],
)
def test_confirmations_match_the_wrapped_operator(rng, problem, kind, inner):
    # On the block operator FGMRES takes the paired step, whose A z comes
    # from the splitting; on the wrapped operator apply and the block
    # product.  A drifting paired product would show as an estimate below
    # the tolerance whose true residual is not.
    prob = standin_problem(rng) if problem == "standin" else generate_hilbert_problem(200)
    op, rhs, cfg = il.block_system_operator(prob), il.build_rhs(prob), il.FgmresConfig(1e-8, 2000)
    reports = []
    for operator in (op, il.LinearOperator(prob.size, prob.size, op.apply)):
        pre = il.make_preconditioner(kind, prob, inner=inner, inner_config=il.CgConfig(1e-3, 1000))
        _, rep = il.fgmres_solve(operator, pre, rhs, config=cfg)
        assert rep.converged and rep.confirmations[-1][2] == rep.final_res
        assert all(true < cfg.rel_tolerance for _, estimate, true in rep.confirmations
                   if estimate < cfg.rel_tolerance)
        reports.append(rep)
    assert pre.paired
    paired, wrapped = ([it for it, _, _ in rep.confirmations] for rep in reports)
    assert paired == wrapped


def test_baseline_preconditioners_run_and_report(tmp_path):
    # The harness must be able to run the baseline splittings and record
    # a non-convergence row faithfully when they stall.
    spec = ExperimentSpec(
        problem="random", p=10, q=8, n=6, seed=5,
        preconditioners=("bs2", "but"), inner="cg",
        inner_tol=1e-3, inner_maxit=50,
        outer_tol=1e-13, outer_maxit=3, runs=1,
    )
    rows = run_experiment(spec)
    assert len(rows) == 2
    for row in rows:
        assert row.converged in (True, False)
    report_write(rows, "csv", tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text()
    assert "bs2" in text and "but" in text
