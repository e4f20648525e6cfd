"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they happen (they also appear in captured output on failure).

Criteria 1, 2 and 4 replay published iteration counts on the TOLS340 and
SHERMAN4 matrices, which must be present on local disk (this package does
not download anything).  Point ILSOLVE_MATRIX_DIR at a directory holding
``tols340.mtx`` / ``sherman4.mtx`` (any capitalization); the default
location is ``data/matrices`` next to the package root.  The tests skip
with an explanatory message when the files are absent.

The paper's hypothesis is that the reduced normal matrix A1'A1 - A2'A2 is
positive definite.  Criteria 1, 2 and 4 lie outside it, by algebra: with
A2 = 6*I and |A1|_1 = 1, e1'(A1'A1 - A2'A2)e1 = |A1 e1|^2 - 36 <= 1 - 36.
Criterion 3 lies outside it too: on the Hilbert problems of n = 400 and
800 with A2 = 0.7*I, ``is_spd`` rejects A1'A1 - A2'A2 (it has 398 and 798
negative eigenvalues).  Criteria 5-8 lie inside it, by construction of
their desk instances.
"""

import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import ilsolve as il
from ilsolve import (
    CgConfig,
    FgmresConfig,
    apply_block_A,
    build_rhs,
    cg_solve,
    cholesky_solve,
    dense_cholesky,
    fgmres_solve,
    generate_hilbert_problem,
    gmres_bound_check,
    make_preconditioner,
    reference_solution,
    spectral_radius_estimate,
    stationary_solve,
    verify_eigenstructure,
)
from ilsolve.analysis import generalized_sym_eigpairs
from ilsolve.operators import aslinearoperator
from ilsolve.problem import block_system_operator, dense_blocks

from conftest import dense_block_system, random_desk_problem, random_spd

MATRIX_DIR = Path(
    os.environ.get("ILSOLVE_MATRIX_DIR", Path(__file__).resolve().parent.parent / "data" / "matrices")
)

IBS_KINDS = ("ibs1", "ibs2", "ibs3", "ibs4")

# Reference iteration counts for the two published benchmark rows, with
# the agreed +-30% acceptance band.
TOLS340_REFERENCE = {"ibs1": 40, "ibs2": 31, "ibs3": 40, "ibs4": 31}
SHERMAN4_REFERENCE = {"ibs1": 24, "ibs2": 19, "ibs3": 24, "ibs4": 19}
HILBERT_REFERENCE_IT = 10


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {tag}" + (f" ({detail})" if detail else ""))


def _find_matrix(stem):
    if not MATRIX_DIR.is_dir():
        return None
    for path in MATRIX_DIR.iterdir():
        if path.name.lower() == f"{stem}.mtx":
            return path
    return None


def _skip_missing(stem):
    return pytest.mark.skipif(
        _find_matrix(stem) is None,
        reason=(
            f"{stem}.mtx not found in {MATRIX_DIR} (set ILSOLVE_MATRIX_DIR; "
            "see README for fetch instructions)"
        ),
    )


def _true_relative_residual(prob, x):
    rhs = build_rhs(prob)
    return float(np.linalg.norm(apply_block_A(prob, x) - rhs) / np.linalg.norm(rhs))


def _run_benchmark_row(prob, kinds):
    """Solve with the published settings; returns {kind: (it, res, err, x)}."""
    rhs = build_rhs(prob)
    op = block_system_operator(prob)
    x_star, _ = reference_solution(prob)
    x_star_norm = np.linalg.norm(x_star)
    out = {}
    for kind in kinds:
        pre = make_preconditioner(kind, prob, inner="cg", inner_config=CgConfig(1e-3, 1000))
        x, rep = fgmres_solve(op, pre, rhs, config=FgmresConfig(1e-8, 2000))
        assert rep.converged, f"{kind} failed to converge: RES={rep.final_res:.3e}"
        err = float(np.linalg.norm(prob.split(x)[1] - x_star) / x_star_norm)
        out[kind] = (rep.iterations, _true_relative_residual(prob, x), err, x)
    return out


_row_cache = {}


def _benchmark_row_cached(stem, q):
    if stem not in _row_cache:
        core = il.normalize_to_unit_one_norm(il.read_matrix_market(_find_matrix(stem)))
        prob = il.generate_augmented_problem(core, q=q, scale=6.0)
        assert abs(prob.alpha - 1.0) <= 1e-12
        _row_cache[stem] = _run_benchmark_row(prob, IBS_KINDS)
    return _row_cache[stem]


@_skip_missing("tols340")
def test_criterion_1_tols340_iteration_counts():
    t0 = time.monotonic()
    core = il.read_matrix_market(_find_matrix("tols340"))
    assert core.shape == (340, 340) and core.nnz == 2196
    results = _benchmark_row_cached("tols340", q=10000)
    ok = True
    details = []
    for kind, ref in TOLS340_REFERENCE.items():
        it, res, err, _ = results[kind]
        band = abs(it - ref) <= 0.3 * ref
        ok &= band and res < 1e-8 and err < 1e-6
        details.append(f"{kind}: IT={it} (ref {ref}) RES={res:.1e} ERR={err:.1e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(1, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok, details


@_skip_missing("sherman4")
def test_criterion_2_sherman4_iteration_counts():
    t0 = time.monotonic()
    results = _benchmark_row_cached("sherman4", q=15000)
    ok = True
    details = []
    for kind, ref in SHERMAN4_REFERENCE.items():
        it, res, err, _ = results[kind]
        band = abs(it - ref) <= 0.3 * ref
        ok &= band and res < 1e-8 and err < 1e-6
        details.append(f"{kind}: IT={it} (ref {ref}) RES={res:.1e} ERR={err:.1e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(2, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok, details


def test_criterion_3_hilbert_iteration_counts():
    t0 = time.monotonic()
    ok = True
    details = []
    for n in (400, 800):
        prob = generate_hilbert_problem(n, a2_scale=0.7)
        rhs = build_rhs(prob)
        op = block_system_operator(prob)
        for kind in ("ibs2", "ibs4"):
            pre = make_preconditioner(kind, prob, inner="cg", inner_config=CgConfig(1e-3, 1000))
            x, rep = fgmres_solve(op, pre, rhs, config=FgmresConfig(1e-8, 2000))
            res = _true_relative_residual(prob, x)
            band = abs(rep.iterations - HILBERT_REFERENCE_IT) <= 0.3 * HILBERT_REFERENCE_IT
            ok &= rep.converged and band and res < 1e-8
            details.append(f"{2*n}x{n} {kind}: IT={rep.iterations} RES={res:.1e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _report(3, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok, details


@_skip_missing("tols340")
@_skip_missing("sherman4")
def test_criterion_4_relative_ordering():
    tols = _benchmark_row_cached("tols340", q=10000)
    sherman = _benchmark_row_cached("sherman4", q=15000)
    ok = True
    for results in (tols, sherman):
        best_pair = max(results["ibs2"][0], results["ibs4"][0])
        worst_pair = min(results["ibs1"][0], results["ibs3"][0])
        ok &= best_pair <= worst_pair
    _report(4, ok)
    assert ok


def _corollary_instances():
    for i in range(100):
        yield i, random_desk_problem(i)


def test_criterion_5_corollary_convergence_sweep():
    t0 = time.monotonic()
    ok = True
    worst_rho = 0.0
    for i, prob in _corollary_instances():
        assert prob.alpha > 0.0
        for kind in IBS_KINDS:
            rho = spectral_radius_estimate(kind, prob)
            worst_rho = max(worst_rho, rho)
            if rho >= 1.0:
                ok = False
                continue
            cap = 20 * math.ceil(1.0 / (1.0 - rho))
            _, rep = stationary_solve(kind, prob, tol=1e-8, maxit=cap)
            ok &= rep.converged
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _report(5, ok, f"100 instances x 4 kinds, max rho {worst_rho:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_6_interval_containment():
    ok = True
    lo, hi = np.inf, -np.inf
    for i, prob in _corollary_instances():
        a1d, a2d = dense_blocks(prob)
        gram = a1d.T @ a1d
        shifted = gram + prob.alpha * np.eye(prob.n)
        normal = gram - a2d.T @ a2d
        w = generalized_sym_eigpairs(normal, shifted)[0]
        lo, hi = min(lo, w.min()), max(hi, w.max())
        ok &= bool(np.all(w > 1e-10) and np.all(w < 2.0 - 1e-10))
    _report(6, ok, f"eigenvalue range [{lo:.3e}, {hi:.3e}]")
    assert ok


def test_criterion_7_eigenstructure_residuals():
    ok = True
    worst = 0.0
    vacuous_seen = 0
    for i in range(25):
        prob = random_desk_problem(i)
        for kind in IBS_KINDS:
            report = verify_eigenstructure(kind, prob)
            for family in report.families():
                if family.vacuous:
                    vacuous_seen += 1
                    continue
                worst = max(worst, family.max_residual)
                ok &= family.passed(1e-10)
    _report(7, ok, f"worst residual {worst:.2e}, {vacuous_seen} vacuous families reported")
    assert ok


def test_criterion_8_gmres_termination_bound():
    t0 = time.monotonic()
    ok = True
    for i in range(25):
        prob = random_desk_problem(i)
        for kind in IBS_KINDS:
            result = gmres_bound_check(kind, prob)
            ok &= result.passed
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _report(8, ok, f"25 instances x 4 kinds, {elapsed:.1f}s")
    assert ok


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(424242)
    ok = True
    # CG against the dense factorization on SPD systems up to 50x50.
    for i in range(50):
        n = int(rng.integers(2, 51))
        m = random_spd(rng, n, cond=float(rng.uniform(2.0, 1e4)))
        rhs = rng.standard_normal(n)
        direct = cholesky_solve(dense_cholesky(m), rhs)
        iterative, rep = cg_solve(
            aslinearoperator(m), rhs, config=CgConfig(rel_tolerance=1e-12, max_iterations=20 * n)
        )
        ok &= rep.converged
        ok &= bool(np.linalg.norm(direct - iterative) / np.linalg.norm(direct) <= 1e-8)
    # Matrix-free block product against the dense assembly.
    for i in range(50):
        prob = random_desk_problem(200 + i)
        dense = dense_block_system(prob)
        v = rng.standard_normal(prob.size)
        got = apply_block_A(prob, v)
        want = dense @ v
        ok &= bool(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30) <= 1e-13)
    _report(9, ok)
    assert ok


def test_criterion_10_zero_shift_degeneration():
    rng = np.random.default_rng(777)
    pairs = {"ibs1": "bs1", "ibs2": "bs2", "ibs3": "bs3", "ibs4": "but"}
    ok = True
    for i in range(10):
        prob = dataclasses.replace(random_desk_problem(300 + i), alpha=0.0)
        r = rng.standard_normal(prob.size)
        for ibs_kind, baseline in pairs.items():
            z_ibs = make_preconditioner(ibs_kind, prob, inner="cholesky").apply(r)
            z_base = make_preconditioner(baseline, prob, inner="cholesky").apply(r)
            ok &= bool(
                np.linalg.norm(z_ibs - z_base) <= 1e-12 * max(np.linalg.norm(z_base), 1.0)
            )
    _report(10, ok)
    assert ok


def test_criterion_11_baseline_rows_reported_faithfully(tmp_path):
    # Published timings and the large-scale failure rows are hardware- and
    # tolerance-sensitive, so they are not targets; the harness only has
    # to run the baselines and render unconverged rows faithfully.
    spec = il.ExperimentSpec(
        problem="random", p=16, q=12, n=10, seed=9,
        preconditioners=("bs2", "but"), inner="cg",
        inner_tol=1e-3, inner_maxit=100,
        outer_tol=1e-14, outer_maxit=2, runs=1,
    )
    rows = il.run_experiment(spec)
    ok = len(rows) == 2
    for row in rows:
        ok &= not row.converged
        ok &= row.it is None and row.res is None and row.err is None
    il.report_write(rows, "csv", tmp_path / "rows.csv")
    lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
    ok &= len(lines) == 3 and lines[1].endswith("false") and lines[2].endswith("false")

    # And with sane settings the baselines do solve the same instance.
    relaxed = dataclasses.replace(
        spec, preconditioners=("bs2", "but"), outer_tol=1e-8, outer_maxit=2000
    )
    for row in il.run_experiment(relaxed):
        ok &= row.converged
    _report(11, ok)
    assert ok
