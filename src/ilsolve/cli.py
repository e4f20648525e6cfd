"""Command-line interface.

Subcommands:
  solve     solve one problem with one preconditioner, print the report
  bench     run an experiment spec file, write CSV and JSON tables
  analyze   desk-scale convergence/spectral diagnostics as JSON
  generate  emit a generated problem as Matrix Market files

Exit codes: 0 success, 1 validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis import (
    check_convergence_conditions,
    gmres_bound_check,
    verify_eigenstructure,
)
from .bench import (
    ExperimentSpec,
    build_problem,
    load_experiment_spec,
    report_write,
    run_experiment,
)
from .exceptions import (
    IlsolveError,
    IndefiniteOperatorError,
    NumericalFailureError,
    OracleFailureError,
    StationaryDivergenceError,
)
from .krylov import CgConfig, FgmresConfig, fgmres_solve
from .mmio import write_matrix_market, write_vector_matrix_market
from .preconditioners import IBS_VARIANTS, VARIANTS, make_preconditioner
from .problem import block_system_operator, build_rhs
from .sparse import SparseMatrixCsr


def _add_problem_args(parser):
    src = parser.add_argument_group("problem source")
    src.add_argument("--matrix", help="Matrix Market file used as A1 (augmented problem)")
    src.add_argument("--hilbert", type=int, metavar="N", help="Hilbert problem of order N")
    src.add_argument("--random", metavar="P,Q,N", help="random dense instance")
    src.add_argument("--q", type=int, help="rows of A2 for --matrix sources")
    src.add_argument(
        "--a2-scale", type=float, default=None,
        help="diagonal scale of A2 (default 6 for --matrix, 0.7 for --hilbert)",
    )
    src.add_argument("--seed", type=int, default=0)
    src.add_argument("--no-normalize", action="store_true",
                     help="skip scaling the input matrix to unit 1-norm")
    src.add_argument("--hilbert-cap", type=int, default=2000)


def _spec_from_args(args) -> ExperimentSpec:
    chosen = [bool(args.matrix), args.hilbert is not None, args.random is not None]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --matrix, --hilbert, --random")
    if args.matrix:
        if args.q is None:
            raise ValueError("--matrix needs --q")
        scale = 6.0 if args.a2_scale is None else args.a2_scale
        return ExperimentSpec(
            problem="matrix-market", matrix=args.matrix, q=args.q,
            a2_scale=scale, normalize=not args.no_normalize,
        )
    if args.hilbert is not None:
        scale = 0.7 if args.a2_scale is None else args.a2_scale
        return ExperimentSpec(problem="hilbert", n=args.hilbert, a2_scale=scale,
                              hilbert_cap=args.hilbert_cap)
    try:
        p, q, n = (int(tok) for tok in args.random.split(","))
    except ValueError:
        raise ValueError("--random expects P,Q,N") from None
    return ExperimentSpec(problem="random", p=p, q=q, n=n, seed=args.seed)


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args)
    spec.preconditioners = (args.preconditioner,)
    spec.inner = args.inner
    spec.inner_tol = args.inner_tol
    spec.inner_maxit = args.inner_maxit
    spec.outer_tol = args.outer_tol
    spec.outer_maxit = args.outer_maxit
    spec.restart = args.restart
    prob = build_problem(spec)
    pre = make_preconditioner(
        args.preconditioner, prob, inner=args.inner,
        inner_config=CgConfig(args.inner_tol, args.inner_maxit),
    )
    cfg = FgmresConfig(args.outer_tol, args.outer_maxit, args.restart)
    x, report = fgmres_solve(block_system_operator(prob), pre, build_rhs(prob).data, config=cfg)
    payload = {
        "problem": prob.label(),
        "preconditioner": args.preconditioner,
        "converged": report.converged,
        "IT": report.iterations,
        "CPU": report.wall_seconds,
        "RES": report.final_res,
        "inner_iterations": pre.inner_iterations,
        "inner_failures": pre.inner_failures,
        "notes": list(report.notes),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    if args.history:
        np.savetxt(args.history, report.res_history)
    return 0 if report.converged else 2


def _cmd_bench(args) -> int:
    spec = load_experiment_spec(args.specfile)
    if args.out:
        spec.out = args.out

    def echo(row):
        status = "ok" if row.converged else "FAILED"
        it = "-" if row.it is None else f"{row.it:.0f}"
        print(f"[{row.problem}] {row.preconditioner}: {status} IT={it} CPU={row.cpu:.3f}s")

    rows = run_experiment(spec, echo=echo)
    base = spec.out or "results"
    report_write(rows, "csv", f"{base}.csv")
    report_write(rows, "json", f"{base}.json")
    print(f"wrote {base}.csv and {base}.json")
    return 0


def _cmd_analyze(args) -> int:
    spec = _spec_from_args(args)
    prob = build_problem(spec)
    kinds = [k.strip().lower() for k in args.preconditioners.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in IBS_VARIANTS]
    if unknown:
        raise ValueError(f"analyze handles {IBS_VARIANTS}, got {unknown}")
    conditions = check_convergence_conditions(prob)
    out = {
        "problem": prob.label(),
        "alpha": prob.alpha,
        "conditions": {
            "spd_normal": conditions.spd_normal,
            "spd_shifted_minus_a2gram": conditions.spd_shifted_minus_a2gram,
            "spd_two_shifted_minus": conditions.spd_two_shifted_minus,
            "spd_two_shifted_plus": conditions.spd_two_shifted_plus,
            "spsd_shift": conditions.spsd_shift,
            "kappa_gram": conditions.kappa_gram,
            "kappa_shifted_gram": conditions.kappa_shifted_gram,
            "ibs13_converges": conditions.ibs13_converges,
            "ibs24_converges": conditions.ibs24_converges,
        },
        "variants": {},
    }
    for kind in kinds:
        report = verify_eigenstructure(kind, prob)
        bound = gmres_bound_check(kind, prob)
        out["variants"][kind] = {
            "rho_estimate": report.rho_estimate,
            "interval_eigs": report.interval_eigs.tolist(),
            "interval_contained": report.interval_contained,
            "disk_contained": report.disk_contained,
            "families": [
                {
                    "label": f.label,
                    "count": f.count,
                    "vacuous": f.vacuous,
                    "max_residual": None if f.vacuous or not f.count else f.max_residual,
                    "passed": f.passed(),
                }
                for f in report.families()
            ],
            "gmres_iterations": bound.iterations,
            "gmres_bound": bound.bound,
            "gmres_bound_ok": bound.passed,
        }
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    prob = build_problem(spec)
    prefix = args.out_prefix

    def as_csr(block) -> SparseMatrixCsr:
        if isinstance(block, SparseMatrixCsr):
            return block
        dense = np.asarray(block)
        rows, cols = np.nonzero(dense)
        return SparseMatrixCsr.from_triplets(
            dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols]
        )

    write_matrix_market(as_csr(prob.a1), f"{prefix}_a1.mtx")
    write_matrix_market(as_csr(prob.a2), f"{prefix}_a2.mtx")
    write_vector_matrix_market(prob.b1, f"{prefix}_b1.mtx")
    write_vector_matrix_market(prob.b2, f"{prefix}_b2.mtx")
    print(f"wrote {prefix}_a1.mtx, {prefix}_a2.mtx, {prefix}_b1.mtx, {prefix}_b2.mtx")
    print(f"p={prob.p} q={prob.q} n={prob.n} alpha={prob.alpha!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilsolve",
        description="Indefinite least squares via block-splitting preconditioned flexible GMRES",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem with one preconditioner")
    _add_problem_args(p_solve)
    p_solve.add_argument("--preconditioner", default="ibs2", choices=VARIANTS)
    p_solve.add_argument("--inner", default="cg", choices=["cg", "cholesky"])
    p_solve.add_argument("--inner-tol", type=float, default=1e-3)
    p_solve.add_argument("--inner-maxit", type=int, default=1000)
    p_solve.add_argument("--outer-tol", type=float, default=1e-8)
    p_solve.add_argument("--outer-maxit", type=int, default=2000)
    p_solve.add_argument("--restart", type=int, default=None)
    p_solve.add_argument("--json", action="store_true", help="print the report as JSON")
    p_solve.add_argument("--history", help="write the residual history to this file")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run an experiment spec file")
    p_bench.add_argument("specfile")
    p_bench.add_argument("--out", help="output basename (overrides the spec's 'out')")
    p_bench.set_defaults(func=_cmd_bench)

    p_analyze = sub.add_parser("analyze", help="desk-scale spectral diagnostics")
    _add_problem_args(p_analyze)
    p_analyze.add_argument("--preconditioners", default="ibs1,ibs2,ibs3,ibs4")
    p_analyze.add_argument("--out", help="write JSON here instead of stdout")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_gen = sub.add_parser("generate", help="emit a generated problem as Matrix Market files")
    _add_problem_args(p_gen)
    p_gen.add_argument("--out-prefix", default="problem")
    p_gen.set_defaults(func=_cmd_generate)

    return parser


_SOLVER_FAILURES = (
    NumericalFailureError,
    IndefiniteOperatorError,
    OracleFailureError,
    StationaryDivergenceError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _SOLVER_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, IlsolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
