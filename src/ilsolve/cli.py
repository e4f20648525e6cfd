"""Command-line interface.

Subcommands:
  solve     solve one problem with one preconditioner, print the report
  bench     run an experiment spec file, write CSV and JSON tables
  analyze   desk-scale convergence/spectral diagnostics as JSON
  generate  emit a generated problem as Matrix Market files

Exit codes: 0 success, 1 validation or usage error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .analysis import (
    _ibs_kind,
    check_convergence_conditions,
    gmres_bound_check,
    verify_eigenstructure,
)
from .bench import (
    _SPEC_KEYS,
    ExperimentSpec,
    build_problem,
    load_experiment_spec,
    report_write,
    run_cell,
    run_experiment,
)
from .exceptions import SOLVER_FAILURES, IlsolveError
from .mmio import write_matrix_market
from .preconditioners import VARIANTS, _assembly_size

# The spec file keys that are also flags, one --FIELD flag each (dashes
# for underscores), converted as in a spec file.  A flag that is not given
# leaves the spec's own default in place.
_SOURCE_FLAGS = ("a2_scale", "normalize", "seed")
_SOLVER_FLAGS = ("inner", "inner.tol", "inner.maxit", "outer.tol", "outer.maxit", "outer.restart")


def _flag_type(convert):
    def parse(text):  # argparse prints the reason after the flag's name
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    return parse


def _add_spec_flags(group, keys):
    for key in keys:
        field, convert = _SPEC_KEYS[key]
        group.add_argument(f"--{field.replace('_', '-')}", type=_flag_type(convert),
                           default=argparse.SUPPRESS, help=f"spec file key {key}")


def _add_problem_args(parser):
    src = parser.add_argument_group("problem source")
    src.add_argument("--matrix", help="Matrix Market file used as A1 (augmented problem)")
    src.add_argument("--hilbert", type=int, metavar="N", help="Hilbert problem of order N")
    src.add_argument("--random", metavar="P,Q,N", help="random dense instance")
    src.add_argument("--q", type=int, help="rows of A2 for --matrix sources")
    _add_spec_flags(src, _SOURCE_FLAGS)


def _spec_from_args(args, **fixed) -> ExperimentSpec:
    chosen = [bool(args.matrix), args.hilbert is not None, args.random is not None]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --matrix, --hilbert, --random")
    if args.q is not None and not args.matrix:
        raise ValueError("--q applies only to --matrix")
    flags = {_SPEC_KEYS[key][0] for key in _SOURCE_FLAGS + _SOLVER_FLAGS}
    settings = {name: value for name, value in vars(args).items() if name in flags} | fixed
    if args.matrix:
        return ExperimentSpec(problem="matrix-market", matrix=args.matrix, q=args.q, **settings)
    if args.hilbert is not None:
        return ExperimentSpec(problem="hilbert", n=args.hilbert, **settings)
    try:
        p, q, n = (int(tok) for tok in args.random.split(","))
    except ValueError:
        raise ValueError("--random expects P,Q,N") from None
    return ExperimentSpec(problem="random", p=p, q=q, n=n, **settings)


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args, preconditioners=(args.preconditioner,), runs=1)
    row, report = run_cell(spec, build_problem(spec), args.preconditioner)
    payload = {
        "problem": row.problem,
        "preconditioner": row.preconditioner,
        "converged": report.converged,
        "IT": report.iterations,
        "CPU": report.wall_seconds,
        "RES": report.final_res,
        "inner_iterations": row.inner_iterations,
        "inner_failures": row.inner_failures,
        "notes": list(report.notes),
        "resumptions": report.resumptions,
        "confirmations": [list(entry) for entry in report.confirmations],
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
        spec = dataclasses.replace(spec, out=args.out)

    def echo(row):
        status = "ok" if row.converged else "FAILED"
        it = "-" if row.it is None else row.it
        cpu = "-" if row.cpu is None else f"{row.cpu:.3f}s"
        print(f"[{row.problem}] {row.preconditioner}: {status} IT={it} CPU={cpu}")

    rows = run_experiment(spec, echo=echo)
    base = spec.out or "results"
    report_write(rows, "csv", f"{base}.csv")
    report_write(rows, "json", f"{base}.json")
    print(f"wrote {base}.csv and {base}.json")
    return 0


def _cmd_analyze(args) -> int:
    kinds = [_ibs_kind(k.strip(), "analyze") for k in args.preconditioners.split(",") if k.strip()]
    if not kinds:
        raise ValueError("--preconditioners must name at least one variant")
    prob = build_problem(_spec_from_args(args))
    _assembly_size(prob)  # every variant's report assembles M^{-1} A: refuse before any work
    conditions = check_convergence_conditions(prob)
    out = {
        "problem": prob.label(),
        "alpha": prob.alpha,
        # JSON has no Infinity: a condition number of a matrix that is
        # not positive definite is printed as null.
        "conditions": {key: value if math.isfinite(value) else None
                       for key, value in dataclasses.asdict(conditions).items()},
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
    prob = build_problem(_spec_from_args(args))
    prefix = args.out_prefix
    write_matrix_market(prob.a1, f"{prefix}_a1.mtx")
    write_matrix_market(prob.a2, f"{prefix}_a2.mtx")
    write_matrix_market(prob.b1, f"{prefix}_b1.mtx")
    write_matrix_market(prob.b2, f"{prefix}_b2.mtx")
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
    solver = p_solve.add_argument_group("solver settings (defaults: those of an experiment spec)")
    _add_spec_flags(solver, _SOLVER_FLAGS)
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: 2 after a usage error, 0 after --help
        return 1 if exc.code else 0
    except SOLVER_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, IlsolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
