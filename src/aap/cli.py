"""Command line front end.

Subcommands:

* `aap run` solves one problem instance and optionally writes a one-row
  JSON result and a step trace.
* `aap sweep` executes a JSON plan (a cross product of configurations),
  one cell at a time, and writes or prints a result of one row per cell.
* `aap verify-trace` rechecks the stability bound recorded in a trace.

`aap run` and every sweep cell solve through `bench.run_solve`, so a row's
wall times mean the same in both: those of untraced solves, any trace
coming from a solve of its own.

Exit codes: 0 on success, 1 when a single run fails to converge, 2 for
invalid input of any kind, a path that cannot be read or written included,
3 when trace verification finds a violation of the bound or an accepted
sketch that fails the stability hypothesis.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter

from .bench import (
    ParseError,
    build_meta,
    load_plan,
    load_trace,
    prepare_output,
    run_experiment,
    run_record,
    run_solve,
    verify_theorem_trace,
    write_result,
)
from .fixed_point import NumericalBreakdown, UnknownField, field_rows
from .problems import PROBLEM_NAMES, ResourceLimit, build_problem
from .sketching import SHORT_NAMES, Adaptivity
from .solver import SolverConfig

ADAPT_CHOICES = (*(a.value for a in Adaptivity), *SHORT_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aap",
        description="Anderson-Picard fixed-point solver with masked mixing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one problem instance")
    run.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    run.add_argument("--size", required=True, type=int,
                     help="system dimension (linear) or grid points per side")
    run.add_argument("--mask", default="none",
                     help="static field mask name, or 'none'")
    run.add_argument("--adapt", default="none", choices=ADAPT_CHOICES)
    run.add_argument("--sketch", type=float, default=30.0,
                     help="percent of restricted rows the sketch keeps")
    run.add_argument("-m", "--window", type=int, default=None,
                     help="mixing window size (default: per-problem)")
    run.add_argument("-p", "--alternation", type=int, default=1,
                     help="mix every p-th iteration")
    run.add_argument("--tol", type=float, default=1e-6)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-iterations", type=int, default=1000)
    run.add_argument("--omega", type=float, default=None,
                     help="relaxation (default: per-problem)")
    run.add_argument("--init", default="zero", choices=("zero", "poisson"),
                     help="initial guess (poisson applies to plaplace only)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write the step trace here, as an npz archive "
                          "(the name is kept as given)")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="write a one-row JSON result here")

    sweep = sub.add_parser("sweep", help="run a JSON plan file")
    sweep.add_argument("--plan", required=True, metavar="FILE")

    verify = sub.add_parser("verify-trace",
                            help="recheck the stability bound in a trace")
    verify.add_argument("path", metavar="TRACE")
    return parser


def _cmd_run(args) -> int:
    try:
        problem = build_problem(args.problem, args.size, seed=args.seed,
                                init=args.init)
        if args.mask != "none":
            field_rows(problem, args.mask)
        config = SolverConfig(
            window=args.window,
            alternation=args.alternation,
            relaxation=args.omega,
            rel_tolerance=args.tol,
            max_iterations=args.max_iterations,
            static_mask=None if args.mask == "none" else args.mask,
            adaptivity=args.adapt,
            sketch_percent=args.sketch,
            rng_seed=args.seed,
        )
    except (KeyError, ValueError, ResourceLimit) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    prepare_output(args.out)
    prepare_output(args.trace)
    try:
        report, wall_times = run_solve(problem, config, args.trace)
    except NumericalBreakdown as exc:
        # The partial report of a breakdown still makes a summary and a
        # (failed) row; a breakdown at the initial guess has no report.
        print(f"breakdown: {exc}", file=sys.stderr)
        report, wall_times = exc.report, []
    if report is not None:
        _print_summary(report)

    if args.out is not None:
        record = run_record(args.problem, args.size, config, report, wall_times)
        write_result([record], build_meta({"seed": args.seed}), args.out)
    return 0 if report is not None and report.converged else 1


def _print_summary(report) -> None:
    fallbacks = sum(1 for rec in report.mask_trace if rec.fallback)
    accepted = sum(1 for rec in report.mask_trace if rec.accepted)
    print(f"problem      {report.problem} (n={report.n}, l1={report.l1})")
    print(f"window       m={report.window}  p={report.config.alternation}  "
          f"omega={report.omega:g}")
    print(f"iterations   {report.iterations}")
    print(f"converged    {'yes' if report.converged else 'no'}")
    print(f"residual     {report.residual_history[-1]:.3e}")
    print(f"mixing       {len(report.mask_trace)} steps, "
          f"{accepted} sketched, {fallbacks} fallbacks")
    reasons = Counter(rec.reason for rec in report.mask_trace).most_common()
    print("guard        " + (", ".join(f"{r} {n}" for r, n in reasons)
                             or "no mixing steps"))
    print(f"factor       {report.factor_updates} updated, "
          f"{report.factor_refreshes} refactored")
    print(f"wall time    {report.wall_time_seconds:.3f} s")


def _cmd_sweep(args) -> int:
    try:
        with open(args.plan, "rb") as fh:
            plan = load_plan(fh.read())
        records = run_experiment(plan)
    except (ParseError, UnknownField) as exc:
        print(f"error: {args.plan}: {exc.args[0]}", file=sys.stderr)
        return 2
    meta = build_meta({"plan": args.plan, "seed": plan.seed,
                       "repetitions": plan.repetitions})
    write_result(records, meta, plan.out)
    if plan.out is not None:
        converged = sum(1 for r in records if r.converged)
        print(f"{len(records)} rows ({converged} converged) -> {plan.out}")
    return 0


def _cmd_verify(args) -> int:
    try:
        doc = load_trace(args.path)
        result = verify_theorem_trace(doc)
    except ParseError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2

    print(f"ended        {_ending(doc)}")
    print(f"steps        {len(result.steps)}")
    print(f"checked      {len(result.checked)} of {len(result.accepted)} "
          "accepted")
    for step in result.accepted:
        if not step.hypotheses_satisfied:
            print(f"unchecked    iteration {step.record.iteration}: "
                  "accepted sketch fails the stability hypothesis")
    for step in result.violations:
        print(f"violation    iteration {step.record.iteration}: "
              f"delta {step.delta:.6e} > bound {step.bound:.6e}")
    if not result.passed:
        print("verdict      FAIL")
        return 3
    print("verdict      ok")
    return 0


def _ending(doc: dict) -> str:
    """How a traced solve ended, from its header and residual history: a
    breakdown at iteration k leaves k entries, any other end k + 1."""
    k = doc["iterations"]
    if len(doc["residual_history"]) == k:
        return f"broke down at iteration {k}"
    if doc["converged"]:
        return f"converged at iteration {k}"
    return f"stopped unconverged after {k} iterations"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify-trace": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except OSError as exc:
        # Unreadable input, or an output path no writer could create.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
