"""Command line front end.

Subcommands:

* `aap run` solves one problem instance and optionally writes a one-row
  result table and a step trace.
* `aap sweep` executes a plan file (a cross product of configurations),
  one timed solve at a time, and writes or prints the result table.
* `aap verify-trace` rechecks the stability bound recorded in a trace.

Exit codes: 0 on success, 1 when a single run fails to converge, 2 for
invalid input of any kind, 3 when trace verification finds a violation of
the bound or an accepted sketch that fails the stability hypothesis.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter

from .bench import (
    ParseError,
    RunRecord,
    build_meta,
    canonical_adaptivity,
    format_table,
    load_trace,
    parse_plan,
    run_experiment,
    verify_theorem_trace,
    write_table,
    write_trace,
)
from .fixed_point import NumericalBreakdown, field_indices
from .problems import PROBLEM_NAMES, ResourceLimit, build_problem
from .solver import SolverConfig, solve

ADAPT_CHOICES = ("none", "sub-pow", "sub-const", "rand-pow", "rand-const")


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
                     help="write a one-row result table here")

    sweep = sub.add_parser("sweep", help="run a plan file")
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
            field_indices(problem, args.mask)
        config = SolverConfig(
            window=args.window,
            alternation=args.alternation,
            relaxation=args.omega,
            rel_tolerance=args.tol,
            max_iterations=args.max_iterations,
            static_mask=None if args.mask == "none" else args.mask,
            adaptivity=canonical_adaptivity(args.adapt),
            sketch_percent=args.sketch,
            rng_seed=args.seed,
        )
    except (KeyError, ValueError, ResourceLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    want_trace = args.trace is not None
    try:
        report = solve(problem, config, capture_trace=want_trace)
    except NumericalBreakdown as exc:
        print(f"breakdown: {exc}", file=sys.stderr)
        return 1

    fallbacks = sum(1 for rec in report.mask_trace if rec.fallback)
    accepted = sum(1 for rec in report.mask_trace if rec.accepted)
    print(f"problem      {report.problem} (n={report.n}, l1={report.l1})")
    print(f"window       m={report.window}  p={report.alternation}  "
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
          f"{report.factor_refreshes} refactored, "
          f"{report.window_restarts} window restarts")
    print(f"wall time    {report.wall_time_seconds:.3f} s")

    if args.out is not None:
        record = RunRecord(
            problem=args.problem,
            size=args.size,
            mask=args.mask,
            adaptivity=canonical_adaptivity(args.adapt),
            sketch=args.sketch,
            window=report.window,
            alternation=args.alternation,
            tol=args.tol,
            seed=args.seed,
            iterations=report.iterations,
            converged=report.converged,
            wall_time_seconds=report.wall_time_seconds,
        )
        write_table([record], args.out, meta=build_meta({"seed": args.seed}))
    if want_trace:
        write_trace(report, args.trace)
    return 0 if report.converged else 1


def _cmd_sweep(args) -> int:
    try:
        with open(args.plan) as fh:
            plan = parse_plan(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {args.plan}: {exc}", file=sys.stderr)
        return 2

    records = run_experiment(plan)
    meta = build_meta({"plan": args.plan, "seed": plan.seed,
                       "repetitions": plan.repetitions})
    if plan.out is not None:
        write_table(records, plan.out, meta=meta)
        converged = sum(1 for r in records if r.converged)
        print(f"{len(records)} rows ({converged} converged) -> {plan.out}")
    else:
        sys.stdout.write(format_table(records))
    return 0


def _cmd_verify(args) -> int:
    try:
        doc = load_trace(args.path)
        result = verify_theorem_trace(doc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2

    print(f"steps        {len(result.steps)}")
    print(f"checked      {len(result.checked)} of {len(result.accepted)} "
          "accepted")
    for step in result.accepted:
        if not step.hypotheses_satisfied:
            print(f"unchecked    iteration {step.iteration}: accepted sketch "
                  "fails the stability hypothesis")
    for step in result.violations:
        print(f"violation    iteration {step.iteration}: "
              f"delta {step.delta:.6e} > bound {step.bound:.6e}")
    if not result.passed:
        print("verdict      FAIL")
        return 3
    print("verdict      ok")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify-trace": _cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
