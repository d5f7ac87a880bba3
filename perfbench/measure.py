"""Measure one workload; runs in a child process of its own.

`run.py` starts ``python -m perfbench.measure`` with the thread variables in
`workloads.THREAD_VARS` set to 1, so numpy loads with one BLAS thread. The
child prints its result, one JSON object, as the last line of its output.

A run sets the problems up several times, makes one untimed warm pass, and
then repeats timed passes, one solve at a time, until its time is used. With
``--trace 1`` it times untraced passes for half the time and traced passes
for the other half, and reports the per-layer split of the traced ones.
Every solve is checked; see `check_solve` and `check_trace`.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.sparse.linalg import spsolve

import aap.bench
import aap.problems
import aap.solver
from aap.fixed_point import evaluate_residual

from .spans import Tracer, qr_work, span_totals
from .workloads import REL_TOLERANCE, THREAD_VARS, WORKLOADS, Case

MIN_PASSES = 3
MIN_TRACE_PASSES = 2
SETUP_BURST_S = 0.1
SETUP_EVERY_S = 1.0

# A saddle solve must agree with a direct sparse solve of the assembled
# system to this relative 2-norm error. The solver stops on the relative
# preconditioned residual (1e-6); the pressure error can be a few hundred
# times that, 1.9e-4 on saddle-65 with pressure + sub-pow.
DIRECT_RTOL = 1e-3

GUARD_REASONS = (
    "accepted", "rejected", "no-factor", "no-lipschitz", "lhs-negative",
    "underdetermined", "disabled", "stalled",
)


@dataclass
class CaseRun:
    case: Case
    report: object = None
    solve_s: float = 0.0
    write_s: float = 0.0
    verify_s: float = 0.0
    trace_bytes: int = 0
    verification: object = None
    failures: list = field(default_factory=list)


@dataclass
class Pass:
    runs: list
    span_start: int = 0
    span_stop: int = 0

    @property
    def solve_s(self):
        return sum(r.solve_s for r in self.runs)

    @property
    def total_s(self):
        return sum(r.solve_s + r.write_s + r.verify_s for r in self.runs)


def initial_residual_norm(problem) -> float:
    x0 = problem.initial_state
    if x0 is None:
        x0 = np.zeros(problem.dimension)
    return float(np.linalg.norm(evaluate_residual(problem, x0)))


def direct_solution(problem):
    """Direct sparse solve of the assembled system a saddle problem keeps in
    its data; None for problems without one."""
    if "system" not in problem.data:
        return None
    return spsolve(problem.data["system"].tocsc(), problem.data["rhs"])


def check_solve(problem, report, direct=None) -> list[str]:
    """Output checks on one solve; returns the failures found.

    The solve must report convergence, an independent residual evaluation
    at its final state must lie below the tolerance relative to |T(x0)|,
    and, when a direct solution is given, the final state must match it.
    """
    failures = []
    if not report.converged:
        failures.append("did not converge")
    rel = float(np.linalg.norm(evaluate_residual(problem, report.final_state)))
    rel /= initial_residual_norm(problem)
    if not rel < REL_TOLERANCE:
        failures.append(f"independent residual {rel:.3e} >= {REL_TOLERANCE:g}")
    if direct is not None:
        err = float(np.linalg.norm(report.final_state - direct) / np.linalg.norm(direct))
        if not err <= DIRECT_RTOL:
            failures.append(f"direct-solve error {err:.3e} > {DIRECT_RTOL:g}")
    return failures


def check_trace(report, doc, verification) -> list[str]:
    """The written trace must verify and give back the solve it recorded."""
    failures = []
    if not verification.passed:
        failures.append("verify_theorem_trace did not pass")
    if doc["iterations"] != report.iterations:
        failures.append(f"trace has {doc['iterations']} iterations, solve {report.iterations}")
    if len(doc["steps"]) != len(report.trace):
        failures.append(f"trace has {len(doc['steps'])} steps, solve {len(report.trace)}")
    return failures


def same_run(a, b) -> bool:
    """Iterations and residual history identical bit for bit."""
    return a.iterations == b.iterations and (
        np.asarray(a.residual_history).tobytes()
        == np.asarray(b.residual_history).tobytes()
    )


def run_case(case, problem, direct, seed, out_dir, tracer=None) -> CaseRun:
    """Solve one case, and write, load and verify its trace if it replays.

    Names are looked up on their modules at call time, so an installed
    tracer sees these calls.
    """
    run = CaseRun(case)
    config = aap.solver.SolverConfig(
        static_mask=case.mask,
        adaptivity=case.adaptivity,
        rel_tolerance=REL_TOLERANCE,
        rng_seed=seed,
    )
    if tracer is not None:
        tracer.next_solve()
    try:
        t0 = time.perf_counter()
        run.report = aap.solver.solve(problem, config, capture_trace=case.capture)
        run.solve_s = time.perf_counter() - t0
        if case.replay:
            path = os.path.join(out_dir, f"trace-{case.label}.json")
            t0 = time.perf_counter()
            aap.bench.write_trace(run.report, path)
            run.write_s = time.perf_counter() - t0
            run.trace_bytes = os.path.getsize(path)
            t0 = time.perf_counter()
            doc = aap.bench.load_trace(path)
            run.verification = aap.bench.verify_theorem_trace(doc)
            run.verify_s = time.perf_counter() - t0
            os.remove(path)
            run.failures += check_trace(run.report, doc, run.verification)
        # Drop the captured arrays, so that memory does not grow with the
        # number of passes a run makes.
        run.report.trace = None
    except Exception:  # a failed solve is counted, the run goes on
        run.failures.append(traceback.format_exc(limit=3))
        return run
    run.failures += check_solve(problem, run.report, direct)
    return run


def run_passes(setup, directs, seed, out_dir, budget_s, min_passes,
               tracer=None) -> list[Pass]:
    """Run at least ``min_passes`` passes, and more while the next one, at
    the median length of those so far, still ends within ``budget_s``."""
    passes, lengths = [], []
    t_end = time.perf_counter() + budget_s
    while len(passes) < min_passes or (
        time.perf_counter() + statistics.median(lengths) <= t_end
    ):
        t0 = time.perf_counter()
        setup.maybe_burst()
        start = len(tracer.spans) if tracer else 0
        runs = [
            run_case(c, p, d, seed, out_dir, tracer)
            for c, p, d in zip(setup.cases, setup.problems, directs)
        ]
        passes.append(Pass(runs, start, len(tracer.spans) if tracer else 0))
        lengths.append(time.perf_counter() - t0)
    return passes


def timing(values: list[float]) -> dict:
    """Median, extremes, sample count, and the highest of p75, p90 and p99
    that has at least ten samples beyond it."""
    out = {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": len(values),
    }
    for q in (99, 90, 75):
        if len(values) * (100 - q) >= 1000:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def time_metric(values, unit="s") -> dict:
    t = timing(values)
    return metric(t.pop("median"), unit, **t)


def environment(seed: int) -> dict:
    """Read-only description of where the run happened."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": None,
        "caches": [],
        "seed": seed,
        "notes": "trace_write_s measures writes into the page cache; "
                 "the page cache is not dropped between runs.",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            info = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key)) as fh:
                    info[key] = fh.read().strip()
            env["caches"].append(info)
    except OSError:
        pass
    return env


class Setup:
    """Builds each distinct problem of the cases in rounds spread over the run.

    The speed of a shared machine drifts in phases of seconds to tens of
    seconds, so rounds taken in one burst would report only the phase the
    run started in. A burst
    of rounds lasting at least SETUP_BURST_S runs before the first pass and
    then before any pass that starts SETUP_EVERY_S after the last burst.
    The passes solve the problems of the first round.
    """

    def __init__(self, cases, tracer=None):
        self.cases = cases
        self.tracer = tracer
        self.rounds: list[float] = []
        self.slices: list[tuple[int, int]] = []
        self.problems = None
        self._last = 0.0
        self.burst()

    def _round(self):
        start = len(self.tracer.spans) if self.tracer else 0
        built, total = {}, 0.0
        for case in self.cases:
            key = (case.problem, case.size)
            if key not in built:
                t0 = time.perf_counter()
                built[key] = aap.problems.build_problem(*key)
                total += time.perf_counter() - t0
        self.rounds.append(total)
        self.slices.append((start, len(self.tracer.spans) if self.tracer else 0))
        if self.problems is None:
            self.problems = [built[(c.problem, c.size)] for c in self.cases]

    def burst(self):
        with self.tracer or contextlib.nullcontext():
            t_end = time.perf_counter() + SETUP_BURST_S
            self._round()
            while time.perf_counter() < t_end:
                self._round()
        self._last = time.perf_counter()

    def maybe_burst(self):
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.burst()


def pass_counts(p: Pass, tracer: Tracer | None) -> dict:
    """Exact counts of one pass: calls, guard reasons, fallbacks, QR work."""
    reasons = dict.fromkeys(GUARD_REASONS, 0)
    fallbacks = accepted = 0
    checked = masked = 0
    for run in p.runs:
        for rec in run.report.mask_trace:
            reasons[rec.reason] = reasons.get(rec.reason, 0) + 1
            fallbacks += rec.fallback
            accepted += rec.accepted
        if run.verification is not None:
            checked += sum(s.hypotheses_satisfied for s in run.verification.steps)
            masked += sum(s.masked for s in run.verification.steps)
    counts = {
        "iterations": sum(r.report.iterations for r in p.runs),
        "reasons": reasons,
        "fallbacks": fallbacks,
        "accepted": accepted,
        "verify_checked": checked,
        "verify_masked": masked,
        "trace_bytes": sum(r.trace_bytes for r in p.runs),
    }
    if tracer is not None:
        totals = span_totals(tracer.spans, p.span_start, p.span_stop)
        counts["calls"] = {name: t["calls"] for name, t in totals.items()}
        counts["qr_flops"], counts["qr_bytes"] = qr_work(
            tracer.spans, p.span_start, p.span_stop
        )
    return counts


def end_to_end(passes, setup_rounds, counts) -> dict:
    traced = any(r.case.replay for r in passes[0].runs)
    metrics = {
        "solve_s": time_metric([p.solve_s for p in passes]),
        "pass_s": time_metric([p.total_s for p in passes]),
        "iterations": metric(counts["iterations"], "count"),
        "setup_s": time_metric(setup_rounds),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    if traced:
        metrics["trace_write_s"] = time_metric(
            [sum(r.write_s for r in p.runs) for p in passes])
        metrics["trace_verify_s"] = time_metric(
            [sum(r.verify_s for r in p.runs) for p in passes])
        metrics["trace_mb"] = metric(counts["trace_bytes"] / 1e6, "MB")
    return metrics


def per_layer(traced_passes, untraced_passes, setup_slices, tracer) -> tuple[dict, list]:
    """Per-layer metrics, each the median over traced passes, and the
    self-checks of the traced run."""
    spans = tracer.spans
    totals = [span_totals(spans, p.span_start, p.span_stop) for p in traced_passes]

    def med(name, key):
        return statistics.median(t[name][key] for t in totals)

    counts = pass_counts(traced_passes[0], tracer)
    calls = counts["calls"]
    traced_solve = statistics.median(p.solve_s for p in traced_passes)
    untraced_solve = statistics.median(p.solve_s for p in untraced_passes)
    solve_names = [n for n in totals[0] if not n.startswith(("bench.", "problems."))]
    coverage = statistics.median(
        sum(t[n]["self_s"] for n in solve_names) / p.solve_s
        for t, p in zip(totals, traced_passes)
    )
    adaptive_calls = calls["sketching.adaptive_step"]
    m = {
        "problems.build_problem.s": metric(statistics.median(
            span_totals(spans, a, b)["problems.build_problem"]["s"]
            for a, b in setup_slices), "s"),
        "fixed_point.evaluate_residual.calls": metric(
            calls["fixed_point.evaluate_residual"], "count"),
        "fixed_point.evaluate_residual.s": metric(med("fixed_point.evaluate_residual", "s"), "s"),
        "solver.solve.self_s": metric(med("solver.solve", "self_s"), "s"),
        "solver.update_increments.self_s": metric(med("solver.update_increments", "self_s"), "s"),
        "solver.push_window.s": metric(med("solver.push_window", "s"), "s"),
        "solver.anderson_update.s": metric(med("solver.anderson_update", "s"), "s"),
        "solver.picard_update.s": metric(med("solver.picard_update", "s"), "s"),
        "sketching.adaptive_step.calls": metric(adaptive_calls, "count"),
        "sketching.adaptive_step.self_s": metric(med("sketching.adaptive_step", "self_s"), "s"),
        "sketching.accept_ratio": metric(
            counts["accepted"] / adaptive_calls if adaptive_calls else 0.0, "ratio",
            accepted=counts["accepted"], base=adaptive_calls),
        **{f"sketching.reason.{r}": metric(n, "count") for r, n in counts["reasons"].items()},
        "lsq.qr_masked_solve.calls": metric(calls["lsq.qr_masked_solve"], "count"),
        "lsq.qr_masked_solve.s": metric(med("lsq.qr_masked_solve", "s"), "s"),
        "lsq.qr_flops_computed": metric(counts["qr_flops"], "flop"),
        "lsq.qr_bytes_computed": metric(counts["qr_bytes"], "byte"),
        "lsq.fallbacks": metric(counts["fallbacks"], "count"),
        "lsq.estimate_sigma_min.calls": metric(calls["lsq.estimate_sigma_min"], "count"),
        "lsq.estimate_sigma_min.s": metric(med("lsq.estimate_sigma_min", "s"), "s"),
        "bench.write_trace.s": metric(med("bench.write_trace", "s"), "s"),
        "bench.trace_bytes": metric(counts["trace_bytes"], "byte"),
        "bench.load_trace.s": metric(med("bench.load_trace", "s"), "s"),
        "bench.verify_theorem_trace.self_s": metric(
            med("bench.verify_theorem_trace", "self_s"), "s"),
        "bench.verify.checked": metric(counts["verify_checked"], "count"),
        "bench.verify.masked": metric(counts["verify_masked"], "count"),
        "bench.verify.checked_frac": metric(
            counts["verify_checked"] / counts["verify_masked"] if counts["verify_masked"] else 0.0,
            "ratio", base=counts["verify_masked"]),
        "bench.tracing_overhead": metric(
            traced_solve / untraced_solve, "ratio",
            traced_solve_s=traced_solve, untraced_solve_s=untraced_solve,
            samples=[len(traced_passes), len(untraced_passes)]),
        "bench.self_time_coverage": metric(coverage, "ratio"),
    }
    run_failures = []
    if any(pass_counts(p, tracer) != counts for p in traced_passes[1:]):
        run_failures.append("exact counts differ between traced passes at one seed")
    if not 0.99 <= coverage <= 1.0 + 1e-6:
        run_failures.append(f"layer self times cover {coverage:.4f} of the traced solve time")
    return m, run_failures


def measure(workload: str, cases, seed: int, seconds: float, trace: bool,
            out_dir: str) -> dict:
    """Run one workload and return its result as a JSON-ready dict."""
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer() if trace else None
    setup = Setup(cases, tracer)
    directs = [direct_solution(p) for p in setup.problems]

    args = (setup, directs, seed, out_dir)
    warm = run_passes(*args, 0, 1)
    if trace:
        timed = run_passes(*args, seconds / 2, MIN_TRACE_PASSES)
        with tracer:
            traced = run_passes(*args, seconds / 2, MIN_TRACE_PASSES, tracer)
        tracer.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    else:
        timed = run_passes(*args, seconds, MIN_PASSES)
        traced = []

    all_runs = [r for p in warm + timed + traced for r in p.runs]
    reference = warm[0].runs
    for p in timed + traced:
        for run, ref in zip(p.runs, reference):
            if run.report and ref.report and not same_run(run.report, ref.report):
                run.failures.append(
                    "iterations or residual history differ from the warm pass")
    failed = [r for r in all_runs if r.failures]

    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(all_runs),
        "failed": len(failed),
        "failures": [f"{r.case.label}: {msg}" for r in failed for msg in r.failures],
        "environment": environment(seed),
        "cases": [
            {"case": r.case.label, "n": r.report.n, "l1": r.report.l1,
             "window": r.report.window, "iterations": r.report.iterations}
            for r in reference if r.report is not None
        ],
    }
    if any(r.report is None for r in all_runs):
        result["metrics"] = {}
        return result
    if trace:
        result["metrics"], run_failures = per_layer(traced, timed, setup.slices, tracer)
        result["failures"] += run_failures
    else:
        result["metrics"] = end_to_end(timed, setup.rounds, pass_counts(timed[0], None))
    result["metrics"]["failed_frac"] = metric(
        len(failed) / len(all_runs), "ratio", base=len(all_runs))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace), args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
