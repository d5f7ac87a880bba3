"""Acceptance suite: one verdict line per shipped guarantee.

Each test prints `criterion N: PASS (...)` or `criterion N: FAIL (...)`
with the measured numbers; run with `-s` to see the lines as they pass.
The checks cover GMRES equivalence of the full-window solver, bitwise
transparency of the masking machinery, soundness of the stability guard
and its recorded-bound verifier, iteration-count stability of adaptive
sketching, the pressure-mask trend, workspace memory shape, exactness of
the guard's sigma, the sweep surface against direct solves, run-to-run
determinism of the CLI, and convergence of the benchmark's solves.
"""
import gc
import json
import os
import time
import tracemalloc

import numpy as np
from oracles import gmres_iterates, matches_plain_loop, recording
from scipy.linalg import svdvals

import aap
from aap import lsq
from aap.bench import RunRecord, verify_theorem_trace, write_trace
from aap.cli import main
from aap.fixed_point import NumericalBreakdown
from aap.problems import build_problem, make_linear
from aap.sketching import budget_weights, stability_hypothesis
from aap.solver import (
    SolverConfig,
    Workspace,
    solve,
    step,
)

SMALLEST = (("linear", 8), ("saddle", 9), ("plaplace", 9), ("bidomain", 9))
STRATEGIES = (
    "subselect-power",
    "subselect-constant",
    "randomized-power",
    "randomized-constant",
)


def _verdict(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_gmres_equivalence():
    # With a full window and mixing every step on a linear residual, each
    # iterate equals the relaxed Picard map applied to the previous GMRES
    # iterate, so the residual histories must agree as well. Relative
    # error on the norm sequence is checked in absolute terms: entries
    # near the 1e-10 cutoff sit twelve decades below the initial scale,
    # where float64 leaves no relative digits to compare.
    t0 = time.perf_counter()
    problem = make_linear(50, seed=0)
    a = problem.data["matrix"]
    b = problem.data["rhs"]
    omega = problem.recommended_omega
    config = SolverConfig(
        window=50, alternation=1, rel_tolerance=1e-10, max_iterations=200
    )
    traced, states = recording(problem)
    report = solve(traced, config)
    x0 = np.zeros(50)
    reference = [x0] + gmres_iterates(a, b, x0, report.iterations)
    r0 = float(np.linalg.norm(b - a @ x0))

    iterate_err = 0.0
    norm_err = 0.0
    compared = 0
    for k, x_solver in enumerate(states[1:]):
        if report.residual_history[k + 1] < 1e-10:
            break
        xg = reference[k]
        picard = xg - omega * (a @ xg - b)
        iterate_err = max(
            iterate_err,
            float(np.linalg.norm(x_solver - picard))
            / float(np.linalg.norm(picard)),
        )
        norm_err = max(
            norm_err,
            abs(
                report.residual_history[k + 1]
                - float(np.linalg.norm(b - a @ picard)) / r0
            ),
        )
        compared += 1
    elapsed = time.perf_counter() - t0
    ok = (
        report.converged
        and compared >= 30
        and iterate_err < 1e-8
        and norm_err < 1e-8
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"{compared} iterations vs GMRES: iterate rel err {iterate_err:.2e}, "
        f"residual norm abs err {norm_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_transparency():
    cases = 0
    identical = 0
    for name, size in SMALLEST:
        for p in (1, 3):
            problem = build_problem(name, size)
            config = SolverConfig(
                alternation=p,
                rel_tolerance=1e-8,
                max_iterations=150,
                sketch_percent=100.0,
            )
            cases += 1
            identical += matches_plain_loop(problem, config)
    _verdict(
        2,
        identical == cases,
        f"{identical}/{cases} problem/alternation cases bitwise identical "
        "to the plain reference loop",
    )


def _traced_strategy_runs():
    """Every smallest problem under every sketch strategy, traced; saddle
    with its pressure mask."""
    masks = {"saddle": "pressure"}
    for name, size in SMALLEST:
        for strategy in STRATEGIES:
            config = SolverConfig(
                static_mask=masks.get(name), adaptivity=strategy
            )
            yield f"{name}-{strategy}", solve(
                build_problem(name, size), config, capture_trace=True
            )


def test_criterion_3_guard_soundness(tmp_path):
    # The guard and the offline verifier test one hypothesis: every sketch
    # the guard accepts must meet it on its recorded window, and the
    # verifier must check every accepted sketch and find the bound held.
    t0 = time.perf_counter()
    accepted_total = 0
    guard_bad = 0
    checked = 0
    verified_accepted = 0
    bound_bad = 0
    for label, report in _traced_strategy_runs():
        config = report.config
        for rec in report.mask_trace:
            if not rec.accepted:
                continue
            accepted_total += 1
            f_r = report.trace.residual(rec)
            etas = budget_weights(config.adaptivity, rec.columns)
            guard_bad += not stability_hypothesis(
                rec.sigma_min, rec.lipschitz, float(np.linalg.norm(f_r)),
                report.trace.window(rec)[1], etas, rec.eps_rhs,
            )
        path = tmp_path / f"{label}.json"
        write_trace(report, str(path))
        result = verify_theorem_trace(str(path))
        checked += len(result.checked)
        verified_accepted += len(result.accepted)
        bound_bad += len(result.violations)
    elapsed = time.perf_counter() - t0
    ok = (
        accepted_total > 0
        and checked == verified_accepted == accepted_total
        and guard_bad == 0
        and bound_bad == 0
        and elapsed < 30.0
    )
    _verdict(
        3,
        ok,
        f"checked {checked} of {verified_accepted} accepted "
        f"({accepted_total} in the reports), {guard_bad} guard violations, "
        f"{bound_bad} recorded-bound violations, {elapsed:.1f}s",
    )


def test_criterion_4_adaptive_iteration_counts():
    t0 = time.perf_counter()
    worst = 0.0
    detail = []
    ok = True
    for name, size in (("plaplace", 31), ("saddle", 33)):
        base = solve(build_problem(name, size), SolverConfig())
        assert base.converged
        for strategy in STRATEGIES:
            run = solve(
                build_problem(name, size), SolverConfig(adaptivity=strategy)
            )
            ratio = run.iterations / base.iterations
            worst = max(worst, ratio)
            ok = ok and run.converged and ratio <= 2.0
        detail.append(f"{name}{size} base {base.iterations}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(
        4,
        ok,
        f"all strategies converge within 2x ({', '.join(detail)}; "
        f"worst ratio {worst:.2f}, {elapsed:.1f}s)",
    )


def test_criterion_5_pressure_mask_trend():
    details = []
    ok = True
    for size in (17, 33):
        bare = solve(build_problem("saddle", size), SolverConfig())
        masked = solve(
            build_problem("saddle", size),
            SolverConfig(static_mask="pressure"),
        )
        ratio = masked.iterations / bare.iterations
        ok = ok and bare.converged and masked.converged and ratio <= 1.5
        details.append(
            f"{size}x{size}: {masked.iterations}/{bare.iterations}"
            f" = {ratio:.2f}"
        )
    _verdict(5, ok, "pressure vs no mask " + ", ".join(details))


def _drive_step(problem, config, iterations):
    """Run `step` for iterations 1..K on a new workspace, which starts the
    run as `solve` does; returns the workspace, the bytes retained by
    allocation sites in the package's modules over iterations 2..K, the
    guard reasons seen, and how many times the guard factored a sketch
    (called `lsq.qr_masked_solve`).

    The loop keeps nothing `step` returns except relres, which goes into
    ``ws.history``, preallocated here, for the stall detector to read:
    keeping the records is the report's growth, which `solve` does on
    purpose.
    """
    ws = Workspace(problem, config)
    ws.history = np.ones(iterations + 1)
    reasons = {}
    # numpy keeps freed array metadata in small bounded free lists, which
    # would show as retained blocks the first time a deeper call path runs.
    # One untraced solve of the same case fills them first.
    solve(problem, config)
    factor_sketch, factored = lsq.qr_masked_solve, [0]

    def counted(*args):
        factored[0] += 1
        return factor_sketch(*args)

    lsq.qr_masked_solve = counted
    tracemalloc.start(25)
    try:
        for k in range(1, iterations + 1):
            # No local keeps relres: a float taken from the interpreter's
            # free list at one snapshot and freshly allocated at the other
            # would read as retained.
            ws.history[k], rec = step(ws, k)
            reasons[rec.reason] = reasons.get(rec.reason, 0) + 1
            del rec
            if k == 1:
                gc.collect()
                snap_warm = tracemalloc.take_snapshot()
        gc.collect()
        snap_done = tracemalloc.take_snapshot()
    finally:
        # Tracing left on would slow every later test by an order of
        # magnitude.
        tracemalloc.stop()
        lsq.qr_masked_solve = factor_sketch

    # Every module of the package counts, the residual's included, since
    # `step` evaluates it. Library frames do not: counted too, they hold
    # a kilobyte or two (scipy.sparse, tracemalloc and numpy internals)
    # that does not grow between 30 and 240 iterations.
    package = os.path.dirname(aap.__file__) + os.sep
    growth = sum(
        stat.size_diff
        for stat in snap_done.compare_to(snap_warm, "traceback")
        if stat.size_diff > 0
        and stat.traceback[-1].filename.startswith(package)
    )
    return ws, growth, reasons, factored[0]


def test_criterion_6_workspace_memory_shape():
    # Drives the solver's own iteration, unsketched and with the guarded
    # sketch, and requires that it retains nothing. The residual window
    # must hold exactly the masked rows, never the full state dimension.
    problem = build_problem("saddle", 17)
    start, stop = dict(problem.fields)["pressure"]
    l1 = stop - start
    # At this tolerance both runs take over 100 iterations, and the guarded
    # sketch first factors a sketch at iteration 44.
    iterations = 60
    ok = True
    details = []
    for adaptivity in ("none", "subselect-power"):
        config = SolverConfig(static_mask="pressure", adaptivity=adaptivity,
                              rel_tolerance=1e-10)
        ws, growth, reasons, sketched = _drive_step(problem, config,
                                                    iterations)
        shape_ok = (
            ws.df_window.shape == (l1, ws.m)
            and ws.factor.gram.shape == (ws.m, ws.m)
            and sum(reasons.values()) == iterations
            and float(np.linalg.norm(ws.f_r)) < ws.norm_f0
            and ws.f_r.shape == (l1,)
            and l1 < problem.dimension
            and (adaptivity == "none" or sketched > 0)
        )
        ok = ok and shape_ok and growth == 0
        details.append(f"{adaptivity}: {growth} bytes, {sketched} sketched "
                       "factors")
    _verdict(
        6,
        ok,
        f"residual window {l1} of {problem.dimension} rows; retained by the "
        f"solver's step over iterations 2..{iterations}: "
        + ", ".join(details),
    )


def test_criterion_7_guard_sigma_is_exact():
    # The guard tests its hypothesis with the smallest singular value of
    # the factor it guards. Where the trace stores that factor (accepted
    # sketches, and early rejections on the whole window) a recorded sigma
    # must be the SVD value of it. An early rejection recorded without a
    # sigma was settled by the factor's diagonal: min |R_ii| of the stored
    # factor must fail the hypothesis at eps = 0, and at least one step
    # must take that shortcut, so it is checked, not trusted.
    t0 = time.perf_counter()
    compared = 0
    mismatched = 0
    shortcuts = 0
    unjustified = 0
    for _, report in _traced_strategy_runs():
        trace = report.trace
        for rec, r_factor in zip(report.mask_trace, trace.r_factor, strict=True):
            if rec.reason not in ("accepted", "lhs-negative"):
                continue
            if rec.sigma_min is not None:
                compared += 1
                mismatched += rec.sigma_min != float(svdvals(r_factor)[-1])
                continue
            shortcuts += 1
            unjustified += rec.reason != "lhs-negative" or stability_hypothesis(
                float(np.abs(np.diagonal(r_factor)).min()), rec.lipschitz,
                float(np.linalg.norm(trace.residual(rec))), trace.window(rec)[1],
                budget_weights(report.config.adaptivity, rec.columns), 0.0,
            )
    elapsed = time.perf_counter() - t0
    ok = (compared > 0 and mismatched == 0 and shortcuts > 0
          and unjustified == 0 and elapsed < 30.0)
    _verdict(
        7,
        ok,
        f"{compared - mismatched}/{compared} guard sigmas equal to the SVD "
        f"value of the stored factor, {shortcuts - unjustified}/{shortcuts} "
        f"diagonal rejections confirmed, {elapsed:.1f}s",
    )


def _direct_solve(name, size, mask, adapt, p):
    """(iterations, converged, broke down) of `solve` on one sweep cell; a
    plan's defaults are SolverConfig's."""
    config = SolverConfig(alternation=p, adaptivity=adapt,
                          static_mask=None if mask == "none" else mask)
    try:
        report = solve(build_problem(name, size), config)
    except NumericalBreakdown as exc:
        return exc.report.iterations, False, True
    return report.iterations, report.converged, False


def test_criterion_8_sweep_surface(tmp_path, capsys):
    # `aap sweep` is the package's one timing surface. At the smallest
    # sizes its JSON result must hold its meta and one row of RunRecord
    # fields per cell in plan order, and agree with direct solves,
    # breakdowns included; every cell's trace, a breakdown's partial one
    # included, must verify. No timing is asserted.
    t0 = time.perf_counter()
    bad = []
    cells_total = matched = verified = 0
    breakdowns = []
    for name, size in SMALLEST:
        masks = ("none", "pressure") if name == "saddle" else ("none",)
        cells = [(mask, adapt, p) for mask in masks
                 for adapt in ("none", "subselect-power") for p in (1, 2)]
        cells_total += len(cells)
        out = tmp_path / f"{name}.json"
        plan = tmp_path / f"{name}.plan.json"
        plan.write_text(json.dumps({
            "problem": name, "sizes": [size], "masks": list(masks),
            "adaptivities": ["none", "sub-pow"], "alternations": [1, 2],
            "out": str(out),
        }))
        if main(["sweep", "--plan", str(plan)]) != 0:
            bad.append(f"{name}: sweep failed")
            continue
        doc = json.loads(out.read_text())
        rows = [RunRecord(**row) for row in doc["rows"]]
        if doc["meta"].get("package") != "aap" or len(doc) != 2:
            bad.append(f"{name}: result is not one meta and its rows")
        if [(r.problem, r.size, r.mask, r.adaptivity, r.alternation)
                for r in rows] != [(name, size, *cell) for cell in cells]:
            bad.append(f"{name}: rows are not the plan's cells")
            continue
        for row, (mask, adapt, p) in zip(rows, cells):
            iterations, done, broke = _direct_solve(name, size, mask, adapt, p)
            if (row.iterations, row.converged) == (iterations, done):
                matched += 1
            else:
                bad.append(f"{name}-{mask}-{adapt}-p{p}: row "
                           f"{row.iterations}, direct {iterations}")
            if broke:
                breakdowns.append(f"{name}-{mask}-{adapt}-p{p} at {iterations}")
            trace = f"{out}.traces/{name}-{size}-{mask}-{adapt}-p{p}.npz"
            verified += main(["verify-trace", trace]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ok = (
        not bad
        and matched == cells_total
        and any(b.startswith("saddle-pressure-none-p2") for b in breakdowns)
        and verified == cells_total
        and elapsed < 5.0
    )
    _verdict(
        8,
        ok,
        f"{matched} of {cells_total} sweep rows equal to direct solves, "
        f"breakdowns {breakdowns}, {verified} of {cells_total} traces "
        f"verified, {elapsed:.2f}s" + (f"; {bad}" if bad else ""),
    )


def test_criterion_9_cli_determinism(tmp_path):
    flags = [
        "run", "--problem", "saddle", "--size", "17",
        "--mask", "pressure", "--adapt", "rand-const", "--seed", "11",
    ]
    results = []
    traces = []
    for label in ("a", "b"):
        result = tmp_path / f"{label}.json"
        trace = tmp_path / f"{label}.npz"
        code = main(flags + ["--out", str(result), "--trace", str(trace)])
        assert code == 0
        doc = json.loads(result.read_text())
        for row in doc["rows"]:
            del row["wall_times_seconds"]
        results.append(doc)
        traces.append(trace.read_bytes())

    ok = traces[0] == traces[1] and results[0] == results[1]
    _verdict(
        9,
        ok,
        "repeated run: traces byte-identical, results identical outside "
        "the wall-times field",
    )


# The solves of perfbench's masked-sketch and traced-replay workloads.
BENCHMARK_CASES = (
    ("saddle", 65, "pressure", "subselect-power"),
    ("plaplace", 63, None, "randomized-power"),
    ("bidomain", 33, None, "subselect-power"),
    ("saddle", 33, "pressure", "subselect-power"),
    ("plaplace", 31, None, "randomized-power"),
)


def test_criterion_10_benchmark_cases_converge(benchmark_solves):
    # Saddle-65 with the pressure mask converges or not on the last bits
    # of its arithmetic (ROADMAP item 2), so a change that loses it must
    # fail here and not only in the benchmark. A saddle solve must also
    # match a direct solve of its assembled system to 1e-3, as perfbench
    # checks. The solves run with one BLAS thread, as perfbench's do
    # (the `benchmark_solves` fixture).
    results = [(key, got["iterations"], got["converged"]
                and (got["direct_error"] is None or got["direct_error"] <= 1e-3))
               for key, got in benchmark_solves.items()]
    _verdict(
        10,
        len(results) == len(BENCHMARK_CASES) and all(ok for *_, ok in results),
        ", ".join(f"{key} {'converged' if ok else 'FAILED'} in {its}"
                  for key, its, ok in results),
    )
