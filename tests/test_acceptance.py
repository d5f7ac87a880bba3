"""Acceptance suite: one verdict line per shipped guarantee.

Each test prints `criterion N: PASS (...)` or `criterion N: FAIL (...)`
with the measured numbers; run with `-s` to see the lines as they pass.
The checks cover GMRES equivalence of the full-window solver, bitwise
transparency of the masking machinery, soundness of the stability guard
and its recorded-bound verifier, iteration-count stability of adaptive
sketching, the pressure-mask trend, workspace memory shape, exactness of
the guard's sigma, the sweep surface against direct solves, and run-to-run
determinism of the CLI.
"""
import gc
import json
import time
import tracemalloc

import numpy as np
from oracles import gmres_iterates, solve_plain
from scipy.linalg import svdvals

from aap.bench import format_table, load_table, verify_theorem_trace, write_trace
from aap.cli import main
from aap.fixed_point import NumericalBreakdown, evaluate_residual, field_indices
from aap.problems import build_problem, make_linear
from aap.sketching import build_static_mask, eta, stability_hypothesis
from aap.solver import (
    SolverConfig,
    allocate_workspace,
    picard_update,
    resolve_omega,
    resolve_window,
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
    report = solve(problem, config, keep_iterates=True)
    x0 = np.zeros(50)
    reference = [x0] + gmres_iterates(a, b, x0, report.iterations)
    r0 = float(np.linalg.norm(b - a @ x0))

    iterate_err = 0.0
    norm_err = 0.0
    compared = 0
    for k, x_solver in enumerate(report.iterates):
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
            full = solve(problem, config, keep_iterates=True)
            plain = solve_plain(problem, config, keep_iterates=True)
            cases += 1
            same = (
                len(full.iterates) == len(plain.iterates)
                and all(
                    np.array_equal(xa, xb)
                    for xa, xb in zip(full.iterates, plain.iterates)
                )
                and full.residual_history == plain.residual_history
            )
            identical += same
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
        for rec, f_r in zip(report.mask_trace, report.trace.f_restricted,
                            strict=True):
            if not rec.accepted:
                continue
            accepted_total += 1
            etas = [eta(j, config.adaptivity.eta_kind, config.eta_exponent)
                    for j in range(1, rec.columns + 1)]
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
    """Run `step` for iterations 1..K on a workspace set up the way `solve`
    sets it up; returns the workspace, |T(x0)|, the bytes retained by
    allocation sites in the solver, least-squares and sketching modules
    over iterations 2..K, and the guard reasons seen.

    The loop keeps nothing `step` returns except relres, which goes into a
    preallocated history for the stall detector to read: keeping the
    records is the report's growth, which `solve` does on purpose.
    """
    omega = resolve_omega(problem, config)
    mask = build_static_mask(problem, config.static_mask)
    m = min(resolve_window(problem, config), len(mask.kept))
    ws = allocate_workspace(problem.dimension, config, mask, window=m)

    x0 = np.zeros(problem.dimension)
    f0 = evaluate_residual(problem, x0)
    norm_f0 = float(np.linalg.norm(f0))
    np.copyto(ws.x, x0)
    np.copyto(ws.f, f0)
    picard_update(ws.x, ws.f, omega, ws.scratch)
    np.copyto(ws.g, ws.x)

    history = np.ones(iterations + 1)
    reasons = {}
    # numpy keeps freed array metadata in small bounded free lists, which
    # would show as retained blocks the first time a deeper call path runs.
    # One untraced solve of the same case fills them first.
    solve(problem, config)
    tracemalloc.start(25)
    snap_warm = None
    for k in range(1, iterations + 1):
        # No local keeps relres: a float taken from the interpreter's free
        # list at one snapshot and freshly allocated at the other would
        # read as retained.
        history[k], rec = step(ws, problem, config, omega, k, norm_f0,
                               history)
        reasons[rec.reason] = reasons.get(rec.reason, 0) + 1
        del rec
        if k == 1:
            gc.collect()
            snap_warm = tracemalloc.take_snapshot()
    gc.collect()
    snap_done = tracemalloc.take_snapshot()
    tracemalloc.stop()

    growth = sum(
        stat.size_diff
        for stat in snap_done.compare_to(snap_warm, "traceback")
        if stat.size_diff > 0
        and stat.traceback[-1].filename.endswith(
            ("solver.py", "lsq.py", "sketching.py")
        )
    )
    return ws, norm_f0, growth, reasons


def test_criterion_6_workspace_memory_shape():
    # Drives the solver's own iteration, unsketched and with the guarded
    # sketch, and requires that it retains nothing. The residual window
    # must hold exactly the masked rows, never the full state dimension.
    problem = build_problem("saddle", 17)
    l1 = field_indices(problem, "pressure").size
    # The guarded sketch first reaches its sketched QR at iteration 48.
    iterations = 60
    ok = True
    details = []
    for adaptivity in ("none", "subselect-power"):
        config = SolverConfig(static_mask="pressure", adaptivity=adaptivity)
        ws, norm_f0, growth, reasons = _drive_step(problem, config, iterations)
        sketched = reasons.get("accepted", 0) + reasons.get("rejected", 0)
        shape_ok = (
            ws.df_window.shape == (l1, ws.m)
            and ws.factor.q.shape == (l1, ws.m)
            and ws.factor.updates + ws.factor.refreshes == iterations
            and float(np.linalg.norm(ws.f_sub)) < norm_f0
            and ws.f_sub.shape == (l1,)
            and l1 < problem.dimension
            and (adaptivity == "none" or sketched > 0)
        )
        ok = ok and shape_ok and growth == 0
        details.append(f"{adaptivity}: {growth} bytes, {sketched} sketched QRs")
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
    # sketches, and early rejections on the whole window) the recorded
    # sigma must be the SVD value of it.
    t0 = time.perf_counter()
    compared = 0
    mismatched = 0
    for _, report in _traced_strategy_runs():
        for rec, r_factor in zip(report.mask_trace, report.trace.r_factor,
                                 strict=True):
            if rec.reason in ("accepted", "lhs-negative"):
                compared += 1
                mismatched += rec.sigma_min != float(svdvals(r_factor)[-1])
    elapsed = time.perf_counter() - t0
    ok = compared > 0 and mismatched == 0 and elapsed < 30.0
    _verdict(
        7,
        ok,
        f"{compared - mismatched}/{compared} guard sigmas equal to the SVD "
        f"value of the stored factor, {elapsed:.1f}s",
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
    # sizes its table must round-trip and match its sidecar, hold one row
    # per cell in plan order, and agree with direct solves, breakdowns
    # included; every converged run's trace must verify. No timing is
    # asserted.
    t0 = time.perf_counter()
    bad = []
    cells_total = matched = converged = verified = 0
    breakdowns = []
    for name, size in SMALLEST:
        masks = ("none", "pressure") if name == "saddle" else ("none",)
        cells = [(mask, adapt, p) for mask in masks
                 for adapt in ("none", "subselect-power") for p in (1, 2)]
        cells_total += len(cells)
        out = tmp_path / f"{name}.csv"
        plan = tmp_path / f"{name}.plan"
        plan.write_text(
            f"problem = {name}\nsizes = {size}\nmasks = {', '.join(masks)}\n"
            f"adapt = none, sub-pow\nalternations = 1, 2\nout = {out}\n"
        )
        if main(["sweep", "--plan", str(plan)]) != 0:
            bad.append(f"{name}: sweep failed")
            continue
        rows = load_table(str(out))
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        if format_table(rows) != out.read_text() or meta["rows"] != len(rows):
            bad.append(f"{name}: table does not round-trip")
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
            if row.converged:
                converged += 1
                trace = f"{out}.traces/{name}-{size}-{mask}-{adapt}-p{p}.npz"
                verified += main(["verify-trace", trace]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ok = (
        not bad
        and matched == cells_total
        and any(b.startswith("saddle-pressure-none-p2") for b in breakdowns)
        and verified == converged > 0
        and elapsed < 5.0
    )
    _verdict(
        8,
        ok,
        f"{matched} of {cells_total} sweep rows equal to direct solves, "
        f"breakdowns {breakdowns}, {verified} of {converged} converged "
        f"traces verified, {elapsed:.2f}s" + (f"; {bad}" if bad else ""),
    )


def test_criterion_9_cli_determinism(tmp_path):
    flags = [
        "run", "--problem", "saddle", "--size", "17",
        "--mask", "pressure", "--adapt", "rand-const", "--seed", "11",
    ]
    tables = []
    traces = []
    for label in ("a", "b"):
        table = tmp_path / f"{label}.csv"
        trace = tmp_path / f"{label}.json"
        code = main(flags + ["--out", str(table), "--trace", str(trace)])
        assert code == 0
        tables.append(table.read_bytes())
        traces.append(trace.read_bytes())

    wall_col = 11
    def strip_timing(raw):
        lines = raw.decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[wall_col] = ""
        return lines[0], rows

    ok = traces[0] == traces[1] and strip_timing(tables[0]) == strip_timing(
        tables[1]
    )
    _verdict(
        9,
        ok,
        "repeated run: traces byte-identical, tables identical outside "
        "the wall-time field",
    )
