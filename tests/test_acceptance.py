"""Acceptance suite: one verdict line per shipped guarantee.

Each test prints `criterion N: PASS (...)` or `criterion N: FAIL (...)`
with the measured numbers; run with `-s` to see the lines as they pass.
The checks cover GMRES equivalence of the full-window solver, bitwise
transparency of the masking machinery, soundness of the stability guard
and its recorded-bound verifier, iteration-count stability of adaptive
sketching, the pressure-mask trend, workspace memory shape, accuracy of
the inverse-iteration sigma estimate, the kernel benchmark surface, and
run-to-run determinism of the CLI.
"""
import gc
import time
import tracemalloc

import numpy as np
from oracles import gmres_iterates, sigma_min_svd, solve_plain

from aap.bench import load_bench_table, load_table, verify_theorem_trace, write_trace
from aap.cli import main
from aap.fixed_point import evaluate_residual, field_indices
from aap.lsq import estimate_sigma_min
from aap.problems import build_problem, make_linear
from aap.sketching import build_static_mask
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


def test_criterion_3_guard_soundness(tmp_path):
    t0 = time.perf_counter()
    accepted_total = 0
    guard_bad = 0
    bound_bad = 0
    masks = {"saddle": "pressure"}
    for name, size in SMALLEST:
        for strategy in STRATEGIES:
            config = SolverConfig(
                static_mask=masks.get(name), adaptivity=strategy
            )
            report = solve(build_problem(name, size), config,
                           capture_trace=True)
            for rec in report.mask_trace:
                if rec.accepted:
                    accepted_total += 1
                    if not (0.0 < rec.eps_rhs <= rec.eps_lhs):
                        guard_bad += 1
            path = tmp_path / f"{name}-{strategy}.json"
            write_trace(report, str(path))
            result = verify_theorem_trace(str(path))
            bound_bad += len(result.violations)
    elapsed = time.perf_counter() - t0
    ok = (
        accepted_total > 0
        and guard_bad == 0
        and bound_bad == 0
        and elapsed < 30.0
    )
    _verdict(
        3,
        ok,
        f"{accepted_total} accepted sketches, {guard_bad} guard violations, "
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


def test_criterion_6_workspace_memory_shape():
    # Drives the solver's own iteration, `step`, on a workspace set up the
    # way `solve` sets it up, so the workspace stays inspectable, and
    # watches allocation sites inside the solver and least-squares modules
    # over iterations 2..K. The residual window must hold exactly the
    # masked rows, never the full state dimension.
    problem = build_problem("saddle", 17)
    config = SolverConfig(static_mask="pressure")
    omega = resolve_omega(problem, config)
    mask = build_static_mask(problem, "pressure")
    m = min(resolve_window(problem, config), len(mask.kept))
    ws = allocate_workspace(problem.dimension, config, mask, window=m)
    l1 = field_indices(problem, "pressure").size

    x0 = np.zeros(problem.dimension)
    f0 = evaluate_residual(problem, x0)
    norm_f0 = float(np.linalg.norm(f0))
    np.copyto(ws.x, x0)
    np.copyto(ws.f, f0)
    picard_update(ws.x, ws.f, omega, ws.scratch)
    np.copyto(ws.g, ws.x)

    iterations = 40
    # The loop drops what `step` returns: keeping it is the report's growth,
    # one residual per iteration and one record per mixing step, which
    # `solve` does on purpose. Without adaptivity `step` never reads the
    # residual history.
    history = [1.0]
    # numpy keeps freed array metadata in small bounded free lists, which
    # would show as retained blocks the first time a deeper call path runs.
    # One untraced solve of the same case fills them first.
    solve(problem, config)
    tracemalloc.start(25)
    snap_warm = None
    for k in range(1, iterations + 1):
        step(ws, problem, config, omega, k, norm_f0, history)
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
        and stat.traceback[-1].filename.endswith(("solver.py", "lsq.py"))
    )
    shape_ok = (
        ws.df_window.shape == (l1, m)
        and ws.factor.q.shape == (l1, m)
        and ws.factor.updates + ws.factor.refreshes == iterations
        and float(np.linalg.norm(ws.f_sub)) < float(np.linalg.norm(f0))
        and ws.f_sub.shape == (l1,)
        and l1 < problem.dimension
    )
    ok = shape_ok and growth == 0
    _verdict(
        6,
        ok,
        f"residual window {ws.df_window.shape[0]} of {problem.dimension} "
        f"rows, {growth} bytes retained by the solver's step over "
        f"iterations 2..{iterations}",
    )


def test_criterion_7_sigma_estimate_accuracy():
    t0 = time.perf_counter()
    hits = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        svals = np.sort(rng.uniform(1.0, 5.0, size=10))[::-1]
        svals[-1] = svals[-2] * rng.uniform(0.1, 0.5)
        u = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        v = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        r = np.linalg.qr((u * svals) @ v.T)[1]
        estimate = estimate_sigma_min(r, iterations=5)
        truth = sigma_min_svd(r)
        hits += abs(estimate - truth) <= 0.1 * truth
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 5.0
    _verdict(
        7,
        ok,
        f"{hits}/{trials} gapped factors within 10% of the SVD value, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_kernel_benchmark_surface(tmp_path, capsys):
    out = tmp_path / "kernels.csv"
    code = main([
        "bench-kernels", "--min-n", "1024", "--max-n", "262144",
        "--reps", "3", "--out", str(out),
    ])
    captured = capsys.readouterr().out
    records = load_bench_table(str(out))
    n_values = [2 ** k for k in range(10, 19)]
    retentions = sorted({r.retention for r in records})
    expected = {
        (n, ret, op)
        for n in n_values
        for ret in retentions
        for op in ("matvec", "qr")
    }
    got = {(r.n, r.retention, r.op) for r in records}
    summary_lines = (
        (tmp_path / "kernels.csv.summary.csv").read_text().splitlines()
    )
    info = [ln for ln in captured.splitlines() if ln.startswith("info:")]
    ok = (
        code == 0
        and len(retentions) == 11
        and got == expected
        and len(records) == len(expected)
        and len(summary_lines) == 1 + len(n_values) * 2
        and len(info) == 1
        and "5% retention" in info[0]
    )
    _verdict(
        8,
        ok,
        f"{len(records)} timing records over n=2^10..2^18, "
        f"{len(summary_lines) - 1} threshold rows; {info[0] if info else 'no info line'}",
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
