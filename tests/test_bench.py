"""Plan parsing, the experiment driver, traces, the verifier and the CLI."""
import json
import zipfile

import numpy as np
import pytest

from aap.bench import (
    ExperimentPlan,
    ParseError,
    RunRecord,
    canonical_adaptivity,
    load_table,
    load_trace,
    parse_plan,
    run_experiment,
    verify_theorem_trace,
    write_table,
    write_trace,
    _read_trace,
    _save_trace,
)
from aap.cli import main
from aap.problems import build_problem
from aap.solver import SolverConfig, solve


class TestParsePlan:
    def test_minimal(self):
        plan = parse_plan("problem = linear\nsizes = 10, 20\n")
        assert plan.problem == "linear"
        assert plan.sizes == (10, 20)
        assert plan.masks == ("none",)
        assert plan.adaptivities == ("none",)
        assert plan.alternations == (1,)
        assert plan.repetitions == 1

    def test_full(self):
        text = """
        # comment line
        problem = saddle
        sizes = 9, 17        # inline comment
        masks = none, pressure
        adapt = none, sub-pow, rand-const
        alternations = 1, 2, 3, 4
        sketch = 25
        window = 12
        tol = 1e-8
        max_iterations = 500
        repetitions = 2
        seed = 7
        best = true
        out = /tmp/table.csv
        traces = none
        """
        plan = parse_plan(text)
        assert plan.masks == ("none", "pressure")
        assert plan.adaptivities == (
            "none", "subselect-power", "randomized-constant"
        )
        assert plan.alternations == (1, 2, 3, 4)
        assert plan.window == 12 and plan.seed == 7 and plan.best
        assert plan.traces is None

    def test_unknown_key_reports_line(self):
        for key in ("colour = red", "workers = 2"):
            with pytest.raises(ParseError, match="unknown key") as info:
                parse_plan(f"problem = linear\nsizes = 4\n{key}\n")
            assert info.value.lineno == 3

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_plan("problem = linear\nproblem = saddle\nsizes = 4\n")

    def test_missing_required_keys(self):
        with pytest.raises(ParseError):
            parse_plan("problem = linear\n")
        with pytest.raises(ParseError):
            parse_plan("sizes = 4\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError) as info:
            parse_plan("problem = linear\nsizes = ten\n")
        assert info.value.lineno == 2

    def test_missing_equals(self):
        with pytest.raises(ParseError) as info:
            parse_plan("problem linear\n")
        assert info.value.lineno == 1

    def test_traces_default_next_to_table(self):
        plan = parse_plan("problem = linear\nsizes = 4\nout = /tmp/t.csv\n")
        assert plan.traces == "/tmp/t.csv.traces"
        bare = parse_plan("problem = linear\nsizes = 4\n")
        assert bare.traces is None

    def test_adapt_aliases(self):
        assert canonical_adaptivity("sub-pow") == "subselect-power"
        assert canonical_adaptivity("rand-const") == "randomized-constant"
        assert canonical_adaptivity("none") == "none"
        assert canonical_adaptivity("subselect-power") == "subselect-power"
        with pytest.raises(ValueError):
            canonical_adaptivity("sub-geo")

    def test_plan_invariants(self):
        with pytest.raises(ParseError):
            ExperimentPlan(problem="linear", sizes=())
        with pytest.raises(ParseError):
            ExperimentPlan(problem="linear", sizes=(4,), repetitions=0)


class TestRunExperiment:
    def test_row_count_is_full_cross_product(self):
        plan = ExperimentPlan(
            problem="linear",
            sizes=(10, 15),
            masks=("none",),
            adaptivities=("none", "subselect-constant"),
            alternations=(1, 2),
            tol=1e-6,
        )
        records = run_experiment(plan)
        assert len(records) == 2 * 1 * 2 * 2
        assert all(r.converged for r in records)

    def test_three_masks_on_saddle(self):
        plan = ExperimentPlan(
            problem="saddle",
            sizes=(17,),
            masks=("none", "pressure", "velocity"),
        )
        records = run_experiment(plan)
        assert len(records) == 3
        assert all(r.converged for r in records)

    def test_forced_failure_rows_survive(self):
        plan = ExperimentPlan(
            problem="plaplace", sizes=(9,), max_iterations=1
        )
        records = run_experiment(plan)
        assert len(records) == 1
        assert not records[0].converged
        assert records[0].iterations == 1

    def test_build_failure_becomes_failed_row(self):
        plan = ExperimentPlan(problem="saddle", sizes=(9, 100))
        records = run_experiment(plan)
        assert len(records) == 2
        assert records[0].converged
        assert not records[1].converged and records[1].iterations is None

    def test_iteration_counts_deterministic(self):
        plan = ExperimentPlan(
            problem="saddle",
            sizes=(9,),
            masks=("pressure",),
            adaptivities=("randomized-constant",),
            seed=5,
        )
        a = [r.iterations for r in run_experiment(plan)]
        b = [r.iterations for r in run_experiment(plan)]
        assert a == b

    def test_best_marks_fastest_converged_per_size(self):
        plan = ExperimentPlan(
            problem="linear",
            sizes=(10, 20),
            alternations=(1, 2),
            best=True,
        )
        records = run_experiment(plan)
        for size in (10, 20):
            rows = [r for r in records if r.size == size]
            marked = [r for r in rows if r.best]
            assert len(marked) == 1
            fastest = min(
                (r for r in rows if r.converged),
                key=lambda r: r.wall_time_seconds,
            )
            assert marked[0] is fastest

    def test_traces_written_per_run(self, tmp_path):
        out = tmp_path / "t.csv"
        plan = ExperimentPlan(
            problem="saddle",
            sizes=(9,),
            masks=("none", "pressure"),
            traces=str(tmp_path / "traces"),
            out=str(out),
        )
        run_experiment(plan)
        files = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert files == [
            "saddle-9-none-none-p1.npz",
            "saddle-9-pressure-none-p1.npz",
        ]


class TestTableRoundTrip:
    def test_records_survive_exactly(self, tmp_path):
        records = [
            RunRecord(
                problem="saddle", size=9, mask="pressure",
                adaptivity="subselect-power", sketch=30.0, window=10,
                alternation=2, tol=1e-6, seed=3, iterations=48,
                converged=True, wall_time_seconds=0.012345678901234567,
                best=True,
            ),
            RunRecord(
                problem="saddle", size=100, mask="none", adaptivity="none",
                sketch=12.5, window=None, alternation=1, tol=1e-8, seed=0,
                iterations=None, converged=False, wall_time_seconds=None,
            ),
        ]
        path = tmp_path / "table.csv"
        write_table(records, str(path))
        assert load_table(str(path)) == records
        meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
        assert meta["rows"] == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError) as info:
            load_table(str(path))
        assert info.value.lineno == 1

    def test_short_row_rejected(self, tmp_path):
        records = [
            RunRecord(
                problem="linear", size=4, mask="none", adaptivity="none",
                sketch=30.0, window=4, alternation=1, tol=1e-6, seed=0,
                iterations=3, converged=True, wall_time_seconds=0.1,
            )
        ]
        path = tmp_path / "t.csv"
        write_table(records, str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_table(str(path))
        assert info.value.lineno == 2


def traced_report(adaptivity="subselect-power", mask="pressure", seed=3):
    problem = build_problem("saddle", 9)
    config = SolverConfig(
        static_mask=mask, adaptivity=adaptivity, rng_seed=seed
    )
    return solve(problem, config, capture_trace=True)


class TestTraceFiles:
    def test_round_trip_preserves_structure(self, tmp_path):
        report = traced_report()
        path = tmp_path / "trace.json"
        write_trace(report, str(path))
        doc = load_trace(str(path))
        assert doc["problem"] == "saddle"
        assert doc["l1"] == report.l1
        assert doc["iterations"] == report.iterations
        assert len(doc["steps"]) == len(doc["trace"]) == len(report.trace)
        step = doc["steps"][0]
        assert doc["trace"].window(step)[0].shape == (report.l1, step.columns)

    def test_records_round_trip(self, tmp_path):
        # The file gives back the report's own records; a None sigma_min or
        # eps_rhs is stored as NaN and reads back as None.
        report = traced_report()
        path = tmp_path / "trace.json"
        write_trace(report, str(path))
        assert load_trace(str(path))["steps"] == report.mask_trace
        assert any(rec.sigma_min is None for rec in report.mask_trace)
        _, arrays = _read_trace(str(path))
        assert np.isnan(arrays["sigma_min"]).any()
        assert "accepted" not in arrays and "fallback" not in arrays

    def test_increments_are_views_of_the_log(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(traced_report(), str(path))
        doc = load_trace(str(path))
        windows = [doc["trace"].window(rec)[0] for rec in doc["steps"]]
        log = windows[-1].base
        assert log is not None
        assert all(w.base is log for w in windows)

    def test_writes_exactly_the_given_path(self, tmp_path):
        write_trace(traced_report(), str(tmp_path / "x.json"))
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_requires_captured_trace(self, tmp_path):
        report = solve(build_problem("linear", 10))
        with pytest.raises(ValueError):
            write_trace(report, str(tmp_path / "t.json"))

    def test_size_grows_with_log_not_windows(self, tmp_path):
        # Each window column is stored once: a file that stored the window
        # per step would take about 8 * l1 * m bytes a step.
        problem = build_problem("saddle", 17)
        config = SolverConfig(static_mask="pressure",
                              adaptivity="subselect-power")
        report = solve(problem, config, capture_trace=True)
        path = tmp_path / "trace.npz"
        write_trace(report, str(path))
        steps = len(report.trace)
        bound = (8 * report.l1 * (report.iterations + steps)
                 + 8 * sum(rec.columns ** 2 for rec in report.mask_trace)
                 + 64 * 1024)
        assert path.stat().st_size <= bound
        stored_per_step = 8 * report.l1 * sum(rec.columns
                                              for rec in report.mask_trace)
        assert stored_per_step > bound

    def test_no_timing_fields(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(traced_report(), str(path))
        header, arrays = _read_trace(str(path))
        for name in list(header) + list(arrays):
            assert "wall" not in name and "time" not in name

    # Every malformed trace raises ParseError, so verify-trace exits 2.

    def test_truncated_file_rejected(self, written):
        data = written.read_bytes()
        written.write_bytes(data[: len(data) // 2])
        assert_rejected(written)

    def test_non_zip_file_rejected(self, written):
        written.write_bytes(b"\x00" * 64)
        assert_rejected(written)

    def test_zip_of_non_arrays_rejected(self, written):
        with zipfile.ZipFile(written, "w") as archive:
            archive.writestr("header.txt", "{}")
        assert_rejected(written)

    def test_bare_array_rejected(self, written):
        with open(written, "wb") as fh:
            np.save(fh, np.zeros(3))
        assert_rejected(written)

    def test_v1_json_file_rejected(self, written):
        written.write_text(json.dumps({
            "format": "aap-trace-1", "problem": "saddle", "l1": 2,
            "eta_exponent": 1.1, "adaptivity": "none", "steps": [],
        }))
        assert_rejected(written)

    def test_unknown_format_rejected(self, written):
        rewrite(written, lambda h, a: h.update(format="aap-trace-9"))
        assert_rejected(written)

    def test_missing_field_rejected(self, written):
        rewrite(written, lambda h, a: h.pop("l1"))
        assert_rejected(written)

    def test_unknown_reason_rejected(self, written):
        def edit(header, arrays):
            arrays["reason"][0] = "approved"
        rewrite(written, edit)
        assert_rejected(written)

    @pytest.mark.parametrize(
        "name", ["increments", "f_restricted", "mask", "alpha_len"]
    )
    def test_missing_array_rejected(self, written, name):
        rewrite(written, lambda h, a: a.pop(name))
        assert_rejected(written)

    @pytest.mark.parametrize("name", ["alpha_len", "r_factor_len", "mask_len"])
    def test_step_lengths_past_array_rejected(self, written, name):
        def edit(header, arrays):
            arrays[name][-1] += 1
        rewrite(written, edit)
        assert_rejected(written)

    def test_window_past_log_rejected(self, written):
        def edit(header, arrays):
            arrays["increments"] = arrays["increments"][:, :-2]
            arrays["dx_norms"] = arrays["dx_norms"][:-2]
        rewrite(written, edit)
        assert_rejected(written)

    def test_window_before_log_rejected(self, written):
        def edit(header, arrays):
            arrays["columns"][0] = arrays["iteration"][0] + 1
        rewrite(written, edit)
        assert_rejected(written)

    def test_sketch_rows_past_window_rejected(self, written):
        def edit(header, arrays):
            arrays["mask"][-1] = header["l1"]
        rewrite(written, edit)
        assert_rejected(written)


@pytest.fixture
def written(tmp_path):
    """A trace file of a sketched saddle solve."""
    path = tmp_path / "trace.json"
    write_trace(traced_report(), str(path))
    return path


def rewrite(path, edit):
    """Apply ``edit(header, arrays)`` to a written trace, in place."""
    header, arrays = _read_trace(str(path))
    edit(header, arrays)
    _save_trace(str(path), header, arrays)


def assert_rejected(path):
    with pytest.raises(ParseError):
        load_trace(str(path))
    assert main(["verify-trace", str(path)]) == 2


def synthetic_trace(path, lipschitz):
    """One accepted, sketched step with a consistent factor and a
    perturbation far above the eta-sum bound; ``lipschitz`` decides whether
    the stability hypothesis holds. The step at iteration 2 mixes over both
    columns of the log."""
    rng = np.random.default_rng(0)
    l1, c = 6, 2
    increments = rng.standard_normal((l1, c)) * 10.0
    rows = np.array([0, 1, 2])
    r_factor = np.linalg.qr(increments[rows], mode="reduced")[1]
    header = {
        "format": "aap-trace-3",
        "problem": "synthetic",
        "l1": l1,
        "eta_exponent": 1.1,
        "adaptivity": "subselect-constant",
        "iterations": 3,
    }
    arrays = {
        "residual_history": np.ones(4),
        "increments": increments,
        "dx_norms": np.array([1e-6, 1e-6]),
        "iteration": np.array([2]),
        "columns": np.array([c]),
        "f_restricted": np.ones((1, l1)),
        "lipschitz": np.array([lipschitz]),
        "sigma_min": np.array([np.nan]),
        "eps_rhs": np.array([np.nan]),
        "reason": np.array(["accepted"]),
        "alpha": np.array([5.0, -4.0]),
        "alpha_len": np.array([c]),
        "r_factor": r_factor.ravel(),
        "r_factor_len": np.array([c]),
        "mask": rows,
        "mask_len": np.array([len(rows)]),
    }
    _save_trace(str(path), header, arrays)
    return str(path)


class TestVerifyTrace:
    def test_no_adaptivity_trace_all_deltas_zero(self, tmp_path):
        problem = build_problem("linear", 15)
        report = solve(problem, capture_trace=True)
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        result = verify_theorem_trace(str(path))
        assert result.passed
        assert all(s.delta == 0.0 for s in result.steps)
        assert not any(s.masked for s in result.steps)

    def test_adaptive_trace_bound_holds(self, tmp_path):
        problem = build_problem("plaplace", 9)
        config = SolverConfig(adaptivity="randomized-constant", rng_seed=1)
        report = solve(problem, config, capture_trace=True)
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        result = verify_theorem_trace(str(path))
        assert result.passed
        assert result.violations == []
        assert any(s.masked for s in result.steps)

    def test_zeroed_increments_detected(self, tmp_path):
        report = traced_report()
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        sketched = next(rec for rec in report.mask_trace if rec.accepted)

        def edit(header, arrays):
            arrays["increments"][:, sketched.iteration - 1] = 0.0
        rewrite(path, edit)
        with pytest.raises(ParseError):
            verify_theorem_trace(str(path))

    def test_constructed_violation_fails(self, tmp_path):
        # Hypotheses forced true by a tiny Lipschitz estimate, but a
        # perturbation far above the bound.
        path = synthetic_trace(tmp_path / "bad.json", lipschitz=1e-9)
        result = verify_theorem_trace(path)
        assert not result.passed
        step = result.steps[0]
        assert step.hypotheses_satisfied
        assert step.delta > step.bound

    def test_fallback_steps_pass_vacuously(self, tmp_path):
        report = traced_report()
        assert any(rec.fallback for rec in report.mask_trace)
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        result = verify_theorem_trace(str(path))
        for check in result.steps:
            if check.fallback:
                assert check.delta == 0.0 and check.bound_satisfied


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        trace = tmp_path / "run.json"
        code = main([
            "run", "--problem", "linear", "--size", "20",
            "--out", str(out), "--trace", str(trace),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged    yes" in printed
        assert "refactored" in printed and "window restarts" in printed
        assert load_table(str(out))[0].converged
        assert load_trace(str(trace))["problem"] == "linear"
        mixing = int(printed.split("mixing")[1].split()[0])
        assert f"guard        disabled {mixing}\n" in printed

    def test_run_prints_guard_reasons(self, capsys):
        code = main([
            "run", "--problem", "saddle", "--size", "17",
            "--mask", "pressure", "--adapt", "sub-pow",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        mixing = int(printed.split("mixing")[1].split()[0])
        guard = printed.split("guard")[1].splitlines()[0].split(",")
        counts = dict(item.split() for item in guard)
        assert int(counts["accepted"]) > 0
        assert "lhs-negative" in counts
        assert sum(int(n) for n in counts.values()) == mixing

    def test_run_counts_unsketched_fallbacks(self, capsys):
        # Without a sketch the guard never runs, but a rank-deficient window
        # still falls back, and the guard line says so.
        code = main([
            "run", "--problem", "saddle", "--size", "9",
            "--mask", "pressure",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        fallbacks = int(printed.split("sketched,")[1].split()[0])
        guard = printed.split("guard")[1].splitlines()[0].split(",")
        counts = dict(item.split() for item in guard)
        assert int(counts["no-factor"]) == fallbacks > 0
        assert set(counts) == {"disabled", "no-factor"}

    @pytest.mark.parametrize("adapt", ["none", "sub-pow"])
    def test_run_breakdown_exit_code(self, adapt, capsys, recwarn):
        # pytest records warnings instead of printing them, so the stderr
        # check alone would pass vacuously; recwarn sees every warning.
        code = main([
            "run", "--problem", "saddle", "--size", "17",
            "--mask", "pressure", "-p", "2", "--adapt", adapt,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "breakdown:" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_run_nonconvergence_exit_code(self, tmp_path):
        code = main([
            "run", "--problem", "linear", "--size", "20",
            "--max-iterations", "1",
        ])
        assert code == 1

    def test_run_invalid_input_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench-kernels", "--out", "x.csv"])
        assert info.value.code == 2
        assert "invalid choice: 'bench-kernels'" in capsys.readouterr().err
        assert main(["run", "--problem", "saddle", "--size", "100"]) == 2
        assert main([
            "run", "--problem", "saddle", "--size", "9",
            "--init", "poisson",
        ]) == 2
        assert main([
            "run", "--problem", "saddle", "--size", "9",
            "--mask", "temperature",
        ]) == 2

    def test_sweep_runs_plan(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "problem = linear\nsizes = 10, 15\nalternations = 1, 2\n"
            f"out = {out}\ntraces = none\n"
        )
        assert main(["sweep", "--plan", str(plan)]) == 0
        assert len(load_table(str(out))) == 4

    def test_sweep_stdout_mode(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("problem = linear\nsizes = 10\n")
        assert main(["sweep", "--plan", str(plan)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("problem,") and len(lines) == 2

    def test_sweep_bad_plan_exit_code(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("problem = linear\nsizes = 10\ncolour = red\n")
        assert main(["sweep", "--plan", str(plan)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_verify_trace_ok(self, tmp_path):
        report = traced_report()
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        assert main(["verify-trace", str(path)]) == 0

    def test_verify_trace_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["verify-trace", str(path)]) == 2

    def test_verify_trace_violation_exit_code(self, tmp_path, capsys):
        path = synthetic_trace(tmp_path / "bad.json", lipschitz=1e-9)
        assert main(["verify-trace", path]) == 3
        assert "checked      1 of 1 accepted" in capsys.readouterr().out

    def test_verify_trace_disagreement_exit_code(self, tmp_path, capsys):
        # An accepted sketch that fails the stability hypothesis: the guard
        # and the verifier disagree, whatever the bound says.
        path = synthetic_trace(tmp_path / "unchecked.json",
                                     lipschitz=1e9)
        assert main(["verify-trace", path]) == 3
        out = capsys.readouterr().out
        assert "checked      0 of 1 accepted" in out
        assert "fails the stability hypothesis" in out
