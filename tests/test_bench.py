"""Plan loading, the experiment driver, traces, the verifier and the CLI."""
import contextlib
import io
import json
import os
import re
import warnings
import zipfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aap import bench, lsq, problems
from aap.bench import (
    ExperimentPlan,
    ParseError,
    RunRecord,
    build_meta,
    load_plan,
    load_trace,
    run_experiment,
    verify_theorem_trace,
    write_result,
    write_trace,
    _read_trace,
    _save_trace,
)
from aap.cli import main
from aap.fixed_point import NumericalBreakdown
from aap.problems import MAX_SIZE, PROBLEM_NAMES, build_problem
from aap.sketching import Adaptivity, sketch_size
from aap.solver import SolverConfig, solve


def plan_json(**values) -> bytes:
    """The bytes of a JSON plan with these keys."""
    return json.dumps(values).encode()


class TestParsePlan:
    def test_minimal(self):
        plan = load_plan(b'{"problem": "linear", "sizes": [10, 20]}')
        assert plan.problem == "linear"
        assert plan.sizes == (10, 20)
        assert plan.masks == ("none",)
        assert plan.adaptivities == ("none",)
        assert plan.alternations == (1,)
        assert plan.repetitions == 1

    def test_full(self):
        text = b"""
        {
          "problem": "saddle",
          "sizes": [9, 17],
          "masks": ["none", "pressure"],
          "adaptivities": ["none", "sub-pow", "rand-const"],
          "alternations": [1, 2, 3, 4],
          "sketch": 25,
          "window": 12,
          "tol": 1e-8,
          "max_iterations": 500,
          "repetitions": 2,
          "seed": 7,
          "best": true,
          "out": "/tmp/result.json",
          "traces": null
        }
        """
        plan = load_plan(text)
        assert plan.masks == ("none", "pressure")
        assert plan.adaptivities == (
            "none", "subselect-power", "randomized-constant"
        )
        assert plan.alternations == (1, 2, 3, 4)
        assert plan.window == 12 and plan.seed == 7 and plan.best
        assert plan.traces is None
        # A float field takes a JSON integer and keeps a float.
        assert type(plan.sketch) is float and plan.sketch == 25.0

    def test_readme_plan_loads(self):
        # The README's one fenced json block, its plan example, is a valid
        # plan, so the documented format cannot drift from the loader.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        [block] = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
        plan = load_plan(block.encode())
        assert plan.problem == "saddle" and plan.masks == ("none", "pressure")

    def test_unknown_key_rejected(self):
        # The alias "adapt" is gone: a plan key is a field name.
        for key in ("colour", "workers", "adapt"):
            with pytest.raises(ParseError, match=f"unknown key '{key}'"):
                load_plan(plan_json(problem="linear", sizes=[4], **{key: 2}))

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key 'problem'"):
            load_plan(b'{"problem": "linear", "problem": "saddle", '
                      b'"sizes": [4]}')

    def test_missing_required_keys(self):
        with pytest.raises(ParseError, match="missing 'sizes'"):
            load_plan(plan_json(problem="linear"))
        with pytest.raises(ParseError, match="missing 'problem'"):
            load_plan(plan_json(sizes=[4]))

    def test_bad_value_reports_line(self):
        # Malformed JSON reports its line and column; a value of the wrong
        # JSON type names its key. A bool is not a number here.
        with pytest.raises(ParseError, match="line 2 column 11"):
            load_plan(b'{"problem": "linear",\n "sizes": ten}')
        for key, value in (("sizes", "ten"), ("sizes", [4, "5"]),
                           ("sizes", 4), ("sizes", [True]), ("seed", False),
                           ("sketch", True), ("best", 1), ("masks", "none"),
                           ("window", 2.0), ("out", 3)):
            values = {"problem": "linear", "sizes": [4], key: value}
            with pytest.raises(ParseError, match=f"^{key}: expected"):
                load_plan(plan_json(**values))
        with pytest.raises(ParseError, match="sketch: "):
            load_plan(b'{"problem": "linear", "sizes": [4], "sketch": 1'
                      + b"0" * 400 + b"}")

    def test_missing_equals(self):
        # The JSON counterpart of a line without "=": a key without ":".
        with pytest.raises(ParseError, match="line 1 column 12"):
            load_plan(b'{"problem" "linear"}')

    def test_not_a_plan_object(self):
        for data in (b"[]", b'"linear"', b"null", b"", b"{} {}"):
            with pytest.raises(ParseError):
                load_plan(data)
        with pytest.raises(ParseError, match="utf-8"):
            load_plan(b'{"problem": "linear", "sizes": [4\xff]}')
        with pytest.raises(ParseError, match="BOM"):
            load_plan(b"\xef\xbb\xbf" + plan_json(problem="linear", sizes=[4]))
        with pytest.raises(ParseError):
            load_plan(b"[" * 100_000 + b"]" * 100_000)

    def test_traces_default_next_to_table(self):
        plan = load_plan(plan_json(problem="linear", sizes=[4],
                                   out="/tmp/t.json"))
        assert plan.traces == "/tmp/t.json.traces"
        bare = load_plan(plan_json(problem="linear", sizes=[4]))
        assert bare.traces is None
        skipped = load_plan(plan_json(problem="linear", sizes=[4],
                                      out="/tmp/t.json", traces=None))
        assert skipped.traces is None

    def test_adapt_aliases(self):
        # A plan takes short and full names and keeps the full ones.
        plan = load_plan(plan_json(
            problem="linear", sizes=[4],
            adaptivities=["sub-pow", "rand-const", "none", "subselect-power"]))
        assert plan.adaptivities == ("subselect-power", "randomized-constant",
                                     "none", "subselect-power")
        with pytest.raises(ValueError):
            Adaptivity("sub-geo")
        with pytest.raises(ParseError, match="sub-geo"):
            load_plan(plan_json(problem="linear", sizes=[4],
                                adaptivities=["sub-geo"]))

    def test_plan_invariants(self):
        with pytest.raises(ParseError):
            ExperimentPlan(problem="linear", sizes=())
        with pytest.raises(ParseError):
            ExperimentPlan(problem="linear", sizes=(4,), repetitions=0)
        with pytest.raises(ParseError):
            load_plan(plan_json(problem="linear", sizes=[]))
        # Every cell must make a valid SolverConfig.
        with pytest.raises(ParseError, match="sketch_percent"):
            ExperimentPlan(problem="linear", sizes=(4,), sketch=150.0)
        with pytest.raises(ParseError, match="alternation"):
            ExperimentPlan(problem="linear", sizes=(4,), alternations=(1, 0))
        for tol in (b"Infinity", b"NaN"):
            with pytest.raises(ParseError, match="rel_tolerance"):
                load_plan(b'{"problem": "linear", "sizes": [4], "tol": '
                          + tol + b"}")
        # A negative seed once made a failed row of every cell.
        with pytest.raises(ParseError, match="rng_seed"):
            load_plan(plan_json(problem="saddle", sizes=[9], seed=-1))
        # The problem name is checked when the plan is built, not left to
        # fail each cell as a row.
        with pytest.raises(ParseError, match="unknown problem 'sadle'"):
            ExperimentPlan(problem="sadle", sizes=(9,))
        with pytest.raises(ParseError, match="unknown problem"):
            load_plan(plan_json(problem="sadle", sizes=[9]))

    @pytest.mark.parametrize("key", ["masks", "adaptivities", "alternations"])
    def test_empty_config_matrix_rejected(self, key):
        with pytest.raises(ParseError, match="plan config matrix is empty"):
            ExperimentPlan(problem="linear", sizes=(4,), **{key: ()})
        with pytest.raises(ParseError, match="plan config matrix is empty"):
            load_plan(plan_json(problem="linear", sizes=[4], **{key: []}))


# Any JSON document: scalars, lists and objects, some with plan keys.
_PLAN_KEYS = st.sampled_from([f.name for f in fields(ExperimentPlan)])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(["linear", "saddle", "sub-pow"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_PLAN_KEYS | st.text(max_size=8), inner, max_size=6),
    max_leaves=20,
)


class TestLoadPlanProperties:
    """`load_plan` reads outside input: whatever it is given, it returns
    an ExperimentPlan or raises ParseError, never anything else."""

    @staticmethod
    def _load(data: bytes):
        try:
            assert isinstance(load_plan(data), ExperimentPlan)
        except ParseError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries(
        {"problem": st.sampled_from([*PROBLEM_NAMES, "sadle"]),
         "sizes": st.lists(st.integers(-1, 65), max_size=3)},
        optional={f.name: _JSON_VALUES | st.integers(-1, 65)
                  | st.lists(st.integers(-1, 4), max_size=3)
                  for f in fields(ExperimentPlan)
                  if f.name not in ("problem", "sizes")}))
    def test_any_plan_object(self, values):
        self._load(json.dumps(values).encode())

    @settings(max_examples=100, deadline=None)
    @given(_JSON_VALUES)
    def test_any_json_value(self, value):
        self._load(json.dumps(value).encode())

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=64) | _JSON_VALUES.map(
        lambda v: json.dumps(v).encode()[:-1] + b"\xff"))
    def test_any_bytes(self, data):
        self._load(data)


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

    def test_solve_error_propagates(self, monkeypatch):
        # Plans cannot set x0 or omega, so a ValueError out of a built
        # problem's solve is a fault, not a failed row.
        def broken(*args, **kwargs):
            raise ValueError("no column was pushed since the last solve")

        monkeypatch.setattr(bench, "solve", broken)
        plan = ExperimentPlan(problem="linear", sizes=(10,))
        with pytest.raises(ValueError, match="no column was pushed"):
            run_experiment(plan)

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
                key=lambda r: min(r.wall_times_seconds),
            )
            assert marked[0] is fastest

    def test_code_built_plan_takes_aliases(self):
        plan = ExperimentPlan(problem="saddle", sizes=(9,),
                              masks=("pressure",), adaptivities=("sub-pow",))
        assert plan.adaptivities == ("subselect-power",)
        records = run_experiment(plan)
        assert [r.adaptivity for r in records] == ["subselect-power"]
        assert all(r.converged and r.iterations for r in records)

    def test_traces_written_per_run(self, tmp_path):
        out = tmp_path / "t.json"
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

    def test_each_trace_written_before_next_cell_solves(self, tmp_path,
                                                        monkeypatch):
        # Only one traced report is held at a time: when cell i + 1 makes
        # its traced solve, the traces of cells 0..i are on disk. Each file
        # is the one a direct solve of its cell writes; saddle-9 pressure at
        # p = 2 breaks down and writes its partial trace.
        traces = tmp_path / "traces"
        plan = ExperimentPlan(
            problem="saddle", sizes=(9,), masks=("none", "pressure"),
            adaptivities=("none", "sub-pow"), alternations=(1, 2),
            traces=str(traces),
        )
        on_disk = []

        def spy(problem, config, capture_trace=False):
            if capture_trace:
                on_disk.append(sorted(p.name for p in traces.glob("*.npz")))
            return solve(problem, config, capture_trace=capture_trace)

        monkeypatch.setattr(bench, "solve", spy)
        records = run_experiment(plan)
        names = [f"saddle-9-{r.mask}-{r.adaptivity}-p{r.alternation}.npz"
                 for r in records]
        assert len(on_disk) == len(records) == 8
        assert sorted(p.name for p in traces.iterdir()) == sorted(names)
        for i, seen in enumerate(on_disk):
            assert seen == sorted(names[:i])
        broke = 0
        for rec, name in zip(records, names):
            config = bench._plan_config(plan, rec.mask, rec.adaptivity,
                                        rec.alternation)
            try:
                direct = solve(build_problem("saddle", 9), config,
                               capture_trace=True)
            except NumericalBreakdown as exc:
                direct = exc.report
                broke += 1
                assert not rec.converged and rec.wall_times_seconds == []
            assert rec.iterations == direct.iterations
            write_trace(direct, str(tmp_path / "direct.npz"))
            assert ((traces / name).read_bytes()
                    == (tmp_path / "direct.npz").read_bytes())
        assert broke == 2

    @pytest.mark.parametrize("traces", [True, False])
    def test_timed_solves_run_untraced(self, tmp_path, monkeypatch, traces):
        # A plan that keeps traces solves each cell once traced, then times
        # its repetitions untraced. Saddle-9 pressure at p = 1 converges
        # and at p = 2 breaks down; a breakdown skips the timed solves, or,
        # without traces, ends them at the first.
        flags = []

        def spy(problem, config, capture_trace=False):
            flags.append((config.alternation, capture_trace))
            return solve(problem, config, capture_trace=capture_trace)

        monkeypatch.setattr(bench, "solve", spy)
        plan = ExperimentPlan(
            problem="saddle", sizes=(9,), masks=("pressure",),
            alternations=(1, 2), repetitions=2,
            traces=str(tmp_path / "traces") if traces else None,
        )
        records = run_experiment(plan)
        assert [r.converged for r in records] == [True, False]
        if traces:
            assert flags == [(1, True), (1, False), (1, False), (2, True)]
        else:
            assert flags == [(1, False), (1, False), (2, False)]


class TestTableRoundTrip:
    def test_records_survive_exactly(self, tmp_path, monkeypatch):
        # A result's rows give back the records exactly, each wall time
        # included, and its meta records the environment.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        records = [
            RunRecord(
                problem="saddle", size=9, mask="pressure",
                adaptivity="subselect-power", sketch=30.0, window=10,
                alternation=2, tol=1e-6, seed=3, iterations=48,
                converged=True,
                wall_times_seconds=[0.012345678901234567, 0.1, 5e-324],
                best=True,
            ),
            RunRecord(
                problem="saddle", size=100, mask="none", adaptivity="none",
                sketch=12.5, window=None, alternation=1, tol=1e-8, seed=0,
                iterations=None, converged=False, wall_times_seconds=[],
            ),
        ]
        path = tmp_path / "result.json"
        write_result(records, build_meta({"seed": 3}), str(path))
        doc = json.loads(path.read_text())
        assert [RunRecord(**row) for row in doc["rows"]] == records
        assert doc["rows"][0] == asdict(records[0])
        meta = doc["meta"]
        assert meta["package"] == "aap" and meta["seed"] == 3
        assert meta["cpu_count"] == os.cpu_count() and meta["scipy"]
        assert (meta["OPENBLAS_NUM_THREADS"], meta["OMP_NUM_THREADS"],
                meta["MKL_NUM_THREADS"]) == (None, None, "3")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]


def traced_report(adaptivity="subselect-power", mask="pressure", seed=3):
    problem = build_problem("saddle", 17)
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

    def test_residual_is_the_logged_column(self, tmp_path):
        path = tmp_path / "trace.json"
        report = traced_report()
        write_trace(report, str(path))
        doc = load_trace(str(path))
        trace = doc["trace"]
        for rec in doc["steps"]:
            residual = trace.residual(rec)
            assert residual is trace.residuals[rec.iteration]
            assert residual.tobytes() == report.trace.residual(rec).tobytes()

    def test_writes_exactly_the_given_path(self, tmp_path):
        write_trace(traced_report(), str(tmp_path / "x.json"))
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_requires_captured_trace(self, tmp_path):
        report = solve(build_problem("linear", 10))
        with pytest.raises(ValueError):
            write_trace(report, str(tmp_path / "t.json"))

    def test_size_grows_with_log_not_windows(self, tmp_path):
        # One restricted residual is stored per iteration, and the windows
        # follow from it: a file that stored the window per step would take
        # about 8 * l1 * m bytes a step.
        problem = build_problem("saddle", 17)
        config = SolverConfig(static_mask="pressure",
                              adaptivity="subselect-power")
        report = solve(problem, config, capture_trace=True)
        path = tmp_path / "trace.npz"
        write_trace(report, str(path))
        bound = (8 * report.l1 * (report.iterations + 1)
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
        # Format 3 kept per-step lengths that later formats derive from the
        # records; it is not read.
        for fmt in ("aap-trace-3", "aap-trace-9"):
            rewrite(written, lambda h, a: h.update(format=fmt))
            assert_rejected(written)

    def test_v4_archive_rejected(self, written):
        # Format 4 stored the window increments and, per step, a copy of the
        # restricted residual, with l1 in the header; it is not read.
        def to_v4(header, arrays):
            residuals = arrays.pop("residuals")
            header.update(format="aap-trace-4", l1=residuals.shape[0])
            arrays["increments"] = np.diff(residuals, axis=1)
            arrays["f_restricted"] = residuals[:, arrays["iteration"]].T
        rewrite(written, to_v4)
        assert_rejected(written)

    @pytest.mark.parametrize("value", [[], {}, None, 3],
                             ids=["list", "dict", "null", "number"])
    def test_adaptivity_that_is_no_name_rejected(self, written, capsys, value):
        # An unhashable adaptivity once escaped as a TypeError traceback; a
        # value that is no string is now refused with the header's types.
        rewrite(written, lambda h, a: h.update(adaptivity=value))
        with pytest.raises(ParseError, match="'adaptivity' is"):
            verify_theorem_trace(str(written))
        assert main(["verify-trace", str(written)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_adaptivity_that_names_no_strategy_rejected(self, written, capsys):
        # A string that names no strategy once loaded, and only the
        # verifier refused it.
        rewrite(written, lambda h, a: h.update(adaptivity="foo"))
        with pytest.raises(ParseError, match="unknown adaptivity 'foo'"):
            load_trace(str(written))
        assert main(["verify-trace", str(written)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_field_rejected(self, written):
        rewrite(written, lambda h, a: h.pop("sketch_percent"))
        assert_rejected(written)

    @pytest.mark.parametrize("key, value", [
        ("converged", "no"), ("converged", 1), ("converged", None),
        ("problem", None), ("problem", 3),
        ("sketch_percent", "30"), ("sketch_percent", True),
        ("sketch_percent", None),
        ("iterations", -1), ("iterations", True), ("iterations", 24.0),
        ("iterations", "24"),
    ])
    def test_header_field_of_wrong_type_rejected(self, written, capsys, key,
                                                 value):
        # "converged": "no" once verified as "converged at iteration ...",
        # and a null problem loaded.
        rewrite(written, lambda h, a: h.update({key: value}))
        with pytest.raises(ParseError, match=f"'{key}' is"):
            load_trace(str(written))
        assert main(["verify-trace", str(written)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("header, message", [
        (None, "trace has no header"),
        (b"{not json", "trace header is not JSON"),
        (b"[1, 2]", "trace header is not a JSON object"),
    ])
    def test_bad_header_rejected(self, written, header, message):
        _, arrays = _read_trace(str(written))
        if header is not None:
            arrays["header"] = np.frombuffer(header, dtype=np.uint8)
        with open(written, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ParseError, match=message):
            _read_trace(str(written))
        assert_rejected(written)

    def test_integral_sketch_percent_loads(self, written):
        # JSON writes 30.0 as 30.0, but a header that says 30 means the same.
        before = verify_theorem_trace(str(written))
        rewrite(written, lambda h, a: h.update(sketch_percent=30))
        after = verify_theorem_trace(str(written))
        assert len(after.checked) == len(before.checked) > 0

    @pytest.mark.parametrize("change", [lambda h: h[:-2],
                                        lambda h: np.append(h, 1.0)],
                             ids=["short", "long"])
    def test_history_must_fit_iterations(self, written, change):
        # A history holds iterations + 1 entries, or iterations after a
        # breakdown; two fewer or one more is malformed.
        def edit(header, arrays):
            arrays["residual_history"] = change(arrays["residual_history"])
        rewrite(written, edit)
        assert_rejected(written)

    def test_unknown_reason_rejected(self, written):
        def edit(header, arrays):
            arrays["reason"][0] = "approved"
        rewrite(written, edit)
        assert_rejected(written)

    @pytest.mark.parametrize(
        "name", ["residuals", "dx_norms", "mask", "alpha"]
    )
    def test_missing_array_rejected(self, written, name):
        rewrite(written, lambda h, a: a.pop(name))
        assert_rejected(written)

    @pytest.mark.parametrize("name", ["alpha", "r_factor", "mask"])
    def test_step_lengths_past_array_rejected(self, written, name):
        # The records fix every step's pieces, so a flat array one entry
        # longer or shorter than they need does not add up.
        original = written.read_bytes()
        for resize in (lambda a: a[:-1], lambda a: np.append(a, a[-1:])):
            written.write_bytes(original)
            rewrite(written, lambda h, a: a.update({name: resize(a[name])}))
            assert_rejected(written)

    def test_unsketched_step_without_factor_rejected(self, written):
        # Every step that mixed keeps its c x c factor; dropping the factor
        # of an unsketched step leaves the file one piece short.
        def edit(header, arrays):
            start = 0
            for reason, c in zip(arrays["reason"], arrays["columns"]):
                if reason not in ("accepted", "no-factor"):
                    break
                start += 0 if reason == "no-factor" else c * c
            arrays["r_factor"] = np.delete(arrays["r_factor"],
                                           np.arange(start, start + c * c))
        rewrite(written, edit)
        assert_rejected(written)

    def test_sketch_rows_on_unaccepted_step_rejected(self, written):
        # Only an accepted step has sketch rows.
        def edit(header, arrays):
            i = next(i for i, reason in enumerate(arrays["reason"])
                     if reason not in ("accepted", "no-factor"))
            accepted_before = int(np.sum(arrays["reason"][:i] == "accepted"))
            rows = sketch_size(header["sketch_percent"],
                               arrays["residuals"].shape[0])
            arrays["mask"] = np.insert(arrays["mask"], accepted_before * rows,
                                       np.arange(rows))
        rewrite(written, edit)
        assert_rejected(written)

    def test_window_past_log_rejected(self, written):
        def edit(header, arrays):
            arrays["residuals"] = arrays["residuals"][:, :-2]
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
            arrays["mask"][-1] = arrays["residuals"].shape[0]
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


def resketch_first_accepted(source, out, choose):
    """Write to ``out`` the archive ``source`` with its first accepted
    step's rows replaced by ``choose(rows, residual)``, and with the alpha
    and R the least squares gives on them, so that the stored factor still
    fits. Returns that step's record."""
    doc = load_trace(str(source))
    steps, trace = doc["steps"], doc["trace"]
    i = next(i for i, rec in enumerate(steps) if rec.accepted)
    rec = steps[i]
    residual = trace.residual(rec)
    rows = choose(trace.mask[i].copy(), residual)
    alpha, r_factor, _ = lsq.qr_masked_solve(
        trace.window(rec)[0], residual, rows, rec.columns)
    solved = [r for r in steps[:i] if not r.fallback]
    a0 = sum(r.columns for r in solved)
    r0 = sum(r.columns ** 2 for r in solved)
    header, arrays = _read_trace(str(source))
    arrays["mask"][: rows.size] = rows
    arrays["alpha"][a0:a0 + alpha.size] = alpha
    arrays["r_factor"][r0:r0 + r_factor.size] = r_factor.ravel()
    _save_trace(str(out), header, arrays)
    return rec


# A trace archive an earlier build wrote (test_archive_of_an_earlier_build_loads).
EARLIER_ARCHIVE = os.path.join(os.path.dirname(__file__), "data",
                               "plaplace-9-rand-pow-s1.npz")


# Every array of an aap-trace-5 archive.
ARCHIVE_ARRAYS = ("residual_history", "residuals", "dx_norms", "alpha",
                  "r_factor", "mask", "iteration", "columns", "lipschitz",
                  "reason", "sigma_min", "eps_rhs")


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """(path, header, arrays) of a trace of a sketched saddle solve, with a
    path to write edited copies to."""
    path = tmp_path_factory.mktemp("archive") / "trace.npz"
    write_trace(traced_report(), str(path))
    return (path, *_read_trace(str(path)))


class TestArchiveArrays:
    """Every archive array is checked for its dtype kind, its rank and its
    length: a file with any one of them wrong raises ParseError, and
    verify-trace exits 2 with an error line, no traceback and no warning."""

    def test_every_array_is_covered(self, archive):
        _, _, arrays = archive
        assert sorted(arrays) == sorted(ARCHIVE_ARRAYS)
        assert all(a.size for a in arrays.values())

    @pytest.mark.parametrize("name", ARCHIVE_ARRAYS)
    def test_wrong_kind_rejected(self, archive, name):
        # Complex dx_norms and residuals, and a history of strings, once
        # verified ok, the first with numpy's ComplexWarning.
        array = archive[2][name]
        for dtype in (float, np.int64, np.uint8, complex, bool, "U3", "S3"):
            if np.dtype(dtype).kind != array.dtype.kind:
                assert_refused(archive, name, np.full(array.shape, 1, dtype))

    @pytest.mark.parametrize("name", ARCHIVE_ARRAYS)
    def test_wrong_rank_rejected(self, archive, name):
        array = archive[2][name]
        for bad in (array[None], array[..., None], array[0]):
            assert_refused(archive, name, bad)

    @pytest.mark.parametrize("name", ARCHIVE_ARRAYS)
    @settings(max_examples=10, deadline=None)
    @given(length=st.integers(0, 60))
    def test_wrong_length_rejected(self, archive, name, length):
        # The last axis is a residual log's columns; a history may hold
        # iterations + 1 entries, or iterations after a breakdown.
        _, header, arrays = archive
        array = arrays[name]
        allowed = {array.shape[-1]}
        if name == "residual_history":
            allowed = {header["iterations"], header["iterations"] + 1}
        assume(length not in allowed)
        index = np.arange(length) % array.shape[-1]
        assert_refused(archive, name, np.take(array, index, axis=-1))


def assert_refused(archive, name, bad):
    """Write the archive with array ``name`` replaced by ``bad`` and check
    that it is refused without a warning."""
    path, header, arrays = archive
    _save_trace(str(path), header, dict(arrays, **{name: bad}))
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            load_trace(str(path))
        with contextlib.redirect_stderr(err):
            assert main(["verify-trace", str(path)]) == 2
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


def synthetic_trace(path, lipschitz):
    """One accepted, sketched step with a consistent factor and a
    perturbation far above the eta-sum bound; ``lipschitz`` decides whether
    the stability hypothesis holds. The step at iteration 2 mixes over both
    increments of the three-residual log, and its residual is all ones."""
    rng = np.random.default_rng(0)
    l1, c = 6, 2
    steps = rng.standard_normal((l1, c)) * 10.0
    residuals = np.ones((l1, c + 1))
    residuals[:, 1] = 1.0 - steps[:, 1]
    residuals[:, 0] = residuals[:, 1] - steps[:, 0]
    rows = np.array([0, 1, 2])
    increments = np.diff(residuals, axis=1)
    r_factor = np.linalg.qr(increments[rows], mode="reduced")[1]
    header = {
        "format": "aap-trace-5",
        "problem": "synthetic",
        "sketch_percent": 50.0,
        "adaptivity": "subselect-constant",
        "iterations": 3,
        "converged": False,
    }
    arrays = {
        "residual_history": np.ones(4),
        "residuals": residuals,
        "dx_norms": np.array([1e-6, 1e-6]),
        "iteration": np.array([2]),
        "columns": np.array([c]),
        "lipschitz": np.array([lipschitz]),
        "sigma_min": np.array([np.nan]),
        "eps_rhs": np.array([np.nan]),
        "reason": np.array(["accepted"]),
        "alpha": np.array([5.0, -4.0]),
        "r_factor": r_factor.ravel(),
        "mask": rows,
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
        # Zeroing the residual a sketched step mixed at changes its newest
        # window increment, so the stored factor no longer fits the window.
        report = traced_report()
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        sketched = next(rec for rec in report.mask_trace if rec.accepted)

        def edit(header, arrays):
            arrays["residuals"][:, sketched.iteration] = 0.0
        rewrite(path, edit)
        with pytest.raises(ParseError):
            verify_theorem_trace(str(path))

    def test_archive_of_an_earlier_build_loads(self, capsys):
        # Written by an earlier build with `aap run --problem plaplace
        # --size 9 --adapt rand-pow --seed 1 --trace ...`: 24 iterations
        # and two accepted sketches. The format must keep reading it.
        doc = load_trace(EARLIER_ARCHIVE)
        assert doc["iterations"] == 24 and doc["converged"]
        result = verify_theorem_trace(doc)
        assert result.passed and len(result.checked) == 2
        assert main(["verify-trace", EARLIER_ARCHIVE]) == 0
        out = capsys.readouterr().out
        assert "checked      2 of 2 accepted\n" in out
        assert "verdict      ok\n" in out

    def test_coefficients_must_solve_the_least_squares(self, tmp_path, capsys):
        # Each alpha of the earlier build's archive replaced by
        # 1e-3 sign(alpha): every factor still fits its window and both
        # accepted sketches still meet the hypothesis and the bound, but no
        # step's coefficients solve its least squares.
        header, arrays = _read_trace(EARLIER_ARCHIVE)
        arrays["alpha"] = 1e-3 * np.sign(arrays["alpha"])
        path = tmp_path / "t.npz"
        _save_trace(str(path), header, arrays)
        result = verify_theorem_trace(str(path))
        assert len(result.checked) == 2 and result.violations == []
        assert not any(s.alpha_solves for s in result.steps)
        assert main(["verify-trace", str(path)]) == 3
        out = capsys.readouterr().out
        assert "checked      2 of 2 accepted\n" in out
        assert out.count("coefficients do not solve") == len(result.steps)
        assert "verdict      FAIL\n" in out

    @pytest.mark.parametrize("edit", ["duplicated", "unsorted"])
    def test_sketch_rows_must_strictly_increase(self, tmp_path, edit):
        # The stability bound assumes a sketch keeps distinct rows, and the
        # guard only ever keeps them in ascending order. Rewrite the first
        # accepted step's rows with a duplicate (or out of order): the
        # archive is refused, not verified.
        def choose(rows, residual):
            if edit == "duplicated":
                rows[1] = rows[0]
            else:
                rows[[0, 1]] = rows[[1, 0]]
            return rows

        path = tmp_path / "t.npz"
        resketch_first_accepted(EARLIER_ARCHIVE, path, choose)
        assert_rejected(path)

    def test_subselection_keeps_the_residuals_largest_rows(self, tmp_path,
                                                          capsys):
        # A subselection keeps the rows of the largest residual entries.
        # Swap the first accepted step's smallest kept row for the largest
        # row it dropped, still strictly increasing: the factor fits, alpha
        # solves, and the hypothesis and the bound hold, but the rows are
        # not the ones the guard's rule selects.
        def choose(rows, residual):
            dropped = np.setdiff1d(np.arange(residual.size), rows)
            swap = (np.argmin(np.abs(residual[rows])),
                    dropped[np.argmax(np.abs(residual[dropped]))])
            rows[swap[0]] = swap[1]
            return np.sort(rows)

        written = tmp_path / "trace.npz"
        write_trace(traced_report(), str(written))
        assert verify_theorem_trace(str(written)).passed
        path = tmp_path / "t.npz"
        rec = resketch_first_accepted(written, path, choose)
        result = verify_theorem_trace(str(path))
        assert len(result.checked) == len(result.accepted) > 1
        assert result.violations == []
        assert all(s.alpha_solves for s in result.steps)
        assert [s.record.iteration for s in result.steps
                if not s.rows_selected] == [rec.iteration]
        assert main(["verify-trace", str(path)]) == 3
        out = capsys.readouterr().out
        assert f"rows         iteration {rec.iteration}: " in out
        assert "verdict      FAIL\n" in out

    def test_constructed_violation_fails(self, tmp_path):
        # Hypotheses forced true by a tiny Lipschitz estimate, but a
        # perturbation far above the bound.
        path = synthetic_trace(tmp_path / "bad.json", lipschitz=1e-9)
        result = verify_theorem_trace(path)
        assert not result.passed
        step = result.steps[0]
        assert step.hypotheses_satisfied
        assert step.delta > step.bound

    def test_malformed_record_rejected(self, tmp_path):
        # A hand-built document whose step has a window of no integer width:
        # the verifier names the step instead of raising TypeError.
        doc = load_trace(synthetic_trace(tmp_path / "t.npz", lipschitz=1.0))
        doc["steps"][0].columns = "2"
        with pytest.raises(ParseError, match="step 0: malformed record"):
            verify_theorem_trace(doc)

    def test_each_check_holds_its_loaded_record(self, tmp_path):
        # A check keeps the step's record itself, not copies of its fields;
        # it is masked exactly when the record says the sketch was accepted.
        report = traced_report()
        path = tmp_path / "t.npz"
        write_trace(report, str(path))
        doc = load_trace(str(path))
        result = verify_theorem_trace(doc)
        assert [check.record for check in result.steps] == doc["steps"]
        assert doc["steps"] == report.mask_trace
        assert [c.masked for c in result.steps] == [
            rec.accepted for rec in report.mask_trace]
        assert any(c.masked for c in result.steps)

    def test_fallback_steps_pass_vacuously(self, tmp_path):
        report = traced_report()
        assert any(rec.fallback for rec in report.mask_trace)
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        result = verify_theorem_trace(str(path))
        for check in result.steps:
            if check.record.fallback:
                assert check.delta == 0.0 and check.bound_satisfied

    def test_factor_check_survives_overflowing_windows(self, tmp_path):
        # Saddle-17 pressure + sub-pow at p = 2 diverges until its residual
        # norm overflows at iteration 263. On many of its windows the Gram
        # matrix F^T F, or its norm, overflows, so the factor check must
        # scale before it squares: the trace verifies with no RuntimeWarning
        # (an error under pytest), and a doubled factor on such a step is
        # still caught.
        problem = build_problem("saddle", 17)
        config = SolverConfig(static_mask="pressure", alternation=2,
                              adaptivity="subselect-power", rng_seed=1)
        with pytest.raises(NumericalBreakdown) as info:
            solve(problem, config, capture_trace=True)
        report = info.value.report
        assert report.iterations == 263
        path = tmp_path / "t.npz"
        write_trace(report, str(path))
        doc = load_trace(str(path))
        assert verify_theorem_trace(doc).passed

        trace = doc["trace"]

        def overflows(i, rec):
            window = trace.window(rec)[0]
            if trace.mask[i] is not None:
                window = window[trace.mask[i]]
            with np.errstate(over="ignore"):
                return not np.isfinite(np.linalg.norm(window.T @ window))

        i = next(i for i, rec in enumerate(doc["steps"])
                 if not rec.fallback and overflows(i, rec))
        trace.r_factor[i] *= 2.0
        with pytest.raises(ParseError):
            verify_theorem_trace(doc)


def result_rows(path) -> list[RunRecord]:
    """The records of a JSON result file."""
    return [RunRecord(**row) for row in json.loads(Path(path).read_text())["rows"]]


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        trace = tmp_path / "run.npz"
        code = main([
            "run", "--problem", "linear", "--size", "20",
            "--out", str(out), "--trace", str(trace),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged    yes" in printed
        assert "mixing steps filtered\n" in printed
        assert result_rows(out)[0].converged
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

    @pytest.mark.parametrize("problem, size, message", [
        # omega f overflows in the first increments while T(x) is finite.
        ("saddle", 5, "residual norm overflowed at iteration 1"),
        # omega f overflows already in the initial Picard step.
        ("linear", 20, "state has a non-finite entry at index 3"),
    ], ids=["increments", "initial-picard"])
    def test_run_overflowing_relaxation_breaks_down_quietly(
            self, problem, size, message, capsys, recwarn):
        # Only the solver's finiteness checks may report the overflow.
        code = main(["run", "--problem", problem, "--size", str(size),
                     "--omega", "1e308"])
        assert code == 1
        assert capsys.readouterr().err == f"breakdown: {message}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("adapt", ["none", "sub-pow"])
    def test_run_breakdown_exit_code(self, adapt, tmp_path, capsys, recwarn):
        # pytest records warnings instead of printing them, so the stderr
        # check alone would pass vacuously; recwarn sees every warning. The
        # breakdown still prints the partial report's summary and writes
        # the failed row and the partial trace.
        out, trace = tmp_path / "run.json", tmp_path / "run.npz"
        code = main([
            "run", "--problem", "saddle", "--size", "17",
            "--mask", "pressure", "-p", "2", "--adapt", adapt,
            "--out", str(out), "--trace", str(trace),
        ])
        assert code == 1
        printed, err = capsys.readouterr()
        assert "breakdown:" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        [row] = result_rows(out)
        doc = load_trace(str(trace))
        assert not row.converged and row.wall_times_seconds == []
        assert row.iterations == doc["iterations"] == len(doc["residual_history"])
        assert f"iterations   {row.iterations}\n" in printed
        assert "converged    no\n" in printed
        mixing = int(printed.split("mixing")[1].split()[0])
        guard = printed.split("guard")[1].splitlines()[0].split(",")
        assert sum(int(item.split()[1]) for item in guard) == mixing > 0
        assert verify_theorem_trace(doc).passed

    def test_run_times_an_untraced_solve(self, tmp_path, monkeypatch):
        # With --trace, aap run solves once traced and writes that trace,
        # then once untraced; the row's one wall time is the untraced one's.
        calls = []

        def spy(problem, config, capture_trace=False):
            report = solve(problem, config, capture_trace=capture_trace)
            calls.append((capture_trace, report))
            return report

        monkeypatch.setattr(bench, "solve", spy)
        out, trace = tmp_path / "run.json", tmp_path / "run.npz"
        assert main(["run", "--problem", "linear", "--size", "20",
                     "--out", str(out), "--trace", str(trace)]) == 0
        assert [traced for traced, _ in calls] == [True, False]
        [row] = result_rows(out)
        assert row.wall_times_seconds == [calls[1][1].wall_time_seconds]
        write_trace(calls[0][1], str(tmp_path / "direct.npz"))
        assert trace.read_bytes() == (tmp_path / "direct.npz").read_bytes()

    @pytest.mark.parametrize("name, full", [
        ("none", "none"),
        ("subselect-power", "subselect-power"),
        ("subselect-constant", "subselect-constant"),
        ("randomized-power", "randomized-power"),
        ("randomized-constant", "randomized-constant"),
        ("sub-pow", "subselect-power"),
        ("sub-const", "subselect-constant"),
        ("rand-pow", "randomized-power"),
        ("rand-const", "randomized-constant"),
    ])
    def test_adaptivity_spellings_agree(self, name, full, tmp_path,
                                        monkeypatch, capsys):
        # SolverConfig, a plan's adaptivities and aap run --adapt take the
        # same nine names and make the same config from each.
        configs = []

        def spy(problem, config, capture_trace=False):
            configs.append(config)
            return solve(problem, config, capture_trace=capture_trace)

        monkeypatch.setattr(bench, "solve", spy)
        plan = tmp_path / "plan.json"
        plan.write_bytes(plan_json(problem="linear", sizes=[10],
                                   adaptivities=[name]))
        assert main(["sweep", "--plan", str(plan)]) == 0
        assert main(["run", "--problem", "linear", "--size", "10",
                     "--adapt", name]) == 0
        expected = SolverConfig(adaptivity=name)
        assert expected.adaptivity.value == full
        assert configs == [expected, expected]

    @pytest.mark.parametrize("problem, mask, p, run_adapt, plan_adapt", [
        ("plaplace", "none", 1, "randomized-power", "rand-pow"),
        ("saddle", "pressure", 2, "subselect-power", "sub-pow"),
    ], ids=["converged", "breakdown"])
    def test_run_is_a_one_cell_sweep(self, tmp_path, capsys, problem, mask,
                                     p, run_adapt, plan_adapt):
        # aap run and a one-cell plan with the same settings write the same
        # document shape and the same row but for the wall times, and
        # byte-identical traces, also after a breakdown (saddle-9 pressure
        # at p = 2). Each makes the directory its trace goes in.
        run_out, run_trace = tmp_path / "run.json", tmp_path / "run" / "t.npz"
        code = main([
            "run", "--problem", problem, "--size", "9", "--mask", mask,
            "-p", str(p), "--adapt", run_adapt, "--seed", "2",
            "--out", str(run_out), "--trace", str(run_trace),
        ])
        sweep_out, plan = tmp_path / "sweep.json", tmp_path / "plan.json"
        plan.write_bytes(plan_json(
            problem=problem, sizes=[9], masks=[mask],
            adaptivities=[plan_adapt], alternations=[p], seed=2,
            out=str(sweep_out)))
        assert main(["sweep", "--plan", str(plan)]) == 0
        docs = [json.loads(path.read_text()) for path in (run_out, sweep_out)]
        assert [list(doc) for doc in docs] == [["meta", "rows"]] * 2
        assert docs[0]["meta"].keys() <= docs[1]["meta"].keys()
        [run_row] = result_rows(run_out)
        [sweep_row] = result_rows(sweep_out)
        assert code == (0 if run_row.converged else 1)
        assert run_row.converged == (problem == "plaplace")
        for row in (run_row, sweep_row):
            assert len(row.wall_times_seconds) == row.converged
            row.wall_times_seconds = []
        assert run_row == sweep_row
        cell = (tmp_path / "sweep.json.traces"
                / f"{problem}-9-{mask}-{run_adapt}-p{p}.npz")
        assert run_trace.read_bytes() == cell.read_bytes()

    def test_run_nonconvergence_exit_code(self, tmp_path):
        code = main([
            "run", "--problem", "linear", "--size", "20",
            "--max-iterations", "1",
        ])
        assert code == 1

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_size_above_cap_exit_code(self, name, capsys, monkeypatch):
        # Past the cap, `aap run` exits 2 and a sweep cell fails, before a
        # builder runs: they are replaced here, so nothing is allocated.
        for builder in ("make_linear", "make_saddle_point", "make_p_laplacian",
                        "make_bidomain_toy"):
            monkeypatch.setattr(problems, builder, None)
        size = MAX_SIZE[name] + 1
        assert main(["run", "--problem", name, "--size", str(size)]) == 2
        assert capsys.readouterr().err == (
            f"error: {name} size limited to {MAX_SIZE[name]}, got {size}\n")
        [row] = run_experiment(ExperimentPlan(problem=name, sizes=(size,)))
        assert not row.converged and row.iterations is None

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
        capsys.readouterr()
        assert main([
            "run", "--problem", "saddle", "--size", "9",
            "--mask", "temperature",
        ]) == 2
        # The field lookup's KeyError prints its message, not its repr.
        assert capsys.readouterr().err.startswith(
            "error: unknown field 'temperature'; problem 'saddle' has fields")
        # numpy's default_rng once refused a negative seed in a traceback.
        assert main(["run", "--problem", "saddle", "--size", "9",
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: rng_seed must be >= 0\n"

    @pytest.mark.parametrize("flag", ["--omega", "--tol"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_run_rejects_non_finite_knobs(self, capsys, flag, value):
        # --omega inf once broke down on a non-finite state, and --tol inf
        # reported convergence after one iteration.
        assert main(["run", "--problem", "linear", "--size", "4",
                     flag, value]) == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_run_out_directory_exit_code(self, tmp_path, capsys):
        # --out names a file; an existing directory there cannot be written.
        assert main(["run", "--problem", "linear", "--size", "5",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {str(tmp_path)!r}\n"

    def test_writers_make_their_directories(self, tmp_path, capsys):
        # A result in a missing directory once crashed after every solve
        # had run; each writer makes its own directory.
        out, trace = tmp_path / "a" / "run.json", tmp_path / "b" / "run.npz"
        assert main(["run", "--problem", "linear", "--size", "5",
                     "--out", str(out), "--trace", str(trace)]) == 0
        assert result_rows(out)[0].converged
        assert load_trace(str(trace))["problem"] == "linear"
        sweep_out = tmp_path / "c" / "sweep.json"
        plan = tmp_path / "plan.json"
        plan.write_bytes(plan_json(problem="linear", sizes=[5],
                                   out=str(sweep_out), traces=None))
        assert main(["sweep", "--plan", str(plan)]) == 0
        assert len(result_rows(sweep_out)) == 1

    def test_unwritable_path_exit_code(self, tmp_path, capsys, monkeypatch):
        # A path under a file cannot be written: an error line and exit 2,
        # not a traceback, and before anything is solved.
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the output paths")

        monkeypatch.setattr(bench, "solve", no_solve)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for flag in ("--out", "--trace"):
            assert main(["run", "--problem", "linear", "--size", "5",
                         flag, str(blocker / "x")]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        plan = tmp_path / "plan.json"
        for out, traces in ((blocker / "s.json", None),
                            (blocker / "s.json", blocker / "traces"),
                            (tmp_path / "s.json", blocker / "traces"),
                            (tmp_path / "s.json", blocker)):
            plan.write_bytes(plan_json(
                problem="linear", sizes=[5], out=str(out),
                traces=None if traces is None else str(traces)))
            assert main(["sweep", "--plan", str(plan)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "s.json").exists()

    def test_sweep_runs_plan(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        plan = tmp_path / "plan.json"
        plan.write_bytes(plan_json(problem="linear", sizes=[10, 15],
                                   alternations=[1, 2], repetitions=3,
                                   out=str(out), traces=None))
        assert main(["sweep", "--plan", str(plan)]) == 0
        rows = result_rows(out)
        assert len(rows) == 4
        assert all(len(r.wall_times_seconds) == 3 for r in rows)
        assert capsys.readouterr().out == f"4 rows (4 converged) -> {out}\n"

    def test_sweep_stdout_mode(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_bytes(plan_json(problem="linear", sizes=[10]))
        assert main(["sweep", "--plan", str(plan)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["plan"] == str(plan) and len(doc["rows"]) == 1

    def test_sweep_bad_plan_exit_code(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"problem": "linear",\n "sizes": [10],\n colour}')
        assert main(["sweep", "--plan", str(plan)]) == 2
        assert "line 3" in capsys.readouterr().err
        plan.write_bytes(plan_json(problem="linear", sizes=[10], colour="red"))
        assert main(["sweep", "--plan", str(plan)]) == 2
        assert capsys.readouterr().err == (
            f"error: {plan}: unknown key 'colour'\n")

    def test_sweep_plan_not_utf8_exit_code(self, tmp_path, capsys):
        # Invalid UTF-8 once ended in a UnicodeDecodeError traceback.
        plan = tmp_path / "plan.json"
        plan.write_bytes(b'{"problem": "linear", "sizes": [4]}\xff')
        assert main(["sweep", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    def test_sweep_unknown_names_exit_code(self, tmp_path, capsys):
        # A misspelt problem or mask is an error in the plan: exit 2 with
        # the message, and no result.
        out = tmp_path / "sweep.json"
        plan = tmp_path / "plan.json"
        plan.write_bytes(plan_json(problem="sadle", sizes=[9], out=str(out)))
        assert main(["sweep", "--plan", str(plan)]) == 2
        assert "unknown problem 'sadle'" in capsys.readouterr().err
        plan.write_bytes(plan_json(problem="saddle", sizes=[9],
                                   masks=["presure"], out=str(out)))
        assert main(["sweep", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "unknown field 'presure'" in err and "'pressure'" in err
        assert not out.exists()

    def test_sweep_checks_masks_before_solving(self, tmp_path, capsys,
                                               monkeypatch):
        # As aap run does, a sweep looks every mask up before its first
        # cell solves: no solve, no result and no traces directory.
        calls = []
        monkeypatch.setattr(bench, "solve", lambda *a, **k: calls.append(a))
        out = tmp_path / "t.json"
        plan = tmp_path / "plan.json"
        plan.write_bytes(plan_json(problem="saddle", sizes=[9],
                                   masks=["none", "presure"], out=str(out)))
        assert main(["sweep", "--plan", str(plan)]) == 2
        assert "unknown field 'presure'" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()
        assert not (tmp_path / "t.json.traces").exists()

    def test_verify_trace_ok(self, tmp_path):
        report = traced_report()
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        assert main(["verify-trace", str(path)]) == 0

    @pytest.mark.parametrize("flags, ended", [
        (["--problem", "linear", "--size", "20"], "converged at iteration {}"),
        (["--problem", "linear", "--size", "20", "--max-iterations", "3"],
         "stopped unconverged after {} iterations"),
        (["--problem", "saddle", "--size", "9", "--mask", "pressure",
          "-p", "2"], "broke down at iteration {}"),
    ], ids=["converged", "unconverged", "breakdown"])
    def test_verify_trace_says_how_the_solve_ended(self, tmp_path, capsys,
                                                   flags, ended):
        path = tmp_path / "t.npz"
        main(["run", *flags, "--trace", str(path)])
        capsys.readouterr()
        assert main(["verify-trace", str(path)]) == 0
        k = load_trace(str(path))["iterations"]
        assert f"ended        {ended.format(k)}\n" in capsys.readouterr().out

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
