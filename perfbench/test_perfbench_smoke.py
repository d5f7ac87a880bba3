"""Smoke test of the benchmark at the smallest sizes; asserts no timings."""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics that the detailed report prints but the result line does not.
REPORT_ONLY = {"failed_frac": "ratio"}
TRACE_ONLY = {"trace_write_s": "s", "trace_verify_s": "s", "trace_mb": "MB"}


def tiny(name):
    return tuple(dataclasses.replace(c, size=9) for c in WORKLOADS[name])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def results(request, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    cases = tiny(request.param)
    return cases, {
        trace: measure.measure(request.param, cases, 3, 0, trace, out)
        for trace in (False, True)
    }


def test_every_metric_printed_with_unit(results, capsys):
    cases, by_mode = results
    for trace, result in by_mode.items():
        assert result["failures"] == [] and result["failed"] == 0
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        spec.update(REPORT_ONLY)
        if not trace and any(c.replay for c in cases):
            spec.update(TRACE_ONLY)
        run.print_report(result)
        printed = capsys.readouterr().out.splitlines()
        for name, unit in spec.items():
            assert result["metrics"][name]["unit"] == unit
            assert any(line.split()[:1] == [name] and line.split()[2] == unit
                       for line in printed), name


def test_environment_block(results):
    _, by_mode = results
    env = by_mode[False]["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1
    for key in ("thread_vars", "numpy", "scipy", "blas", "cpu_model", "caches"):
        assert key in env


def test_traced_run_counts_repeat(results, tmp_path):
    cases, by_mode = results
    again = measure.measure("again", cases, 3, 0, True, str(tmp_path))
    first = by_mode[True]["metrics"]
    for name, m in again["metrics"].items():
        if m["unit"] in ("count", "flop", "byte"):
            assert m["value"] == first[name]["value"], name


@pytest.mark.parametrize("problem", ["saddle", "plaplace", "bidomain"])
def test_output_check_catches_corrupted_state(problem, tmp_path):
    case = next(c for cases in map(tiny, WORKLOADS) for c in cases
                if c.problem == problem)
    built = measure.aap.problems.build_problem(case.problem, case.size)
    direct = measure.direct_solution(built)
    good = measure.run_case(case, built, direct, 0, str(tmp_path))
    assert good.failures == []
    report = dataclasses.replace(good.report, final_state=good.report.final_state.copy())
    report.final_state[::2] += 1e-2 * (1.0 + np.abs(report.final_state[::2]))
    assert measure.check_solve(built, report, direct)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
