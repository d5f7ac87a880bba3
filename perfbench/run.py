"""Outside-in benchmark of `aap.solver.solve`.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `perfbench/workloads.py`, or ``all`` to run
each of them in turn. Each workload runs in its own child process, started
with one BLAS and OpenMP thread. The seed goes to the solver as
``SolverConfig.rng_seed``. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics. Both check every solve's output.

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, where
``metrics`` holds the metrics `BENCHMARK.json` lists for the mode. The exit
code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import THREAD_VARS, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Measure one workload in a child process and return its result."""
    if not (ROOT / "src" / "aap" / "__init__.py").is_file():
        raise BenchmarkError(f"no aap package under {ROOT / 'src'}")
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [
        sys.executable, "-m", "perfbench.measure",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def print_report(result: dict):
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}"
          f" solves={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}"
              + (f"  {json.dumps(extra)}" if extra else ""))
    print("  cases: " + json.dumps(result["cases"]))
    print("  environment: " + json.dumps(result["environment"]))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Solve benchmark for aap.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result = run_child(workload, args.seed, args.seconds, args.trace)
            print_report(result)
            missing = [n for n in wanted if n not in result["metrics"]]
            if result["failures"] or missing:
                line["correct"] = False
            if missing:
                print(f"  MISSING metrics {missing}")
            line["attempted"] += result["attempted"]
            line["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{workload}."
            for n in wanted:
                if n in result["metrics"]:
                    m = result["metrics"][n]
                    line["metrics"][prefix + n] = {"value": m["value"], "unit": m["unit"]}
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
