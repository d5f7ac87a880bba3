"""Fixtures shared by more than one test module."""
import json
import os
import subprocess
import sys

import pytest


@pytest.fixture(scope="session")
def benchmark_solves():
    """`test_solver.benchmark_solve` of each of criterion 10's cases, keyed
    by `test_solver.pin_key` in `test_acceptance.BENCHMARK_CASES` order.

    Saddle-65's iterates depend on the number of BLAS threads, so the
    solves run once per session in a child with one, as the benchmark
    runs them.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = ("import json\n"
            "from test_acceptance import BENCHMARK_CASES\n"
            "from test_solver import benchmark_solve, pin_key\n"
            "print(json.dumps({pin_key(c): benchmark_solve(c) "
            "for c in BENCHMARK_CASES}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)
