"""Span recording for the traced pass.

The tracer replaces module attributes with wrappers that record one span
per call: its name, start and end (``perf_counter_ns``), the index of the
enclosing span and the solve id the benchmark set. Each name is wrapped
where its caller looks it up (``aap.solver.evaluate_residual``, not
``aap.fixed_point.evaluate_residual``), so the package runs unchanged and
the untraced pass pays nothing. Spans stay in memory until the benchmark
writes them out at the end.

Span names carry the module that defines the function, which is the layer
the benchmark reports it under.
"""
from __future__ import annotations

import importlib
import json
import time


def qr_shape(window, rhs, rows, cols):
    """Rows and columns of the least-squares matrix `qr_masked_solve` factors."""
    return (window.shape[0] if rows is None else len(rows), int(cols))


# (module where the caller looks the name up, attribute, span name, and an
# optional function of the call's arguments whose result the span keeps).
WRAPPED = (
    ("aap.problems", "build_problem", "problems.build_problem", None),
    ("aap.solver", "solve", "solver.solve", None),
    ("aap.solver", "evaluate_residual", "fixed_point.evaluate_residual", None),
    ("aap.solver", "update_increments", "solver.update_increments", None),
    ("aap.solver", "push_window", "solver.push_window", None),
    ("aap.solver", "adaptive_step", "sketching.adaptive_step", None),
    ("aap.sketching", "estimate_sigma_min", "lsq.estimate_sigma_min", None),
    ("aap.lsq", "qr_masked_solve", "lsq.qr_masked_solve", qr_shape),
    ("aap.solver", "anderson_update", "solver.anderson_update", None),
    ("aap.solver", "picard_update", "solver.picard_update", None),
    ("aap.bench", "write_trace", "bench.write_trace", None),
    ("aap.bench", "load_trace", "bench.load_trace", None),
    ("aap.bench", "verify_theorem_trace", "bench.verify_theorem_trace", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in WRAPPED)


class Tracer:
    """Records spans while installed; use as a (reentrant) context manager.

    A span is ``[name, start_ns, end_ns, parent, solve_id, info]``; ``parent``
    is the index of the enclosing span or -1, ``info`` what the wrapped
    name's describe function returned (None for most names).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._depth = 0

    def next_solve(self):
        """Start a new solve id; spans recorded from now on carry it."""
        self.solve_id += 1

    def _wrap(self, fn, name, describe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.solve_id,
                    describe(*args, **kwargs) if describe else None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        self._depth += 1
        if self._depth > 1:
            return self
        for module_name, attr, name, describe in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, describe))
        return self

    def __exit__(self, *exc):
        self._depth -= 1
        while self._depth == 0 and self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def write(self, path: str):
        """Write the recorded spans as JSON lines."""
        keys = ("name", "start_ns", "end_ns", "parent", "solve_id", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_totals(spans: list[list], start: int = 0, stop: int | None = None):
    """Calls, total seconds and self seconds per span name over a slice.

    A span's self time is its duration minus the durations of its direct
    children. Calls run one at a time, so children never overlap and the
    self times of a subtree add up to the duration of its root.
    """
    stop = len(spans) if stop is None else stop
    child_ns = [0] * (stop - start)
    for i in range(start, stop):
        parent = spans[i][3]
        if parent >= start:
            child_ns[parent - start] += spans[i][2] - spans[i][1]
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for i in range(start, stop):
        name, t0, t1 = spans[i][:3]
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += (t1 - t0) * 1e-9
        entry["self_s"] += (t1 - t0 - child_ns[i - start]) * 1e-9
    return totals


def qr_work(spans: list[list], start: int = 0, stop: int | None = None):
    """Flops and bytes of the `qr_masked_solve` calls, computed from shapes.

    For an r-by-c matrix: Householder QR (2rc^2 - 2c^3/3), forming the thin
    Q (the same again), Q^T r (2rc) and the triangular solve (c^2). Bytes
    count one read of the gathered matrix, one write of Q, the right-hand
    side, R and alpha, 8 bytes each. Both are computed, not measured: they
    ignore cache reuse and LAPACK's blocking.
    """
    stop = len(spans) if stop is None else stop
    flops = 0
    nbytes = 0
    for i in range(start, stop):
        if spans[i][0] != "lsq.qr_masked_solve":
            continue
        r, c = spans[i][5]
        flops += 4 * r * c * c - (4 * c ** 3) // 3 + 2 * r * c + c * c
        nbytes += 8 * (2 * r * c + r + c * c + c)
    return flops, nbytes
