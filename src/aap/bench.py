"""Experiment driver, trace files, the trace verifier, and kernel timings.

Three jobs live here because they share the same output conventions:

* `run_experiment` executes a plan (a cross product of masks, adaptivity
  strategies, and alternation values over a size grid) and collects one
  record per run. Tables are CSV with a JSON metadata sidecar.
* `write_trace` / `load_trace` / `verify_theorem_trace` store a traced
  solve as a numpy archive (format ``aap-trace-3``: a JSON header, the
  arrays of its `Trace` and one array per `MixingStep` field), read back
  the same records and `Trace`, and recheck the perturbation bound against
  them offline.
* `bench_masked_kernels` times row-masked matrix-vector products and QR
  factorizations against their full-matrix versions over a grid of sizes
  and retention fractions.

Tables and traces never contain wall-clock values in deterministic fields;
timing lives in clearly named columns that consumers are free to ignore.
"""
from __future__ import annotations

import json
import math
import os
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .fixed_point import NumericalBreakdown
from .lsq import estimate_sigma_min
from .problems import PROBLEM_NAMES, ResourceLimit, build_problem
from .sketching import (
    REASONS,
    Adaptivity,
    MixingStep,
    epsilon_rhs,
    eta,
    perturbation_norm,
    stability_hypothesis,
)
from .solver import SolveReport, SolverConfig, Trace, solve

TRACE_FORMAT = "aap-trace-3"

# Stop repeating a timing cell once the running average moves by less than
# this between consecutive repetitions.
AVERAGE_RTOL = 1e-5
REP_CAP = 10_000

DEFAULT_RETENTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# Relative mismatch between R^T R and the restricted Gram matrix beyond
# which a trace is considered corrupted rather than merely inaccurate.
FACTOR_RTOL = 1e-8

BOUND_SLACK = 1e-10


class ParseError(ValueError):
    """Malformed plan or trace input; carries a line number when known."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a problem, a size grid, and a config matrix."""

    problem: str
    sizes: tuple[int, ...]
    masks: tuple[str, ...] = ("none",)
    adaptivities: tuple[str, ...] = ("none",)
    alternations: tuple[int, ...] = (1,)
    sketch: float = 30.0
    window: int | None = None
    tol: float = 1e-6
    max_iterations: int = 1000
    repetitions: int = 1
    seed: int = 0
    best: bool = False
    workers: int = 1
    out: str | None = None
    traces: str | None = None

    def __post_init__(self):
        if not self.sizes:
            raise ParseError("plan has no sizes")
        if not (self.masks and self.adaptivities and self.alternations):
            raise ParseError("plan config matrix is empty")
        if self.repetitions < 1:
            raise ParseError("repetitions must be at least 1")
        if self.workers < 1:
            raise ParseError("workers must be at least 1")
        if self.best and self.workers > 1:
            raise ParseError(
                "best mode ranks by wall time and needs workers = 1"
            )


@dataclass
class RunRecord:
    """One row of an experiment table."""

    problem: str
    size: int
    mask: str
    adaptivity: str
    sketch: float
    window: int | None
    alternation: int
    tol: float
    seed: int
    iterations: int | None
    converged: bool
    wall_time_seconds: float | None
    best: bool = False


_LIST_KEYS = {"sizes", "masks", "adapt", "alternations"}
_PLAN_KEYS = _LIST_KEYS | {
    "problem",
    "sketch",
    "window",
    "tol",
    "max_iterations",
    "repetitions",
    "seed",
    "best",
    "workers",
    "out",
    "traces",
}


def parse_plan(text: str) -> ExperimentPlan:
    """Parse a plain key = value plan file.

    Lists are comma separated, `#` starts a comment, and unknown keys are
    rejected with their line number.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PLAN_KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = _parse_plan_value(key, val)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    if "problem" not in values:
        raise ParseError("plan is missing 'problem'")
    if "sizes" not in values:
        raise ParseError("plan is missing 'sizes'")
    if "traces" not in values and values.get("out") is not None:
        # A table-writing sweep keeps per-run traces next to the table
        # unless the plan says traces = none.
        values["traces"] = values["out"] + ".traces"
    kwargs = {
        "problem": values["problem"],
        "sizes": values["sizes"],
    }
    rename = {"adapt": "adaptivities"}
    for key, val in values.items():
        if key in ("problem", "sizes"):
            continue
        kwargs[rename.get(key, key)] = val
    return ExperimentPlan(**kwargs)


def _parse_plan_value(key, val):
    if key in ("sizes", "alternations"):
        return tuple(int(v) for v in val.split(","))
    if key in ("masks", "adapt"):
        items = tuple(v.strip() for v in val.split(","))
        if key == "adapt":
            items = tuple(canonical_adaptivity(v) for v in items)
        return items
    if key in ("sketch", "tol"):
        return float(val)
    if key in ("max_iterations", "repetitions", "seed", "workers"):
        return int(val)
    if key == "window":
        return None if val in ("", "none") else int(val)
    if key == "best":
        if val not in ("true", "false"):
            raise ValueError(f"best must be true or false, got {val!r}")
        return val == "true"
    if key in ("out", "traces"):
        return None if val in ("", "none") else val
    return val


_ADAPT_ALIASES = {
    "none": "none",
    "sub-pow": "subselect-power",
    "sub-const": "subselect-constant",
    "rand-pow": "randomized-power",
    "rand-const": "randomized-constant",
}


def canonical_adaptivity(name: str) -> str:
    """Map a CLI alias (sub-pow, rand-const, ...) to the full strategy name."""
    name = name.strip()
    if name in _ADAPT_ALIASES:
        return _ADAPT_ALIASES[name]
    return Adaptivity(name).value


def _plan_config(plan: ExperimentPlan, mask: str, adapt: str, p: int) -> SolverConfig:
    return SolverConfig(
        window=plan.window,
        alternation=p,
        rel_tolerance=plan.tol,
        max_iterations=plan.max_iterations,
        static_mask=None if mask == "none" else mask,
        adaptivity=adapt,
        sketch_percent=plan.sketch,
        rng_seed=plan.seed,
    )


def _run_one(plan: ExperimentPlan, size: int, mask: str, adapt: str, p: int,
             timed: bool):
    """Execute one cell of the plan matrix; failures become failed rows."""
    record = RunRecord(
        problem=plan.problem,
        size=size,
        mask=mask,
        adaptivity=adapt,
        sketch=plan.sketch,
        window=plan.window,
        alternation=p,
        tol=plan.tol,
        seed=plan.seed,
        iterations=None,
        converged=False,
        wall_time_seconds=None,
    )
    trace_report = None
    try:
        problem = build_problem(plan.problem, size, seed=plan.seed)
        config = _plan_config(plan, mask, adapt, p)
        want_trace = plan.traces is not None
        best_wall = None
        report = None
        for _ in range(plan.repetitions):
            t0 = time.perf_counter()
            report = solve(problem, config, capture_trace=want_trace)
            wall = time.perf_counter() - t0
            best_wall = wall if best_wall is None else min(best_wall, wall)
        record.iterations = report.iterations
        record.converged = report.converged
        record.window = report.window
        if timed:
            record.wall_time_seconds = best_wall
        trace_report = report if want_trace else None
    except NumericalBreakdown as exc:
        partial = getattr(exc, "report", None)
        if partial is not None:
            record.iterations = partial.iterations
            record.window = partial.window
    except (ResourceLimit, KeyError, ValueError):
        pass
    return record, trace_report


def run_experiment(plan: ExperimentPlan) -> list[RunRecord]:
    """Run every (size, mask, adaptivity, alternation) cell of the plan.

    Rows come back in plan order, one per cell, with failures recorded as
    non-converged rows. With workers > 1 the cells run concurrently and the
    wall-time column stays empty; timing requires the sequential mode.
    When the plan names a traces directory, each successful run's trace is
    written there.
    """
    cells = [
        (size, mask, adapt, p)
        for size in plan.sizes
        for mask in plan.masks
        for adapt in plan.adaptivities
        for p in plan.alternations
    ]
    timed = plan.workers == 1
    results = []
    if plan.workers == 1:
        for cell in cells:
            results.append(_run_one(plan, *cell, timed=timed))
    else:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            futures = [
                pool.submit(_run_one, plan, *cell, timed=timed)
                for cell in cells
            ]
            results = [f.result() for f in futures]

    records = [rec for rec, _ in results]
    if plan.traces is not None:
        os.makedirs(plan.traces, exist_ok=True)
        for (size, mask, adapt, p), (rec, report) in zip(cells, results):
            if report is None:
                continue
            name = f"{plan.problem}-{size}-{mask}-{adapt}-p{p}.npz"
            write_trace(report, os.path.join(plan.traces, name))

    if plan.best:
        by_size: dict[int, RunRecord] = {}
        for rec in records:
            if not rec.converged or rec.wall_time_seconds is None:
                continue
            cur = by_size.get(rec.size)
            if cur is None or rec.wall_time_seconds < cur.wall_time_seconds:
                by_size[rec.size] = rec
        for rec in by_size.values():
            rec.best = True
    return records


_TABLE_COLUMNS = (
    "problem",
    "size",
    "mask",
    "adaptivity",
    "sketch",
    "window",
    "alternation",
    "tol",
    "seed",
    "iterations",
    "converged",
    "wall_time_seconds",
    "best",
)


def format_table(records: list[RunRecord]) -> str:
    """CSV text for records, header included.

    Floats are written with repr so that `load_table` reproduces the
    in-memory records exactly.
    """
    lines = [",".join(_TABLE_COLUMNS)]
    for rec in records:
        row = [
            rec.problem,
            str(rec.size),
            rec.mask,
            rec.adaptivity,
            repr(rec.sketch),
            "" if rec.window is None else str(rec.window),
            str(rec.alternation),
            repr(rec.tol),
            str(rec.seed),
            "" if rec.iterations is None else str(rec.iterations),
            "true" if rec.converged else "false",
            "" if rec.wall_time_seconds is None else repr(rec.wall_time_seconds),
            "1" if rec.best else "",
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_table(records: list[RunRecord], path: str, meta: dict | None = None):
    """Write records as CSV plus a `.meta.json` sidecar."""
    with open(path, "w") as fh:
        fh.write(format_table(records))
    sidecar = dict(meta or {})
    sidecar.setdefault("columns", list(_TABLE_COLUMNS))
    sidecar.setdefault("rows", len(records))
    with open(path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_table(path: str) -> list[RunRecord]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != ",".join(_TABLE_COLUMNS):
        raise ParseError("unrecognized table header", lineno=1)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_TABLE_COLUMNS):
            raise ParseError(
                f"expected {len(_TABLE_COLUMNS)} columns, got {len(parts)}",
                lineno,
            )
        (prob, size, mask, adapt, sketch, window, p, tol, seed, iters,
         conv, wall, best) = parts
        records.append(
            RunRecord(
                problem=prob,
                size=int(size),
                mask=mask,
                adaptivity=adapt,
                sketch=float(sketch),
                window=None if window == "" else int(window),
                alternation=int(p),
                tol=float(tol),
                seed=int(seed),
                iterations=None if iters == "" else int(iters),
                converged=conv == "true",
                wall_time_seconds=None if wall == "" else float(wall),
                best=best == "1",
            )
        )
    return records


def write_trace(report: SolveReport, path: str):
    """Write a traced solve to ``path`` as an ``aap-trace-3`` archive.

    Requires the solve to have run with capture_trace=True. The archive is
    an uncompressed numpy ``.npz`` written to exactly the given path,
    whatever its suffix. It holds a JSON header, the arrays of
    `Trace.arrays` (each window column stored once, so the file grows with
    l1 * (iterations + steps), not with l1 * m * steps) and one array per
    MixingStep field, with NaN for None. No timing fields are written, and
    identical solves give byte-identical files.
    """
    if report.trace is None:
        raise ValueError("report has no trace; solve with capture_trace=True")
    config = report.config
    header = {
        "format": TRACE_FORMAT,
        "problem": report.problem,
        "n": report.n,
        "l1": report.l1,
        "omega": report.omega,
        "window": report.window,
        "alternation": report.alternation,
        "adaptivity": config.adaptivity.value,
        "static_mask": config.static_mask or "none",
        "sketch_percent": config.sketch_percent,
        "eta_exponent": config.eta_exponent,
        "seed": config.rng_seed,
        "rel_tolerance": config.rel_tolerance,
        "converged": report.converged,
        "iterations": report.iterations,
    }
    arrays = {
        "residual_history": np.asarray(report.residual_history, dtype=float),
        **report.trace.arrays(),
    }
    for f in fields(MixingStep):
        values = [getattr(rec, f.name) for rec in report.mask_trace]
        arrays[f.name] = np.array(
            [np.nan if v is None else v for v in values], dtype=_archive_dtype(f)
        )
    _save_trace(path, header, arrays)


def _archive_dtype(f) -> np.dtype:
    """The archive dtype of a MixingStep field, from its annotation: int64,
    text, or float (with NaN for None)."""
    return np.dtype({"int": np.int64, "str": np.str_}.get(f.type, float))


def _save_trace(path: str, header: dict, arrays: dict):
    """Write a header and named arrays to exactly ``path`` as an npz archive.

    The header goes in as the UTF-8 bytes of its JSON text. Writing through
    an open handle keeps numpy from appending ``.npz`` to the name. Every
    member carries zipfile's default 1980 date, so the bytes depend on the
    contents alone.
    """
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        np.savez(
            fh,
            header=np.frombuffer(text.encode(), dtype=np.uint8),
            **arrays,
        )


def _read_trace(path: str) -> tuple[dict, dict]:
    """Read back what `_save_trace` wrote: (header, arrays).

    Anything that is not an npz archive of arrays with a JSON object for a
    header, a JSON trace of format aap-trace-1 included, raises ParseError;
    a missing file raises OSError.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ParseError("not an npz archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ParseError(f"unreadable trace archive ({exc})") from exc
    if not all(isinstance(a, np.ndarray) for a in arrays.values()):
        raise ParseError("trace archive holds a member that is not an array")
    if "header" not in arrays:
        raise ParseError("trace has no header")
    try:
        header = json.loads(arrays.pop("header").tobytes().decode())
    except ValueError as exc:
        raise ParseError(f"trace header is not JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ParseError("trace header is not a JSON object")
    return header, arrays


_TRACE_REQUIRED = ("problem", "l1", "eta_exponent", "adaptivity", "iterations")


def load_trace(path: str) -> dict:
    """Read a trace archive back into the records and arrays of its solve.

    The mapping holds the header fields, ``residual_history``, ``steps``
    (one MixingStep per mixing step, equal to the report's mask_trace, NaN
    read back as None) and ``trace`` (a `Trace` over the archive's arrays).
    Raises ParseError on anything malformed: a missing array or header
    key, an unknown guard reason, dtypes, shapes or lengths that disagree,
    and windows or sketch rows that run past their arrays.
    """
    header, arrays = _read_trace(path)
    if header.get("format") != TRACE_FORMAT:
        raise ParseError(f"unknown trace format {header.get('format')!r}")
    for key in _TRACE_REQUIRED:
        if key not in header:
            raise ParseError(f"trace is missing {key!r}")
    try:
        l1 = int(header["l1"])
        n = arrays["iteration"].size
        columns = [_read_field(f, arrays[f.name], n) for f in fields(MixingStep)]
        steps = [MixingStep(*values) for values in zip(*columns)]
        trace = Trace.from_arrays(arrays, steps)
        history = arrays["residual_history"]
    except KeyError as exc:
        raise ParseError(f"trace is missing array {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    for rec in steps:
        if rec.reason not in REASONS:
            raise ParseError(f"step {rec.iteration}: unknown reason {rec.reason!r}")
    if trace.increments.shape[0] != l1:
        raise ParseError(f"column log has {trace.increments.shape[0]} rows, "
                         f"expected l1 = {l1}")
    return dict(header, residual_history=history, steps=steps, trace=trace)


def _read_field(f, column: np.ndarray, n: int) -> list:
    """The values of one MixingStep field, one per step, from its array."""
    dtype = _archive_dtype(f)
    if column.shape != (n,) or column.dtype.kind != dtype.kind:
        raise ValueError(f"trace array {f.name!r} has shape {column.shape} and "
                         f"dtype {column.dtype}, expected ({n},) {dtype}")
    values = column.tolist()
    if f.default is None:
        values = [None if math.isnan(v) else v for v in values]
    return values


@dataclass
class StepCheck:
    """Verification outcome for one mixing step; a step the verifier does
    not test (a fallback or an unsketched step) passes vacuously."""

    iteration: int
    columns: int
    masked: bool
    fallback: bool
    hypotheses_satisfied: bool = False
    delta: float = 0.0
    bound: float = 0.0
    bound_satisfied: bool = True


@dataclass
class TraceVerification:
    """Outcome of a trace check.

    ``accepted`` lists the steps that mixed with a sketch, and ``checked``
    those of them whose stability hypothesis the verifier confirmed. The
    trace passes when the bound holds wherever the hypothesis does and every
    accepted sketch is checked: an accepted step that fails the hypothesis
    means the guard and the verifier disagree.
    """

    steps: list[StepCheck] = field(default_factory=list)

    @property
    def accepted(self) -> list[StepCheck]:
        return [s for s in self.steps if s.masked and not s.fallback]

    @property
    def checked(self) -> list[StepCheck]:
        return [s for s in self.accepted if s.hypotheses_satisfied]

    @property
    def violations(self) -> list[StepCheck]:
        return [
            s for s in self.steps
            if s.hypotheses_satisfied and not s.bound_satisfied
        ]

    @property
    def passed(self) -> bool:
        return not self.violations and len(self.checked) == len(self.accepted)


def verify_theorem_trace(path_or_doc) -> TraceVerification:
    """Recheck the perturbation bound of every mixing step in a trace.

    ``path_or_doc`` is a trace path or what `load_trace` returns. For each
    step the stored triangular factor is checked against the restricted
    increments (mismatch means a corrupted trace). For a step that mixed
    with a sketch, `stability_hypothesis` is recomputed from the record:
    the factor's smallest singular value, the recorded Lipschitz estimate
    and increment norms, the residual's norm and the share of it the sketch
    dropped (`epsilon_rhs`). Where it holds, the perturbation norm must stay
    within the eta-sum bound.
    """
    doc = path_or_doc if isinstance(path_or_doc, dict) else load_trace(path_or_doc)
    eta_exponent = float(doc["eta_exponent"])
    try:
        eta_kind = Adaptivity(doc["adaptivity"]).eta_kind
    except ValueError as exc:
        raise ParseError(f"unknown adaptivity {doc['adaptivity']!r}") from exc

    result = TraceVerification()
    for idx, rec in enumerate(doc["steps"]):
        try:
            check = _verify_step(rec, doc["trace"], idx, eta_kind, eta_exponent)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"step {idx}: malformed record ({exc})") from exc
        result.steps.append(check)
    return result


def _verify_step(rec: MixingStep, trace: Trace, i: int, eta_kind: str,
                 exponent: float):
    increments, dx_norms = trace.window(rec)
    c = rec.columns
    mask = trace.mask[i]
    alpha = trace.alpha[i]
    if rec.fallback or alpha is None:
        return StepCheck(rec.iteration, c, masked=mask is not None,
                         fallback=True)
    r_factor = trace.r_factor[i]

    rows = np.arange(increments.shape[0]) if mask is None else mask
    restricted = increments[rows]
    gram = restricted.T @ restricted
    gram_r = r_factor.T @ r_factor
    scale = max(float(np.linalg.norm(gram)), 1e-300)
    if float(np.linalg.norm(gram - gram_r)) > FACTOR_RTOL * scale:
        raise ParseError(
            f"step {rec.iteration}: stored triangular factor disagrees "
            "with the recorded increments"
        )

    if mask is None:
        return StepCheck(rec.iteration, c, masked=False, fallback=False)

    masked_cols = np.zeros_like(increments)
    masked_cols[rows] = increments[rows]
    delta = perturbation_norm(increments, masked_cols, alpha)

    f_res = trace.f_restricted[i]
    etas = [eta(j, eta_kind, exponent) for j in range(1, c + 1)]
    hyp_ok = stability_hypothesis(
        estimate_sigma_min(r_factor),
        rec.lipschitz,
        float(np.linalg.norm(f_res)),
        dx_norms,
        etas,
        epsilon_rhs(f_res, rows),
    )
    bound = float(sum(etas)) + BOUND_SLACK
    return StepCheck(
        iteration=rec.iteration,
        columns=c,
        masked=True,
        fallback=False,
        hypotheses_satisfied=hyp_ok,
        delta=delta,
        bound=bound,
        bound_satisfied=delta <= bound,
    )


@dataclass
class BenchRecord:
    """One timing cell of the masked-kernel benchmark."""

    n: int
    columns: int
    retention: float
    op: str
    masked_seconds: float
    full_seconds: float
    reps: int


def _time_until_stable(fn, rep_cap: int) -> tuple[float, int]:
    """Average fn's wall time until the running mean settles."""
    total = 0.0
    mean = 0.0
    for rep in range(1, rep_cap + 1):
        t0 = time.perf_counter()
        fn()
        total += time.perf_counter() - t0
        new_mean = total / rep
        if rep >= 3 and abs(new_mean - mean) <= AVERAGE_RTOL * mean:
            return new_mean, rep
        mean = new_mean
    return mean, rep_cap


def bench_masked_kernels(
    n_values,
    columns: int = 50,
    retentions=DEFAULT_RETENTIONS,
    rep_cap: int = REP_CAP,
    seed: int = 0,
    pin: bool = True,
) -> tuple[list[BenchRecord], list[dict]]:
    """Time masked vs full matvec and QR over sizes and retentions.

    Returns the complete record grid (one record per (n, retention, op))
    and a per-(n, op) summary holding the largest retention at which the
    masked kernel beat the full one, or None if none did. The run pins to
    one hardware thread where the platform allows it.
    """
    n_values = list(n_values)
    if n_values != sorted(n_values):
        raise ValueError("n_values must be ascending")
    saved_affinity = None
    if pin and hasattr(os, "sched_setaffinity"):
        saved_affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(saved_affinity)})
    try:
        records = []
        for n in n_values:
            rng = np.random.default_rng(seed + n)
            a = rng.standard_normal((n, columns))
            v = rng.standard_normal(n)
            for retention in retentions:
                if not 0.0 < retention <= 1.0:
                    raise ValueError(f"retention {retention} outside (0, 1]")
                kept = max(1, round(retention * n))
                if kept == n:
                    # A full mask is the identity; routing it through a
                    # gather would time the copy, not the mask.
                    masked_matvec = lambda: a.T @ v
                    masked_qr = lambda: np.linalg.qr(a, mode="reduced")
                else:
                    idx = np.sort(rng.choice(n, size=kept, replace=False))
                    # The gather is part of the masked kernel's cost.
                    masked_matvec = lambda: a[idx].T @ v[idx]
                    masked_qr = lambda: np.linalg.qr(a[idx], mode="reduced")
                cells = {
                    "matvec": (lambda: a.T @ v, masked_matvec),
                    "qr": (
                        lambda: np.linalg.qr(a, mode="reduced"),
                        masked_qr,
                    ),
                }
                for op, (full_fn, masked_fn) in cells.items():
                    full_t, reps_f = _time_until_stable(full_fn, rep_cap)
                    masked_t, reps_m = _time_until_stable(masked_fn, rep_cap)
                    records.append(
                        BenchRecord(
                            n=n,
                            columns=columns,
                            retention=retention,
                            op=op,
                            masked_seconds=masked_t,
                            full_seconds=full_t,
                            reps=max(reps_f, reps_m),
                        )
                    )
    finally:
        if saved_affinity is not None:
            os.sched_setaffinity(0, saved_affinity)

    summary = []
    for n in n_values:
        for op in ("matvec", "qr"):
            wins = [
                r.retention
                for r in records
                if r.n == n and r.op == op and r.masked_seconds < r.full_seconds
            ]
            summary.append(
                {"n": n, "op": op, "max_winning_retention": max(wins, default=None)}
            )
    return records, summary


_BENCH_COLUMNS = (
    "n",
    "columns",
    "retention",
    "op",
    "masked_seconds",
    "full_seconds",
    "reps",
)


def write_bench_table(records: list[BenchRecord], path: str,
                      meta: dict | None = None):
    lines = [",".join(_BENCH_COLUMNS)]
    for rec in records:
        lines.append(
            ",".join(
                [
                    str(rec.n),
                    str(rec.columns),
                    repr(rec.retention),
                    rec.op,
                    repr(rec.masked_seconds),
                    repr(rec.full_seconds),
                    str(rec.reps),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = dict(meta or {})
    sidecar.setdefault("columns", list(_BENCH_COLUMNS))
    sidecar.setdefault("rows", len(records))
    with open(path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench_table(path: str) -> list[BenchRecord]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != ",".join(_BENCH_COLUMNS):
        raise ParseError("unrecognized benchmark table header", lineno=1)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_BENCH_COLUMNS):
            raise ParseError(
                f"expected {len(_BENCH_COLUMNS)} columns, got {len(parts)}",
                lineno,
            )
        records.append(
            BenchRecord(
                n=int(parts[0]),
                columns=int(parts[1]),
                retention=float(parts[2]),
                op=parts[3],
                masked_seconds=float(parts[4]),
                full_seconds=float(parts[5]),
                reps=int(parts[6]),
            )
        )
    return records


def build_meta(extra: dict | None = None) -> dict:
    """Common sidecar metadata: versions and the package name."""
    from . import __version__

    meta = {
        "package": "aap",
        "version": __version__,
        "numpy": np.__version__,
    }
    if extra:
        meta.update(extra)
    return meta
