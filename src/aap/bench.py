"""Experiment driver, trace files and the trace verifier.

Two jobs live here because they share the same output conventions:

* `run_experiment` executes a JSON plan (`load_plan`: a cross product of
  masks, adaptivity strategies and alternation values over a size grid)
  and collects one record per run; `write_result` writes a JSON result.
* `write_trace` / `load_trace` / `verify_theorem_trace` store a traced
  solve as a numpy archive (format ``aap-trace-5``: a JSON header, the
  arrays of its `Trace` and one array per `MixingStep` field), read back
  the same records and `Trace`, and recheck the perturbation bound against
  them offline.

Plans, result rows and trace records are read and written field by field
from their dataclasses, so each format is spelled out once.

Results and traces never contain wall-clock values in deterministic fields;
timing lives in clearly named fields that consumers are free to ignore.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys
import zipfile
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .fixed_point import NumericalBreakdown, field_rows
from .lsq import estimate_sigma_min
from .problems import PROBLEM_NAMES, ResourceLimit, build_problem
from .sketching import (
    REASONS,
    Adaptivity,
    MixingStep,
    budget_weights,
    epsilon_rhs,
    perturbation_norm,
    sketch_size,
    stability_hypothesis,
)
from .solver import SolveReport, SolverConfig, Trace, solve

TRACE_FORMAT = "aap-trace-5"

# Relative mismatch between R^T R and the restricted Gram matrix beyond
# which a trace is considered corrupted rather than merely inaccurate.
FACTOR_RTOL = 1e-8

BOUND_SLACK = 1e-10


class ParseError(ValueError):
    """Malformed plan or trace input."""


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a problem, a size grid, and a config matrix.

    The problem must be one `build_problem` knows. Adaptivities may be
    given by their short names (sub-pow, ...) and are kept by their full
    names. Every cell must make a valid `SolverConfig`.
    """

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
    out: str | None = None
    traces: str | None = None

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ParseError(f"unknown problem {self.problem!r}, expected "
                             f"one of {', '.join(PROBLEM_NAMES)}")
        if not self.sizes:
            raise ParseError("plan has no sizes")
        if not (self.masks and self.adaptivities and self.alternations):
            raise ParseError("plan config matrix is empty")
        if self.repetitions < 1:
            raise ParseError("repetitions must be at least 1")
        try:
            adaptivities = tuple(Adaptivity(a).value for a in self.adaptivities)
            object.__setattr__(self, "adaptivities", adaptivities)
            for p in self.alternations:
                _plan_config(self, "none", adaptivities[0], p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


@dataclass
class RunRecord:
    """One row of an experiment result. ``wall_times_seconds`` holds the
    wall time of each timed solve, and is empty when none finished."""

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
    wall_times_seconds: list[float]
    best: bool = False


# The JSON types a value of each kind may have (a bool is no number).
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
               "bool": (bool,)}


def _json_value(kind: str, value):
    """A plan or header value of a field annotated ``kind``: a tuple is a
    JSON list, an optional field may be null, a float takes an integer."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if kind.startswith("tuple[") and isinstance(value, list):
        item = kind.removeprefix("tuple[").removesuffix(", ...]")
        return tuple(_json_value(item, v) for v in value)
    if type(value) not in _JSON_TYPES.get(kind, ()):
        raise ValueError(f"expected {kind}, got {json.dumps(value)[:40]}")
    return float(value) if kind == "float" else value


def _unique_object(pairs: list) -> dict:
    """A JSON object that refuses a repeated key (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_plan(data: bytes) -> ExperimentPlan:
    """Read a plan: one UTF-8 JSON object whose keys are `ExperimentPlan`
    field names, with JSON lists for the tuple fields. An absent ``traces``
    defaults to ``<out>.traces`` when ``out`` is set; null skips traces.

    Raises ParseError for bytes that are not UTF-8 JSON, a document that is
    not an object, an unknown, repeated or missing key, a value of the wrong
    JSON type, and a plan that breaks an `ExperimentPlan` invariant.
    """
    try:
        values = json.loads(data.decode(), object_pairs_hook=_unique_object)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(values, dict):
        raise ParseError("plan is not a JSON object")
    kinds = {f.name: f.type for f in fields(ExperimentPlan)}
    for key, value in values.items():
        if key not in kinds:
            raise ParseError(f"unknown key {key!r}")
        try:
            values[key] = _json_value(kinds[key], value)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{key}: {exc}") from exc
    for f in fields(ExperimentPlan):
        if f.default is MISSING and f.name not in values:
            raise ParseError(f"plan is missing {f.name!r}")
    if "traces" not in values and values.get("out") is not None:
        # A sweep that writes its result keeps per-run traces next to it
        # unless the plan sets traces to null.
        values["traces"] = values["out"] + ".traces"
    return ExperimentPlan(**values)


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


def run_record(problem: str, size: int, config: SolverConfig,
               report: SolveReport | None, wall_times: list[float]) -> RunRecord:
    """The result row of a solve of ``problem`` at ``size`` under ``config``.

    ``report`` is None for a run that failed before it solved, and may be
    the partial report of a breakdown.
    """
    return RunRecord(
        problem=problem,
        size=size,
        mask=config.static_mask or "none",
        adaptivity=config.adaptivity.value,
        sketch=config.sketch_percent,
        window=config.window if report is None else report.window,
        alternation=config.alternation,
        tol=config.rel_tolerance,
        seed=config.rng_seed,
        iterations=None if report is None else report.iterations,
        converged=report is not None and report.converged,
        wall_times_seconds=wall_times,
    )


def run_solve(problem, config: SolverConfig, trace: str | None = None,
              repetitions: int = 1) -> tuple[SolveReport, list[float]]:
    """Solve ``problem`` under ``config``: (report, wall times).

    With a ``trace`` path it first solves once with the trace captured and
    writes it there, a breakdown's partial trace included. It then makes
    ``repetitions`` untraced solves and returns the last report with the
    wall time of each. A `NumericalBreakdown` propagates with its partial
    report attached; tracing moves no iterate, so a traced solve's
    breakdown skips the rest.
    """
    if trace is not None:
        report = None
        try:
            report = solve(problem, config, capture_trace=True)
        except NumericalBreakdown as exc:
            report = exc.report
            raise
        finally:
            if report is not None:
                write_trace(report, trace)
    walls = []
    for _ in range(repetitions):
        report = solve(problem, config, capture_trace=False)
        walls.append(report.wall_time_seconds)
    return report, walls


def _run_one(plan: ExperimentPlan, problem, size: int, mask: str, adapt: str,
             p: int) -> RunRecord:
    """One cell of the plan matrix, solved by `run_solve` with its trace in
    the plan's traces directory. ``problem`` is None when the size failed
    to build; such a cell and a breakdown become failed rows. Any other
    error of the solve propagates."""
    config = _plan_config(plan, mask, adapt, p)
    report = trace = None
    walls = []
    if plan.traces is not None:
        trace = os.path.join(plan.traces,
                             f"{plan.problem}-{size}-{mask}-{adapt}-p{p}.npz")
    try:
        if problem is not None:
            report, walls = run_solve(problem, config, trace, plan.repetitions)
    except NumericalBreakdown as exc:
        report = exc.report
    return run_record(plan.problem, size, config, report, walls)


def run_experiment(plan: ExperimentPlan) -> list[RunRecord]:
    """Run every (size, mask, adaptivity, alternation) cell of the plan.

    Rows come back in plan order, one per cell, with failures recorded as
    non-converged rows. Each size's problem is built once, and every mask
    is looked up in it before any of its cells solves, so a mask the
    problem has no field for raises UnknownField before the first solve,
    as an unwritable result or traces path raises OSError (`prepare_output`).
    When the plan names a traces directory, each cell's trace, a
    breakdown's included, is written there as soon as its traced solve
    ends, so only one traced report is held at a time.
    """
    records = []
    for size in plan.sizes:
        try:
            problem = build_problem(plan.problem, size, seed=plan.seed)
        except (ResourceLimit, ValueError):
            problem = None
        else:
            for mask in plan.masks:
                field_rows(problem, None if mask == "none" else mask)
            prepare_output(plan.out)
            prepare_output(plan.traces, directory=True)
        records += [_run_one(plan, problem, size, mask, adapt, p)
                    for mask, adapt, p in itertools.product(
                        plan.masks, plan.adaptivities, plan.alternations)]
    if plan.best:
        for size in plan.sizes:
            done = [r for r in records if r.size == size and r.converged]
            if done:
                min(done, key=lambda r: min(r.wall_times_seconds)).best = True
    return records


def prepare_output(path: str | None, directory: bool = False):
    """Make the directory an output goes to (``path`` itself when
    ``directory``); raise OSError unless it is writable. None is no output."""
    if path is not None:
        folder = path if directory else os.path.dirname(path) or "."
        os.makedirs(folder, exist_ok=True)
        if (not os.access(folder, os.W_OK)
                or not directory and os.path.isdir(path)):
            raise OSError(f"cannot write {path!r}")


def write_result(records: list[RunRecord], meta: dict, path: str | None):
    """Write ``{"meta": meta, "rows": [...]}``, one row of RunRecord fields
    per record, as JSON to ``path``, making its directory if need be, or to
    stdout when ``path`` is None."""
    doc = {"meta": meta, "rows": [asdict(rec) for rec in records]}
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    prepare_output(path)
    with open(path, "w") as fh:
        fh.write(text)


def write_trace(report: SolveReport, path: str):
    """Write a traced solve to ``path`` as an ``aap-trace-5`` archive,
    making its directory if need be.

    Requires the solve to have run with capture_trace=True. The archive is
    an uncompressed numpy ``.npz`` written to exactly the given path,
    whatever its suffix. It holds a JSON header and the arrays of
    `_ARRAYS`: the residual history, the trace's log (one restricted
    residual per iteration, from which every window follows, so the file
    grows with l1 * iterations, not with l1 * m * steps), its per-step
    arrays and one array per MixingStep field, with NaN for None. No timing
    fields are written, and identical solves give byte-identical files.
    """
    if report.trace is None:
        raise ValueError("report has no trace; solve with capture_trace=True")
    config = report.config
    header = {
        "format": TRACE_FORMAT,
        "problem": report.problem,
        "n": report.n,
        "omega": report.omega,
        "window": report.window,
        "alternation": config.alternation,
        "adaptivity": config.adaptivity.value,
        "static_mask": config.static_mask or "none",
        "sketch_percent": config.sketch_percent,
        "seed": config.rng_seed,
        "rel_tolerance": config.rel_tolerance,
        "converged": report.converged,
        "iterations": report.iterations,
    }
    trace = report.trace
    arrays = {"residual_history": report.residual_history,
              "residuals": np.array(trace.residuals).T,
              "dx_norms": trace.dx_norms}
    for name in _PIECES:
        pieces = [np.ravel(p) for p in getattr(trace, name) if p is not None]
        arrays[name] = np.concatenate([np.zeros(0, _ARRAYS[name]), *pieces])
    for f in fields(MixingStep):
        values = [getattr(rec, f.name) for rec in report.mask_trace]
        arrays[f.name] = [np.nan if v is None else v for v in values]
    prepare_output(path)
    _save_trace(path, header, {name: np.asarray(arrays[name], dtype)
                               for name, dtype in _ARRAYS.items()})


# Every array of an aap-trace-5 archive, in the order it is written, and its
# dtype. A per-step array of the trace (`_PIECES`) holds the steps' pieces
# end to end; a MixingStep field is int64, text, or float with NaN for None.
_PIECES = ("alpha", "r_factor", "mask")
_ARRAYS = {
    **dict.fromkeys(("residual_history", "residuals", "dx_norms", "alpha",
                     "r_factor"), np.dtype(float)),
    "mask": np.dtype(np.int64),
    **{f.name: np.dtype({"int": np.int64, "str": np.str_}.get(f.type, float))
       for f in fields(MixingStep)},
}


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


def load_trace(path: str) -> dict:
    """Read a trace archive back into the records and arrays of its solve.

    The mapping holds the header fields, ``l1`` (the residual log's row
    count), ``residual_history``, ``steps`` (one MixingStep per mixing step,
    equal to the report's mask_trace, NaN read back as None) and ``trace``
    (a `Trace` over the archive's arrays). Each step's record fixes its
    pieces: none after a fallback, otherwise c coefficients and a c x c
    factor, and the sketch's rows only when it was accepted, as many as the
    guard keeps of l1. Raises ParseError on anything malformed: a missing
    array or header key, a header field of the wrong type, an array of the
    wrong dtype kind, rank or length (`_read_array`), an unknown guard
    reason, windows or sketch rows that run past their arrays, and a
    step's sketch rows that do not strictly increase: the guard keeps
    distinct rows in ascending order, and the stability bound holds only
    for a selection of distinct rows.
    """
    header, arrays = _read_trace(path)
    if header.get("format") != TRACE_FORMAT:
        raise ParseError(f"unknown trace format {header.get('format')!r}")
    _check_header(header)
    try:
        k = header["iterations"]
        # One entry per iteration after the first, but none for the one a
        # breakdown ended at.
        history = _read_array(arrays, "residual_history", (k, k + 1))
        dx_norms = _read_array(arrays, "dx_norms", None)
        log = _read_array(arrays, "residuals", None, dx_norms.size + 1)
        n = arrays["iteration"].size
        columns = []
        for f in fields(MixingStep):
            values = _read_array(arrays, f.name, n).tolist()
            columns.append([None if f.default is None and math.isnan(v) else v
                            for v in values])
        steps = [MixingStep(*values) for values in zip(*columns)]
        for rec in steps:
            if rec.reason not in REASONS:
                raise ValueError(f"step {rec.iteration}: unknown reason "
                                 f"{rec.reason!r}")
        if any(not 1 <= r.columns <= r.iteration < log.shape[1] for r in steps):
            raise ValueError("step windows run past the residual log")
        rows = log.shape[0]
        sketch_rows = sketch_size(header["sketch_percent"], rows)
        shapes = {
            "alpha": [None if r.fallback else (r.columns,) for r in steps],
            "r_factor": [None if r.fallback else (r.columns,) * 2 for r in steps],
            "mask": [(sketch_rows,) if r.accepted else None for r in steps],
        }
        pieces = {}
        for name in _PIECES:
            sizes = [0 if s is None else math.prod(s) for s in shapes[name]]
            flat = _read_array(arrays, name, sum(sizes))
            split = np.split(flat, np.cumsum(sizes[:-1], dtype=np.int64))
            pieces[name] = [None if s is None else p.reshape(s)
                            for s, p in zip(shapes[name], split)]
        mask = arrays["mask"]
        if mask.size and (mask.min() < 0 or mask.max() >= rows):
            raise ValueError(f"sketch rows run past the {rows} restricted rows")
        for rec, kept in zip(steps, pieces["mask"]):
            if kept is not None and not (np.diff(kept) > 0).all():
                raise ValueError(f"step {rec.iteration}: sketch rows do not "
                                 f"strictly increase")
    except KeyError as exc:
        raise ParseError(f"trace is missing array {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return dict(header, l1=rows, residual_history=history, steps=steps,
                trace=Trace(list(log.T), dx_norms.tolist(), **pieces))


# The header fields `load_trace` and `verify_theorem_trace` read, and the
# kind of each, checked as a plan field of that kind is (`_json_value`).
_HEADER = {"problem": "str", "sketch_percent": "float", "adaptivity": "str",
           "iterations": "int", "converged": "bool"}


def _check_header(header: dict):
    """Raise ParseError unless the header has every field of `_HEADER`, of
    its kind, iterations >= 0 and an adaptivity that names one."""
    for key, kind in _HEADER.items():
        if key not in header:
            raise ParseError(f"trace is missing {key!r}")
        try:
            header[key] = _json_value(kind, header[key])
            if key == "iterations" and header[key] < 0:
                raise ValueError(f"expected a count, got {header[key]}")
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"trace header {key!r} is invalid: {exc}") from None
    try:
        Adaptivity(header["adaptivity"])
    except ValueError:
        raise ParseError(f"unknown adaptivity {header['adaptivity']!r}") from None


def _read_array(arrays: dict, name: str, *lengths) -> np.ndarray:
    """The archive array ``name``, checked against its dtype in `_ARRAYS`.

    Raises ValueError unless its dtype is of the same kind and it has one
    axis per entry of ``lengths``, of the length that entry gives: a
    number, a tuple of the lengths allowed, or None for any length.
    """
    array, dtype = arrays[name], _ARRAYS[name]
    allowed = [(w,) if isinstance(w, int) else w for w in lengths]
    if (array.dtype.kind != dtype.kind or array.ndim != len(lengths)
            or any(w is not None and d not in w
                   for d, w in zip(array.shape, allowed))):
        shape = ", ".join("any" if w is None else " or ".join(map(str, w))
                          for w in allowed)
        raise ValueError(f"trace array {name!r} has shape {array.shape} and "
                         f"dtype {array.dtype}, expected ({shape}) {dtype}")
    return array


@dataclass
class StepCheck:
    """Verification outcome for one mixing step: its ``record`` and what
    the verifier found. A step the verifier does not test (a fallback or an
    unsketched step) passes vacuously."""

    record: MixingStep
    hypotheses_satisfied: bool = False
    delta: float = 0.0
    bound: float = 0.0

    @property
    def masked(self) -> bool:
        """Whether the step mixed with a sketch, whose rows the trace
        keeps only for an accepted step."""
        return self.record.accepted

    @property
    def bound_satisfied(self) -> bool:
        return self.delta <= self.bound


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
        return [s for s in self.steps if s.masked]

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
    increments (mismatch means a corrupted trace); both are scaled by one
    power of two near the largest increment first, so the Gram matrices
    compared cannot overflow. For a step that mixed with a sketch,
    `stability_hypothesis` is recomputed from the record:
    the factor's smallest singular value, the recorded Lipschitz estimate
    and increment norms, the residual's norm and the share of it the sketch
    dropped (`epsilon_rhs`). Where it holds, the perturbation norm must stay
    within the eta-sum bound.
    """
    doc = path_or_doc if isinstance(path_or_doc, dict) else load_trace(path_or_doc)
    adaptivity = Adaptivity(doc["adaptivity"])
    result = TraceVerification()
    for idx, rec in enumerate(doc["steps"]):
        try:
            check = _verify_step(rec, doc["trace"], idx, adaptivity)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"step {idx}: malformed record ({exc})") from exc
        result.steps.append(check)
    return result


def _verify_step(rec: MixingStep, trace: Trace, i: int, adaptivity: Adaptivity):
    if rec.fallback:
        return StepCheck(rec)
    increments, dx_norms = trace.window(rec)
    mask, alpha, r_factor = trace.mask[i], trace.alpha[i], trace.r_factor[i]

    restricted = increments if mask is None else increments[mask]
    # Scaling by a power of two near 1 / max |F| is exact and keeps the Gram
    # matrices from overflowing. frexp gives exponent 0 for a zero or
    # non-finite maximum, and a non-finite mismatch fails below.
    top = float(np.abs(restricted).max())
    scale = math.ldexp(1.0, -max(math.frexp(top)[1], -1022))
    scaled, scaled_r = restricted * scale, r_factor * scale
    gram = scaled.T @ scaled
    mismatch = float(np.linalg.norm(gram - scaled_r.T @ scaled_r))
    if not mismatch <= FACTOR_RTOL * max(float(np.linalg.norm(gram)), 1e-300):
        raise ParseError(
            f"step {rec.iteration}: stored triangular factor disagrees "
            "with the recorded increments"
        )

    if mask is None:
        return StepCheck(rec)

    delta = perturbation_norm(increments, mask, alpha)

    f_res = trace.residual(rec)
    etas = budget_weights(adaptivity, rec.columns)
    norm_f = float(np.linalg.norm(f_res))
    hyp_ok = stability_hypothesis(
        estimate_sigma_min(r_factor),
        rec.lipschitz,
        norm_f,
        dx_norms,
        etas,
        epsilon_rhs(f_res, mask, norm_f),
    )
    return StepCheck(rec, hypotheses_satisfied=hyp_ok, delta=delta,
                     bound=float(sum(etas)) + BOUND_SLACK)


def build_meta(extra: dict | None = None) -> dict:
    """A result's metadata: the package name, its numpy and scipy versions,
    the CPU count, and each BLAS thread variable's value (None when unset),
    then ``extra``."""
    import scipy

    from . import __version__

    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"package": "aap", "version": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name) for name in threads}, **(extra or {})}
