"""Alternating Anderson-Picard iteration with two-level residual masking.

The driver repeats relaxed Picard steps x <- x - omega * T(x) and, every
p-th iteration, replaces the step with an Anderson mixing update built from
a window of past increments. The window least squares can be restricted
twice: statically to a physics field (level one) and dynamically to a
guarded row sketch (level two). With both restrictions off, the loop is the
plain alternating scheme, and the iterates are bitwise those of a plain
reference loop written against the same kernels.

`solve` runs `step` once per iteration and records what it returns: one
relative residual per iteration and one `MixingStep` per mixing step. The
buffers are allocated once and `step` works in place, so the workspace does
not grow as the solve runs; a traced solve also keeps its arrays in one
`Trace`, which grows by one column per iteration. The increment windows
slide along buffers a few columns wider than them (`push_window`).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import lsq
from .fixed_point import FixedPointProblem, NumericalBreakdown, evaluate_residual
from .sketching import (
    Adaptivity,
    MaskOperator,
    MixingStep,
    adaptive_step,
    build_static_mask,
    update_lipschitz,
)

DEFAULT_WINDOW = 10

# Sketched least squares can keep a run dancing in a noise band near its
# floor instead of converging. If the residual has not improved by this
# factor over a trailing stretch of iterations in which sketches were
# accepted, adaptivity is switched off for the rest of the run.
STALL_FACTOR = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    window
        Mixing window size m; None defers to the problem's recommendation
        (falling back to 10).
    alternation
        Mixing period p: the least squares runs on iterations k with
        k = 0 mod p. p = 1 mixes every iteration.
    relaxation
        Picard relaxation omega; None defers to the problem (falling back
        to 1).
    static_mask
        Field name for the level-one restriction, or None for identity.
    adaptivity
        Level-two sketch strategy, Adaptivity.NONE to disable.
    sketch_percent
        Percentage of restricted rows the sketch keeps.
    eta_exponent
        Growth exponent of the "power" budget weights.
    rng_seed
        Seed for the randomized sketch; fixed seed gives identical runs.
    """

    window: int | None = None
    alternation: int = 1
    relaxation: float | None = None
    rel_tolerance: float = 1e-6
    max_iterations: int = 1000
    static_mask: str | None = None
    adaptivity: Adaptivity = Adaptivity.NONE
    sketch_percent: float = 30.0
    eta_exponent: float = 1.1
    rng_seed: int = 0

    def __post_init__(self):
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1")
        if self.alternation < 1:
            raise ValueError("alternation period must be >= 1")
        if self.relaxation is not None and not (self.relaxation > 0.0):
            raise ValueError("relaxation must be positive")
        if not (self.rel_tolerance > 0.0):
            raise ValueError("rel_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < self.sketch_percent <= 100.0):
            raise ValueError("sketch_percent must lie in (0, 100]")
        if not isinstance(self.adaptivity, Adaptivity):
            object.__setattr__(self, "adaptivity", Adaptivity(self.adaptivity))


@dataclass
class Workspace:
    """Preallocated solver state, and the per-run state `step` advances.

    ``df_window`` (restricted rows), ``dg_window`` (full rows) and
    ``dx_norms`` share one chronological column order, oldest first. They
    are the width-m views at ``offset`` into column-major ``buffers`` s
    columns wider; ``views`` holds the triple for each offset 0..s, and only
    `push_window` moves them. ``factor``, the thin QR factor of
    ``df_window`` that every mixing step solves from first, is updated as
    columns enter and leave. The scalars and ``rng`` are the run's state;
    ``trace``, set only by a traced solve, keeps every column pushed and the
    arrays of every mixing step.
    """

    m: int
    mask: MaskOperator
    x: np.ndarray
    f: np.ndarray
    g: np.ndarray
    df: np.ndarray
    dg: np.ndarray
    scratch: np.ndarray
    f_sub: np.ndarray | None
    df_sub: np.ndarray | None
    df_window: np.ndarray
    dg_window: np.ndarray
    dx_norms: np.ndarray
    views: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray]
    factor: lsq.WindowFactor
    rng: np.random.Generator
    trace: Trace | None = None
    filled: int = 0
    offset: int = 0
    lipschitz: float = 0.0
    stalled: bool = False
    last_accept: int = -1
    restarts: int = 0


def allocate_workspace(
    n: int,
    config: SolverConfig,
    mask: MaskOperator | None = None,
    window: int | None = None,
) -> Workspace:
    """Allocate every buffer the iteration needs, once.

    ``mask`` is the resolved level-one restriction (None means identity).
    The restricted mirrors f_sub / df_sub exist only for a real restriction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = window if window is not None else (config.window or DEFAULT_WINDOW)
    if m < 1:
        raise ValueError("window must be >= 1")
    if mask is None:
        mask = MaskOperator(kept=np.arange(n), dim=n)
    if mask.dim != n:
        raise ValueError(f"mask built for dimension {mask.dim}, problem has {n}")
    l1 = mask.size
    restricted = not mask.is_identity
    width = m + _window_slack(m)
    buffers = (np.zeros(l1 * width), np.zeros(n * width), np.zeros(width))
    df_buf, dg_buf = (b.reshape((-1, width), order="F") for b in buffers[:2])
    views = [(df_buf[:, o:o + m], dg_buf[:, o:o + m], buffers[2][o:o + m])
             for o in range(width - m + 1)]
    return Workspace(
        m=m,
        mask=mask,
        x=np.zeros(n),
        f=np.zeros(n),
        g=np.zeros(n),
        df=np.zeros(n),
        dg=np.zeros(n),
        scratch=np.zeros(n),
        f_sub=np.zeros(l1) if restricted else None,
        df_sub=np.zeros(l1) if restricted else None,
        df_window=views[0][0],
        dg_window=views[0][1],
        dx_norms=views[0][2],
        views=views,
        buffers=buffers,
        factor=lsq.WindowFactor(l1, m),
        rng=np.random.default_rng(config.rng_seed),
    )


def picard_update(x, f, omega, work):
    """Relaxed Picard step x <- x - omega * f, in place; returns x.

    The scaled residual goes through the preallocated buffer ``work``, so
    the update allocates nothing.
    """
    np.multiply(f, omega, out=work)
    np.subtract(x, work, out=x)
    return x


def update_increments(ws: Workspace, problem: FixedPointProblem, omega: float):
    """Advance residual state by one evaluation, in place.

    df <- T(x) - f_old, dg <- g_new - g_old, then f <- T(x) and
    g <- x - omega * f. Exactly one residual evaluation per call.
    """
    np.copyto(ws.df, ws.f)
    np.copyto(ws.dg, ws.g)
    np.copyto(ws.f, evaluate_residual(problem, ws.x))
    np.multiply(ws.f, omega, out=ws.scratch)
    np.subtract(ws.x, ws.scratch, out=ws.g)
    np.subtract(ws.f, ws.df, out=ws.df)
    np.subtract(ws.g, ws.dg, out=ws.dg)


def _window_slack(m: int) -> int:
    """Spare columns s of each window buffer, for a window of m columns.

    A full window moves its m - 1 newest columns once every s pushes, so
    the upkeep per push falls like m / s while the buffers grow by s
    columns. At m = 50 and 8,450 rows (one thread) a push costs about 47 us
    at s = m / 4 and 66 us at m / 8, against 417 us for shifting both
    windows; m / 2 saves 15 us more for twice the memory.
    """
    return max(1, m // 4)


def push_window(ws: Workspace, dx_norm: float):
    """Append the newest increments to the windows, chronologically.

    The restricted residual increment (df_sub, or df when the level-one mask
    is identity), dg and dx_norm enter the same column of df_window,
    dg_window and dx_norms. A window that is not full grows by one column;
    an empty one (a fresh workspace, or one whose window restarted by
    setting ``filled`` to 0) starts again at offset 0. A full window drops
    its oldest column by sliding its view one column along the buffer, and
    only when the view has reached the end of the buffer are its m - 1
    newest columns moved to the front, one flat column-major move per
    buffer, before the view goes back to offset 0. The window factor is
    told of the push, and the trace, when there is one, logs a copy.
    """
    if ws.filled == ws.m:
        offset = ws.offset + 1
        if offset == len(ws.views):
            # Buffer columns s + 1 .. s + m - 1 become columns 0 .. m - 2.
            # numpy copies a forward 1-D overlap directly, where a 2-D slice
            # assignment would first copy the source to a temporary.
            offset = 0
            for flat in ws.buffers:
                rows = flat.size // (ws.m + len(ws.views) - 1)
                flat[: (ws.m - 1) * rows] = flat[len(ws.views) * rows:]
    else:
        offset = ws.offset if ws.filled else 0
        ws.filled += 1
    ws.offset = offset
    ws.df_window, ws.dg_window, ws.dx_norms = ws.views[offset]
    j = ws.filled - 1
    ws.df_window[:, j] = ws.df_sub if ws.df_sub is not None else ws.df
    ws.dg_window[:, j] = ws.dg
    ws.dx_norms[j] = dx_norm
    ws.factor.push()
    if ws.trace is not None:
        ws.trace.push(ws.df_window[:, j], dx_norm)


def anderson_update(ws: Workspace, alpha: np.ndarray, omega: float):
    """Mixing update x <- x - omega * f - dg_window[:, :c] @ alpha, in place.

    ``alpha`` is the window least-squares solution, one coefficient per
    filled column, oldest first; the dg columns are combined by one
    matrix-vector product into scratch.
    """
    picard_update(ws.x, ws.f, omega, ws.scratch)
    np.dot(ws.dg_window[:, : len(alpha)], alpha, out=ws.scratch)
    np.subtract(ws.x, ws.scratch, out=ws.x)


def step(
    ws: Workspace,
    problem: FixedPointProblem,
    config: SolverConfig,
    omega: float,
    k: int,
    norm_f0: float,
    history: list[float],
):
    """Run iteration k in place; returns (relres, record).

    Returns at once, x untouched, when relres = |T(x)| / norm_f0 is below
    the tolerance, and raises NumericalBreakdown when it is not finite.
    Otherwise x moves by a Picard step or, when k = 0 mod p, by mixing over
    the filled window. A mixing step first solves the whole window from the
    kept factor; with adaptivity on, the guard may replace that solution by
    the one of a row sketch it accepts. A rank-deficient window degrades
    the step to Picard (reason "no-factor") and restarts the window.
    ``history`` (relres of iterations 0..k-1) is only read, by the stall
    detector. ``record`` is the step's MixingStep, None unless it mixed.
    When ``ws.trace`` is set, the step's arrays go there.
    """
    update_increments(ws, problem, omega)
    # An overflowing norm is reported as NumericalBreakdown just below.
    with np.errstate(over="ignore"):
        relres = float(np.linalg.norm(ws.f)) / norm_f0
    if not math.isfinite(relres):
        raise NumericalBreakdown(f"residual norm overflowed at iteration {k}")
    if relres < config.rel_tolerance:
        return relres, None

    np.multiply(ws.df, omega, out=ws.scratch)
    np.add(ws.scratch, ws.dg, out=ws.scratch)
    # These norms can overflow while ‖f‖ is still finite; the next
    # iteration's check then raises NumericalBreakdown.
    with np.errstate(over="ignore"):
        dx_norm = float(np.linalg.norm(ws.scratch))
        df_norm = float(np.linalg.norm(ws.df))
    ws.lipschitz = update_lipschitz(ws.lipschitz, df_norm, dx_norm)
    if ws.f_sub is not None:
        np.take(ws.f, ws.mask.kept, out=ws.f_sub)
        np.take(ws.df, ws.mask.kept, out=ws.df_sub)
    push_window(ws, dx_norm)

    adaptive = config.adaptivity is not Adaptivity.NONE
    stall_span = max(ws.m, DEFAULT_WINDOW)
    if (
        adaptive
        and not ws.stalled
        and k >= ws.m + stall_span
        and ws.last_accept > k - stall_span
        and relres > STALL_FACTOR * history[k - stall_span]
    ):
        ws.stalled = True

    if k % config.alternation != 0:
        picard_update(ws.x, ws.f, omega, ws.scratch)
        return relres, None

    c = ws.filled
    f_r = ws.f_sub if ws.f_sub is not None else ws.f
    try:
        alpha, r_step = ws.factor.solve(ws.df_window, f_r, c)
    except lsq.RankDeficient:
        if ws.trace is not None:
            ws.trace.record(f_r, None, None, None)
        picard_update(ws.x, ws.f, omega, ws.scratch)
        # Restart the window: a degenerate column would otherwise force this
        # fallback for m consecutive steps. Dropping the history lets mixing
        # resume on the next step.
        ws.filled = 0
        ws.factor.reset()
        ws.restarts += 1
        return relres, MixingStep(k, c, ws.lipschitz, reason="no-factor")

    rows = None
    if adaptive and not ws.stalled:
        sketch, rec = adaptive_step(ws, config, k, ws.rng, r_step)
        if sketch is not None:
            rows, alpha, r_step = sketch
            ws.last_accept = k
    else:
        rec = MixingStep(k, c, ws.lipschitz,
                         reason="stalled" if ws.stalled else "disabled")
    if ws.trace is not None:
        ws.trace.record(f_r, alpha, r_step, rows)
    anderson_update(ws, alpha, omega)
    return relres, rec


# The per-step arrays of a Trace whose length varies from step to step, and
# their dtypes.
_RAGGED = {"alpha": float, "r_factor": float, "mask": np.int64}


class Trace:
    """The arrays of a traced solve, each stored once.

    The column log keeps every restricted increment column the solve pushed,
    with its dx_norm. Each iteration k >= 1 that does not converge pushes
    exactly one column, log column k - 1, and a window restart only empties
    the window, so the window of the mixing step at iteration k with c
    columns is log columns [k - c, k) (`window`). The log is column-major
    and doubles when full; `increments` and `dx_norms` are valid until the
    next push. Per mixing step, in the order of the report's mask_trace,
    the trace keeps the restricted residual ``f_restricted`` and the
    coefficients ``alpha``, triangular factor ``r_factor`` and sketch rows
    ``mask`` of the least squares used: None after a fallback, and ``mask``
    None for the identity. The step's scalars are its MixingStep.
    """

    def __init__(self, rows: int):
        self._increments = np.zeros((rows, 64), order="F")
        self._dx_norms = np.zeros(64)
        self.size = 0
        self.f_restricted: list[np.ndarray] = []
        self.alpha: list[np.ndarray | None] = []
        self.r_factor: list[np.ndarray | None] = []
        self.mask: list[np.ndarray | None] = []

    def __len__(self) -> int:
        return len(self.f_restricted)

    @property
    def increments(self) -> np.ndarray:
        return self._increments[:, :self.size]

    @property
    def dx_norms(self) -> np.ndarray:
        return self._dx_norms[:self.size]

    def push(self, column: np.ndarray, dx_norm: float):
        """Log one pushed column and its dx_norm."""
        n = self.size
        if n == len(self._dx_norms):
            grown = np.zeros((self._increments.shape[0], 2 * n), order="F")
            grown[:, :n] = self._increments
            self._increments = grown
            self._dx_norms = np.concatenate((self._dx_norms, np.zeros(n)))
        self._increments[:, n] = column
        self._dx_norms[n] = dx_norm
        self.size = n + 1

    def record(self, f_restricted, alpha, r_factor, mask):
        """Keep copies of one mixing step's arrays."""
        self.f_restricted.append(f_restricted.copy())
        for name, piece in zip(_RAGGED, (alpha, r_factor, mask)):
            getattr(self, name).append(None if piece is None else np.array(piece))

    def window(self, rec: MixingStep) -> tuple[np.ndarray, np.ndarray]:
        """The step's window increments and dx_norms, as views of the log."""
        lo, hi = rec.iteration - rec.columns, rec.iteration
        return self._increments[:, lo:hi], self._dx_norms[lo:hi]

    def arrays(self) -> dict[str, np.ndarray]:
        """The trace as plain arrays: the log, the residuals as one row per
        step, and each ragged list flat, with its per-step row counts in
        ``<name>_len``. A zero count stands for None, since a recorded piece
        is never empty; ``r_factor`` rows are as long as the window."""
        rows = self._increments.shape[0]
        out = {
            "increments": self.increments,
            "dx_norms": self.dx_norms,
            "f_restricted": np.array(self.f_restricted, dtype=float)
            .reshape(len(self), rows),
        }
        for name, dtype in _RAGGED.items():
            pieces = getattr(self, name)
            out[name] = np.concatenate(
                [np.zeros(0, dtype)] + [np.ravel(p) for p in pieces if p is not None]
            )
            out[name + "_len"] = np.array(
                [0 if p is None else len(p) for p in pieces], dtype=np.int64
            )
        return out

    @classmethod
    def from_arrays(cls, arrays: dict, records: list[MixingStep]) -> Trace:
        """The trace that `arrays` gave, for the steps ``records``.

        The log and the residuals are the given arrays, and the ragged
        pieces are views of them. Raises KeyError for a missing array, and
        ValueError for shapes, dtypes or lengths that disagree and for
        windows or sketch rows that run past the log or the restricted rows.
        """
        log, dx_norms = arrays["increments"], arrays["dx_norms"]
        if log.ndim != 2 or dx_norms.shape != log.shape[1:]:
            raise ValueError(f"column log has shape {log.shape} and "
                             f"{dx_norms.shape} norms, expected one per column")
        trace = cls(0)
        trace._increments, trace._dx_norms = log, dx_norms
        trace.size = log.shape[1]
        rows, n = log.shape[0], len(records)
        residuals = arrays["f_restricted"]
        if residuals.shape != (n, rows):
            raise ValueError(f"f_restricted has shape {residuals.shape}, "
                             f"expected {(n, rows)}")
        trace.f_restricted = list(residuals)
        if any(not 1 <= r.columns <= r.iteration <= trace.size for r in records):
            raise ValueError("step windows run past the column log")
        widths = np.array([r.columns for r in records], dtype=np.int64)
        for name in _RAGGED:
            flat, lengths = arrays[name], arrays[name + "_len"]
            if lengths.shape != (n,) or lengths.dtype.kind != "i":
                raise ValueError(f"{name}_len is not one integer per step")
            sizes = lengths * widths if name == "r_factor" else lengths
            if flat.ndim != 1 or (lengths < 0).any() or sizes.sum() != flat.size:
                raise ValueError(f"step lengths of {name!r} do not add up to "
                                 f"its {flat.size} entries")
            pieces = np.split(flat, np.cumsum(sizes)[:-1])
            setattr(trace, name, [
                None if k == 0 else p.reshape(k, -1) if name == "r_factor" else p
                for k, p in zip(lengths, pieces)
            ])
        mask = arrays["mask"]
        if mask.dtype.kind != "i" or (
            mask.size and (mask.min() < 0 or mask.max() >= rows)
        ):
            raise ValueError(f"sketch rows run past the {rows} restricted rows")
        return trace


@dataclass
class SolveReport:
    """Outcome of a solve.

    residual_history[k] is |T(x_k)| / |T(x_0)|; entry 0 is 1 by definition
    and one entry follows per iteration, so its length is iterations + 1.
    mask_trace carries one MixingStep per mixing step, and ``trace``, for a
    traced solve, the arrays of those steps. wall_time_seconds
    is measurement, not behavior: identical configurations and seeds give
    identical reports except for it.

    Every mixing step solves the whole window from its kept factor first, so
    the counters split the mixing steps by how that factor was brought up
    to date: ``factor_updates`` by dropping and appending columns,
    ``factor_refreshes`` by a fresh QR of the window after an append lost
    orthogonality. ``window_restarts`` counts the rank-deficient steps that
    emptied the window.
    """

    problem: str
    n: int
    l1: int
    converged: bool
    iterations: int
    residual_history: list[float]
    mask_trace: list[MixingStep]
    wall_time_seconds: float
    final_state: np.ndarray
    omega: float
    window: int
    alternation: int
    config: SolverConfig
    trace: Trace | None = None
    iterates: list[np.ndarray] | None = None
    factor_updates: int = 0
    factor_refreshes: int = 0
    window_restarts: int = 0


def resolve_omega(problem: FixedPointProblem, config: SolverConfig) -> float:
    if config.relaxation is not None:
        return config.relaxation
    if problem.recommended_omega is not None:
        return float(problem.recommended_omega)
    return 1.0


def resolve_window(problem: FixedPointProblem, config: SolverConfig) -> int:
    if config.window is not None:
        return config.window
    if problem.recommended_window is not None:
        return int(problem.recommended_window)
    return DEFAULT_WINDOW


def _resolve_x0(problem, x0):
    if x0 is None:
        if problem.initial_state is not None:
            x0 = problem.initial_state
        else:
            x0 = np.zeros(problem.dimension)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError(
            f"x0 has shape {x0.shape}, expected ({problem.dimension},)"
        )
    if not np.isfinite(x0).all():
        raise ValueError("x0 has non-finite entries")
    return x0


def solve(
    problem: FixedPointProblem,
    config: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    *,
    capture_trace: bool = False,
    keep_iterates: bool = False,
) -> SolveReport:
    """Run the two-level alternating Anderson-Picard iteration.

    Iterates `step` until |T(x_k)| / |T(x_0)| < rel_tolerance or
    max_iterations.

    Two safety valves keep sketching from wrecking a run: coefficient
    vectors past `lsq.COEFF_LIMIT` are handled like rank-deficient solves,
    and a run whose residual stops improving while sketches are being
    accepted turns adaptivity off for good (reason "stalled" in the trace).

    capture_trace keeps a `Trace` of every pushed restricted increment
    column and, per mixing step, the restricted residual, coefficients,
    factor and sketch rows, for offline verification.
    keep_iterates records a copy of x after every update. Both are
    diagnostic modes and allocate.
    """
    t_start = time.perf_counter()
    omega = resolve_omega(problem, config)
    mask = build_static_mask(problem, config.static_mask)
    # A window wider than the restricted row count would make the least
    # squares underdetermined; clamp it.
    m = min(resolve_window(problem, config), len(mask.kept))
    ws = allocate_workspace(problem.dimension, config, mask, window=m)
    if capture_trace:
        ws.trace = Trace(ws.mask.size)

    x0 = _resolve_x0(problem, x0)
    f0 = evaluate_residual(problem, x0)
    norm_f0 = float(np.linalg.norm(f0))
    history = [1.0]
    mask_trace: list[MixingStep] = []
    iterates: list[np.ndarray] | None = [] if keep_iterates else None

    def report(converged, iterations):
        return SolveReport(
            problem=problem.name,
            n=problem.dimension,
            l1=ws.mask.size,
            converged=converged,
            iterations=iterations,
            residual_history=history,
            mask_trace=mask_trace,
            wall_time_seconds=time.perf_counter() - t_start,
            final_state=ws.x.copy(),
            omega=omega,
            window=m,
            alternation=config.alternation,
            config=config,
            trace=ws.trace,
            iterates=iterates,
            factor_updates=ws.factor.updates,
            factor_refreshes=ws.factor.refreshes,
            window_restarts=ws.restarts,
        )

    np.copyto(ws.x, x0)
    np.copyto(ws.f, f0)
    if norm_f0 == 0.0:
        return report(True, 0)

    # Initialization: one relaxed Picard step, so x holds x_1 and (f, g)
    # hold the iteration-0 pair the first increments difference against.
    picard_update(ws.x, ws.f, omega, ws.scratch)
    np.copyto(ws.g, ws.x)
    if keep_iterates:
        iterates.append(ws.x.copy())

    converged = False
    k = 0
    try:
        for k in range(1, config.max_iterations + 1):
            relres, rec = step(ws, problem, config, omega, k, norm_f0, history)
            history.append(relres)
            if relres < config.rel_tolerance:
                converged = True
                break
            if rec is not None:
                mask_trace.append(rec)
            if keep_iterates:
                iterates.append(ws.x.copy())
    except NumericalBreakdown as exc:
        exc.report = report(False, k)
        raise

    return report(converged, k)
