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
`Trace`, which grows by one restricted residual per iteration. The
increment windows slide along buffers a few columns wider than them
(`push_window`).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import lsq
from .fixed_point import (
    FixedPointProblem,
    NumericalBreakdown,
    check_integers,
    evaluate_residual,
    field_rows,
)
from .sketching import (
    Adaptivity,
    MixingStep,
    adaptive_step,
    budget_weights,
    update_lipschitz,
)

DEFAULT_WINDOW = 10

# Sketched least squares can keep a run dancing in a noise band near its
# floor instead of converging. If the residual has not improved by this
# factor over a trailing stretch of iterations in which sketches were
# accepted, adaptivity is switched off for the rest of the run.
STALL_FACTOR = 0.5
# That stretch is this many iterations, or m for a wider window m, so the
# stall rule always looks back over at least one full window.
STALL_SPAN = 10


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
        Picard relaxation omega; None defers to the problem's
        recommendation.
    static_mask
        Field name for the level-one restriction, or None for every row.
    adaptivity
        Level-two sketch strategy, Adaptivity.NONE to disable.
    sketch_percent
        Percentage of restricted rows the sketch keeps.
    rng_seed
        Seed for the randomized sketch, >= 0; fixed seed gives identical
        runs.
    """

    window: int | None = None
    alternation: int = 1
    relaxation: float | None = None
    rel_tolerance: float = 1e-6
    max_iterations: int = 1000
    static_mask: str | None = None
    adaptivity: Adaptivity = Adaptivity.NONE
    sketch_percent: float = 30.0
    rng_seed: int = 0

    def __post_init__(self):
        check_integers(self, "window", "alternation", "max_iterations", "rng_seed")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1")
        if self.alternation < 1:
            raise ValueError("alternation period must be >= 1")
        if self.relaxation is not None and not 0.0 < self.relaxation < math.inf:
            raise ValueError("relaxation must be positive and finite")
        if not 0.0 < self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < self.sketch_percent <= 100.0):
            raise ValueError("sketch_percent must lie in (0, 100]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if not isinstance(self.adaptivity, Adaptivity):
            object.__setattr__(self, "adaptivity", Adaptivity(self.adaptivity))


class Workspace:
    """Every buffer of a run, allocated once, and the run `step` advances.

    Constructing one starts the run at ``x0`` (else the problem's initial
    state, else zeros): T(x0) and, unless x0 is a root, the iteration-0
    Picard step, so ``x`` is x_1 and (``f``, ``g``) the pair the first
    increments difference against. ``step(ws, k)``, k = 1, 2, ..., runs the
    rest. The run is its ``problem``, ``config``, resolved relaxation
    ``omega``, ``norm_f0`` = |T(x0)|, and what `step`'s caller appends to:
    ``history``, the relres of the iterations so far, 1 first, and
    ``steps``, the MixingSteps. ``f_r`` and ``df_r``, the level-one
    restriction, are views of the rows of ``f`` and ``df`` of the field
    ``config.static_mask`` names (every row for None); they are never
    copied, since ``f`` and ``df`` are only ever written in place. The
    window ``m`` is the resolved one, clamped to that row count: a wider
    window would make the least squares underdetermined. ``df_window``
    (restricted rows), ``dg_window`` (full rows) and ``dx_norms`` share one
    chronological column order, oldest first. They are the width-m views at
    ``offset`` into column-major ``buffers`` s columns wider; ``views``
    holds the triple for each offset 0..s, and only `push_window` moves
    them. ``factor``, the Gram matrix of ``df_window`` that every mixing
    step solves from first, is updated as columns enter and leave, and its
    ``columns`` is the windows' width; a restart resets it. ``etas`` holds
    the guard's budget weights of a full window; a window of c columns takes
    the first c, since weight j does not depend on c. ``rng`` draws the
    randomized sketches' rows, and ``lipschitz``, ``stalled`` and
    ``last_accept`` are the guard's state; ``trace``, set only when
    ``capture_trace`` is, keeps the restricted residual of every iteration
    and the arrays of every mixing step. A bad x0 raises ValueError, and an
    overflowing |T(x0)| NumericalBreakdown.
    """

    def __init__(self, problem: FixedPointProblem, config: SolverConfig,
                 x0: np.ndarray | None = None, *, capture_trace: bool = False):
        n = problem.dimension
        rows = field_rows(problem, config.static_mask)
        l1 = rows.stop - rows.start
        m = min(resolve_window(problem, config), l1)
        width = m + _window_slack(m)
        self.problem, self.config, self.m = problem, config, m
        self.omega = resolve_omega(problem, config)
        self.history = [1.0]
        self.steps: list[MixingStep] = []
        self.x, self.f, self.g, self.df, self.dg, self.scratch = (
            np.zeros(n) for _ in range(6))
        self.f_r, self.df_r = self.f[rows], self.df[rows]
        self.buffers = (np.zeros(l1 * width), np.zeros(n * width),
                        np.zeros(width))
        df_buf, dg_buf = (b.reshape((-1, width), order="F")
                          for b in self.buffers[:2])
        self.views = [(df_buf[:, o:o + m], dg_buf[:, o:o + m],
                       self.buffers[2][o:o + m])
                      for o in range(width - m + 1)]
        self.offset = 0
        self.df_window, self.dg_window, self.dx_norms = self.views[0]
        self.factor = lsq.WindowFactor(l1, m)
        self.etas = np.array(budget_weights(config.adaptivity, m))
        self.rng = np.random.default_rng(config.rng_seed)
        self.lipschitz = 0.0
        self.stalled = False
        self.last_accept = -1

        x0 = problem.initial_state if x0 is None else x0
        if x0 is not None:
            x0 = np.asarray(x0, float)
            if x0.shape != (n,):
                raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
            if not np.isfinite(x0).all():
                raise ValueError("x0 has non-finite entries")
            np.copyto(self.x, x0)
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(self.f, evaluate_residual(problem, self.x))
            self.norm_f0 = float(np.linalg.norm(self.f))
        if not math.isfinite(self.norm_f0):
            raise NumericalBreakdown("initial residual norm overflowed")
        self.trace = Trace([self.f_r.copy()], []) if capture_trace else None
        if self.norm_f0 > 0.0:
            with np.errstate(over="ignore"):  # an infinite x_1 fails its T(x) check
                picard_update(self.x, self.f, self.omega, self.scratch)
            np.copyto(self.g, self.x)


def picard_update(x, f, omega, work):
    """Relaxed Picard step x <- x - omega * f, in place; returns x.

    The scaled residual goes through the preallocated buffer ``work``, so
    the update allocates nothing.
    """
    np.multiply(f, omega, out=work)
    np.subtract(x, work, out=x)
    return x


def update_increments(ws: Workspace):
    """Advance residual state by one evaluation, in place.

    df <- T(x) - f_old, dg <- g_new - g_old, then f <- T(x) and
    g <- x - omega * f, with T the run's problem and omega its relaxation.
    Exactly one residual evaluation per call.
    """
    np.copyto(ws.df, ws.f)
    np.copyto(ws.dg, ws.g)
    np.copyto(ws.f, evaluate_residual(ws.problem, ws.x))
    np.multiply(ws.f, ws.omega, out=ws.scratch)
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

    The restricted residual increment df_r, dg and dx_norm enter the same
    column of df_window, dg_window and dx_norms. A window that is not full
    grows by one column; an empty one (a fresh workspace, or one whose
    window restarted by resetting the factor) starts again at offset 0.
    A full window drops its oldest column by sliding its view one column
    along the buffer, and only when the view has reached the end of the
    buffer are its m - 1 newest columns moved to the front, one flat
    column-major move per buffer, before the view goes back to offset 0.
    The window factor is told of the push, which widens the windows.
    """
    filled = ws.factor.columns
    if filled == ws.m:
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
        offset = ws.offset if filled else 0
    ws.offset = offset
    ws.df_window, ws.dg_window, ws.dx_norms = ws.views[offset]
    ws.factor.push()
    j = ws.factor.columns - 1
    ws.df_window[:, j] = ws.df_r
    ws.dg_window[:, j] = ws.dg
    ws.dx_norms[j] = dx_norm


def anderson_update(ws: Workspace, alpha: np.ndarray):
    """Mixing update x <- g - dG alpha, in place.

    ``alpha`` is the window least-squares solution, one coefficient per
    column it was solved over, oldest first; those are the window's newest
    len(alpha) columns. Their dg columns dG are combined by one
    matrix-vector product into scratch, and subtracted from the Picard
    point g that `update_increments` formed.
    """
    c = ws.factor.columns
    np.dot(ws.dg_window[:, c - len(alpha):c], alpha, out=ws.scratch)
    np.subtract(ws.g, ws.scratch, out=ws.x)


def step(ws: Workspace, k: int):
    """Run iteration k of the workspace's run in place; returns (relres,
    record).

    Any workspace whose x0 is not a root can be stepped, from k = 1 on a new
    one; one started at a root raises ValueError. Returns at once, x
    untouched, when relres = |T(x)| / ``ws.norm_f0`` is below the tolerance,
    and raises NumericalBreakdown when it is not finite. Otherwise the
    increments enter the window and, when k = 0 mod p, a mixing step solves
    the window from its Gram matrix over the newest columns that pass the
    factor's filter; with adaptivity on, the guard may replace that
    solution by the one of a row sketch of the same columns it accepts. A
    window none of whose columns pass, or whose coefficients pass
    `lsq.COEFF_LIMIT`, leaves the step without coefficients (reason
    "no-factor") and restarts the window. Every iteration ends in one
    update of x inside the step's overflow guard: the Picard point g
    `update_increments` formed, or `anderson_update`'s g - dG alpha with
    the step's coefficients. The stall detector only reads
    ``ws.history`` (relres of iterations 0..k-1); the caller appends relres.
    ``record`` is the step's MixingStep, None unless it mixed. When
    ``ws.trace`` is set, the step logs the restricted residual there and,
    when it mixed, its arrays.
    """
    if ws.norm_f0 == 0.0:
        raise ValueError("x0 is a root: the run has no step to take")
    # Norms are sqrt(v . v), which is what np.linalg.norm computes for a
    # contiguous real vector, without its per-call checks.
    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow and NaN surface as NumericalBreakdown, here or at the next T(x).
        update_increments(ws)
        relres = math.sqrt(np.dot(ws.f, ws.f)) / ws.norm_f0
        if not math.isfinite(relres):
            raise NumericalBreakdown(f"residual norm overflowed at iteration {k}")
        if relres < ws.config.rel_tolerance:
            return relres, None
        np.multiply(ws.df, ws.omega, out=ws.scratch)
        np.add(ws.scratch, ws.dg, out=ws.scratch)
        # These norms can overflow while ‖f‖ is still finite; the next
        # iteration's check then raises NumericalBreakdown.
        dx_norm = math.sqrt(np.dot(ws.scratch, ws.scratch))
        df_norm = math.sqrt(np.dot(ws.df, ws.df))
    ws.lipschitz = update_lipschitz(ws.lipschitz, df_norm, dx_norm)
    push_window(ws, dx_norm)
    if ws.trace is not None:
        ws.trace.push(ws.f_r, dx_norm)

    adaptive = ws.config.adaptivity is not Adaptivity.NONE
    stall_span = max(ws.m, STALL_SPAN)
    if (
        adaptive
        and not ws.stalled
        and k >= ws.m + stall_span
        and ws.last_accept > k - stall_span
        and relres > STALL_FACTOR * ws.history[k - stall_span]
    ):
        ws.stalled = True

    rec = alpha = r_step = rows = None
    if k % ws.config.alternation == 0:
        c = ws.factor.columns
        try:
            alpha, r_step, r_min = ws.factor.solve(ws.df_window, ws.f_r)
        except lsq.RankDeficient:
            # Restart the window: a degenerate newest column would otherwise
            # cut the filter's run of kept columns for its next m steps.
            ws.factor.reset()
        if alpha is not None and adaptive and not ws.stalled:
            sketch, rec = adaptive_step(ws, k, r_step, r_min)
            if sketch is not None:
                rows, alpha, r_step = sketch
                ws.last_accept = k
        else:
            reason = ("no-factor" if alpha is None
                      else "stalled" if ws.stalled else "disabled")
            rec = MixingStep(k, c if alpha is None else len(alpha),
                             ws.lipschitz, reason=reason)
        if ws.trace is not None:
            ws.trace.record(alpha, r_step, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflowed x fails the next iteration's T(x) check.
        if alpha is None:
            np.copyto(ws.x, ws.g)
        else:
            anderson_update(ws, alpha)
    return relres, rec


class Trace:
    """The arrays of a traced solve, each stored once.

    The log keeps the restricted residual f_r of every iteration that pushed
    a window column, and of iteration 0, with the dx_norm of each push: each
    iteration k >= 1 that does not converge pushes exactly one column, so
    ``residuals[k]`` is f_r(k) and ``dx_norms[k - 1]`` that of iteration k.
    The solver forms each pushed increment as f_r(k) - f_r(k - 1), and a
    window restart only empties the window, so the window of the mixing
    step at iteration k with c columns is the differences of logged columns
    k - c .. k, bitwise the columns pushed (`window`), and its residual is
    logged column k (`residual`). Per mixing step, in the order of the
    report's mask_trace, the trace keeps the coefficients ``alpha``,
    triangular factor ``r_factor`` and sketch rows ``mask`` of the least
    squares used: None after a fallback, and ``mask`` None for the identity.
    The step's scalars are its MixingStep. `bench.write_trace` stores a
    trace in a file and `bench.load_trace` reads it back.
    """

    def __init__(self, residuals: list[np.ndarray], dx_norms: list[float],
                 alpha=None, r_factor=None, mask=None):
        """A trace over the logged columns ``residuals`` and the
        ``dx_norms`` of their pushes, with the given per-step arrays (none
        by default), each kept without a copy."""
        self.residuals, self.dx_norms = residuals, dx_norms
        self.alpha: list[np.ndarray | None] = alpha or []
        self.r_factor: list[np.ndarray | None] = r_factor or []
        self.mask: list[np.ndarray | None] = mask or []

    def __len__(self) -> int:
        return len(self.alpha)

    def push(self, f_r: np.ndarray, dx_norm: float):
        """Log a copy of one iteration's restricted residual, and its dx_norm."""
        self.residuals.append(f_r.copy())
        self.dx_norms.append(dx_norm)

    def record(self, alpha, r_factor, mask):
        """Keep copies of one mixing step's least-squares arrays."""
        for pieces, piece in ((self.alpha, alpha), (self.r_factor, r_factor),
                              (self.mask, mask)):
            pieces.append(None if piece is None else np.array(piece))

    def window(self, rec: MixingStep) -> tuple[np.ndarray, np.ndarray]:
        """The step's window increments, from its c + 1 logged columns
        stacked column-major as the solver's window is (so products round as
        the solver's do), and its dx_norms."""
        lo, hi = rec.iteration - rec.columns, rec.iteration
        log = np.array(self.residuals[lo:hi + 1]).T
        return np.diff(log, axis=1), np.array(self.dx_norms[lo:hi])

    def residual(self, rec: MixingStep) -> np.ndarray:
        """The step's restricted residual, the logged column."""
        return self.residuals[rec.iteration]


@dataclass
class SolveReport:
    """Outcome of a solve.

    residual_history[k] is |T(x_k)| / |T(x_0)|; entry 0 is 1 by definition
    and one entry follows per iteration, so its length is iterations + 1.
    The report of a `NumericalBreakdown` at iteration k has no entry for k,
    whose norm overflowed, so its history has iterations entries.
    mask_trace carries one MixingStep per mixing step, and ``trace``, for a
    traced solve, the arrays of those steps. wall_time_seconds
    is measurement, not behavior: identical configurations and seeds give
    identical reports except for it.

    Every mixing step solves the window from its Gram matrix first, over
    the newest columns that pass the factor's filter; ``filtered`` counts
    the mixing steps at which the filter left older columns out. A
    fallback (reason "no-factor") empties the window, so the fallback
    records count the restarts.
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
    config: SolverConfig
    trace: Trace | None = None
    filtered: int = 0


def resolve_omega(problem: FixedPointProblem, config: SolverConfig) -> float:
    if config.relaxation is not None:
        return config.relaxation
    return float(problem.recommended_omega)


def resolve_window(problem: FixedPointProblem, config: SolverConfig) -> int:
    if config.window is not None:
        return config.window
    if problem.recommended_window is not None:
        return int(problem.recommended_window)
    return DEFAULT_WINDOW


def _report(ws: Workspace, iterations: int, t_start: float) -> SolveReport:
    """The report of the run in ``ws`` after ``iterations`` iterations (k
    for a breakdown at k); it holds no reference to ``ws``."""
    converged = (ws.history[-1] < ws.config.rel_tolerance
                 if len(ws.history) > 1 else ws.norm_f0 == 0.0)
    return SolveReport(
        problem=ws.problem.name, n=ws.problem.dimension, l1=ws.f_r.size,
        converged=converged, iterations=iterations,
        residual_history=ws.history, mask_trace=ws.steps,
        wall_time_seconds=time.perf_counter() - t_start,
        final_state=ws.x.copy(), omega=ws.omega, window=ws.m,
        config=ws.config, trace=ws.trace, filtered=ws.factor.filtered)


def solve(
    problem: FixedPointProblem,
    config: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    *,
    capture_trace: bool = False,
) -> SolveReport:
    """Run the two-level alternating Anderson-Picard iteration.

    Iterates `step` until |T(x_k)| / |T(x_0)| < rel_tolerance or
    max_iterations.

    Two safety valves keep sketching from wrecking a run: coefficient
    vectors past `lsq.COEFF_LIMIT` are handled like rank-deficient solves,
    and a run whose residual stops improving while sketches are being
    accepted turns adaptivity off for good (reason "stalled" in the trace).

    capture_trace keeps a `Trace` of the restricted residual of every
    iteration, from which each step's window follows, and, per mixing step,
    the coefficients, factor and sketch rows, for offline verification; it
    is a diagnostic mode and allocates.
    """
    t_start = time.perf_counter()
    ws = Workspace(problem, config, x0, capture_trace=capture_trace)
    k = 0
    try:
        while ws.norm_f0 > 0.0 and k < config.max_iterations:
            k += 1
            relres, rec = step(ws, k)
            ws.history.append(relres)
            if relres < config.rel_tolerance:
                break
            if rec is not None:
                ws.steps.append(rec)
    except NumericalBreakdown as exc:
        exc.report = _report(ws, k, t_start)
        raise
    return _report(ws, k, t_start)
