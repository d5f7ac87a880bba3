"""Alternating Anderson-Picard iteration with two-level residual masking.

The driver repeats relaxed Picard steps x <- x - omega * T(x) and, every
p-th iteration, replaces the step with an Anderson mixing update built from
a window of past increments. The window least squares can be restricted
twice: statically to a physics field (level one) and dynamically to a
guarded row sketch (level two). With both restrictions off, the loop is the
plain alternating scheme; `solve_plain` implements that reference path
directly and the two paths produce bitwise identical iterates.

All solver buffers are allocated once up front; the iteration body works
in place and does not grow the heap as it runs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import lsq
from .fixed_point import FixedPointProblem, NumericalBreakdown, evaluate_residual
from .sketching import (
    Adaptivity,
    MaskOperator,
    StabilityTrace,
    adaptive_step,
    build_static_mask,
)

DEFAULT_WINDOW = 10

# Mixing coefficients beyond this magnitude mean the window fit is
# numerically meaningless (healthy runs stay several orders below it);
# the step is treated like a rank-deficient solve.
COEFF_LIMIT = 1e8

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
    sigma_min_iterations
        Inverse-power sweeps used by the guard's sigma_min estimate (1 to 5).
    strict_stability
        Reduce the budget over columns with min instead of max.
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
    sigma_min_iterations: int = 3
    strict_stability: bool = False
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
        if not (1 <= self.sigma_min_iterations <= 5):
            raise ValueError("sigma_min_iterations must lie in [1, 5]")
        if not isinstance(self.adaptivity, Adaptivity):
            object.__setattr__(self, "adaptivity", Adaptivity(self.adaptivity))


@dataclass
class Workspace:
    """Preallocated solver state.

    The increment window ``df_window`` (restricted rows) is stored in
    chronological column order and shifts left when full. ``dg_window``
    is circulant: the increment of iteration k lands in column (k+1) mod m,
    so no column data moves after it is written. ``dx_norms`` is aligned
    with ``df_window``. ``factor`` is the thin QR factor of ``df_window``
    that unsketched mixing steps solve from; it is updated as columns enter
    and leave instead of being recomputed. ``r_factor`` holds the triangular
    factor of the last completed mixing step (sketched or not) for the
    stability guard. ``allocations`` counts buffer allocations made on
    behalf of this workspace; it must not grow once the solve is running.
    """

    n: int
    m: int
    l1: int
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
    alpha: np.ndarray
    factor: lsq.WindowFactor
    r_factor: np.ndarray | None
    r_cols: int = 0
    filled: int = 0
    newest: int = 0
    last_k: int = 0
    lipschitz: float = 0.0
    allocations: int = 0


def allocate_workspace(
    n: int,
    config: SolverConfig,
    mask: MaskOperator | None = None,
    window: int | None = None,
) -> Workspace:
    """Allocate every buffer the iteration needs, once.

    ``mask`` is the resolved level-one restriction (None means identity).
    The restricted mirrors f_sub / df_sub exist only for a real restriction,
    and the triangular-factor buffer exists only when adaptivity is on.
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
    count = 0

    def new(*shape, order="C"):
        nonlocal count
        count += 1
        return np.zeros(shape, order=order)

    restricted = not mask.is_identity
    ws = Workspace(
        n=n,
        m=m,
        l1=l1,
        mask=mask,
        x=new(n),
        f=new(n),
        g=new(n),
        df=new(n),
        dg=new(n),
        scratch=new(n),
        f_sub=new(l1) if restricted else None,
        df_sub=new(l1) if restricted else None,
        df_window=new(l1, m, order="F"),
        dg_window=new(n, m, order="F"),
        dx_norms=new(m),
        alpha=new(m),
        factor=lsq.WindowFactor(l1, m),
        r_factor=new(m, m) if config.adaptivity is not Adaptivity.NONE else None,
    )
    ws.allocations = count
    return ws


def picard_update(x, f, omega, work=None):
    """Relaxed Picard step x <- x - omega * f, in place; returns x.

    With ``work`` given, the scaled residual goes through the preallocated
    scratch buffer and the update allocates nothing.
    """
    if work is None:
        x -= omega * f
    else:
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


def push_window(ws: Workspace, k: int, dx_norm: float):
    """Append the iteration-k increments to the windows.

    The restricted residual increment (df_sub, or df when the level-one mask
    is identity) enters df_window chronologically, dropping the oldest
    column when full, and the window factor is told of it. dg enters
    dg_window at column (k+1) mod m.
    """
    m = ws.m
    df_src = ws.df_sub if ws.df_sub is not None else ws.df
    if ws.filled == m:
        _shift_left(ws.df_window)
        ws.dx_norms[:-1] = ws.dx_norms[1:]
        ws.df_window[:, m - 1] = df_src
        ws.dx_norms[m - 1] = dx_norm
    else:
        ws.df_window[:, ws.filled] = df_src
        ws.dx_norms[ws.filled] = dx_norm
        ws.filled += 1
    ws.factor.push()
    ws.newest = (k + 1) % m
    ws.dg_window[:, ws.newest] = ws.dg
    ws.last_k = k


def _shift_left(window: np.ndarray):
    """Move the columns of a column-major window one place left, in place.

    One overlapping move of the flat buffer: numpy copies a forward 1-D
    overlap directly, where a 2-D slice assignment would first copy the
    whole window to a temporary.
    """
    if not window.flags.f_contiguous:
        raise ValueError("window must be column-major")
    flat = window.reshape(-1, order="F")
    flat[: -window.shape[0]] = flat[window.shape[0]:]


def _axpy(a, v, out, work):
    """out += a * v through a preallocated scratch buffer."""
    np.multiply(v, a, out=work)
    np.add(out, work, out=out)


def anderson_update(ws: Workspace, alpha: np.ndarray, omega: float, k: int):
    """Mixing update x <- x - omega * f + sum_i alpha_i * dg_i, in place.

    ``alpha`` has one coefficient per filled column, chronological order
    (oldest first). The circulant dg columns are visited through the
    chronology-to-storage permutation and accumulated oldest to newest.
    """
    c = len(alpha)
    picard_update(ws.x, ws.f, omega, ws.scratch)
    for i in range(c):
        col = (k - c + i + 2) % ws.m
        _axpy(alpha[i], ws.dg_window[:, col], ws.x, ws.scratch)
    return ws.x


@dataclass
class TraceStep:
    """Snapshot of one mixing step, recorded when tracing is on."""

    iteration: int
    columns: int
    window_increments: np.ndarray
    dx_norms: np.ndarray
    f_restricted: np.ndarray
    alpha: np.ndarray | None
    r_factor: np.ndarray | None
    mask: np.ndarray | None
    lipschitz: float
    sigma_min: float | None
    eps_lhs: float | None
    eps_rhs: float | None
    etas: tuple[float, ...] | None
    accepted: bool
    fallback: bool


@dataclass
class SolveReport:
    """Outcome of a solve.

    residual_history[k] is |T(x_k)| / |T(x_0)|; entry 0 is 1 by definition
    and one entry follows per iteration, so its length is iterations + 1.
    mask_trace carries one StabilityTrace per mixing step. wall_time_seconds
    is measurement, not behavior: identical configurations and seeds give
    identical reports except for it.

    The counters split the unsketched mixing steps by how the window factor
    was brought up to date: ``factor_updates`` by dropping and appending
    columns, ``factor_refreshes`` by a fresh QR of the window after an
    append lost orthogonality. ``window_restarts`` counts the rank-deficient
    steps that emptied the window.
    """

    problem: str
    n: int
    l1: int
    converged: bool
    iterations: int
    residual_history: list[float]
    mask_trace: list[StabilityTrace]
    wall_time_seconds: float
    final_state: np.ndarray
    omega: float
    window: int
    alternation: int
    config: SolverConfig
    trace: list[TraceStep] | None = None
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

    Iterates until |T(x_k)| / |T(x_0)| < rel_tolerance or max_iterations.
    The convergence check uses the freshly evaluated residual at the top of
    each iteration. Mixing runs on iterations k with k = 0 mod p over the
    filled window columns; a rank-deficient least squares degrades that step
    to plain Picard, flags it in the mask trace, and restarts the window.

    Two safety valves keep sketching from wrecking a run: coefficient
    vectors past COEFF_LIMIT are handled like rank-deficient solves, and a
    run whose residual stops improving while sketches are being accepted
    turns adaptivity off for good (reason "stalled" in the trace).

    capture_trace records per-mixing-step window snapshots (full restricted
    increments, masks, coefficients, factors) for offline verification.
    keep_iterates records a copy of x after every update. Both are
    diagnostic modes and allocate; the plain loop does not.
    """
    t_start = time.perf_counter()
    omega = resolve_omega(problem, config)
    mask = build_static_mask(problem, config.static_mask)
    # A window wider than the restricted row count would make the least
    # squares underdetermined; clamp it.
    m = min(resolve_window(problem, config), len(mask.kept))
    p = config.alternation
    ws = allocate_workspace(problem.dimension, config, mask, window=m)
    rng = np.random.default_rng(config.rng_seed)
    adaptive = config.adaptivity is not Adaptivity.NONE
    stall_span = max(m, DEFAULT_WINDOW)
    stalled = False
    last_accept = -1
    restarts = 0

    x0 = _resolve_x0(problem, x0)
    f0 = evaluate_residual(problem, x0)
    norm_f0 = float(np.linalg.norm(f0))
    history = [1.0]
    mask_trace: list[StabilityTrace] = []
    trace: list[TraceStep] | None = [] if capture_trace else None
    iterates: list[np.ndarray] | None = [] if keep_iterates else None

    def report(converged, iterations):
        return SolveReport(
            problem=problem.name,
            n=problem.dimension,
            l1=ws.l1,
            converged=converged,
            iterations=iterations,
            residual_history=history,
            mask_trace=mask_trace,
            wall_time_seconds=time.perf_counter() - t_start,
            final_state=ws.x.copy(),
            omega=omega,
            window=m,
            alternation=p,
            config=config,
            trace=trace,
            iterates=iterates,
            factor_updates=ws.factor.updates,
            factor_refreshes=ws.factor.refreshes,
            window_restarts=restarts,
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
            update_increments(ws, problem, omega)
            relres = float(np.linalg.norm(ws.f)) / norm_f0
            history.append(relres)
            if relres < config.rel_tolerance:
                converged = True
                break

            np.multiply(ws.df, omega, out=ws.scratch)
            np.add(ws.scratch, ws.dg, out=ws.scratch)
            dx_norm = float(np.linalg.norm(ws.scratch))
            if dx_norm > 0.0:
                df_norm = float(np.linalg.norm(ws.df))
                ws.lipschitz = max(ws.lipschitz, df_norm / dx_norm)

            if ws.f_sub is not None:
                np.take(ws.f, mask.kept, out=ws.f_sub)
                np.take(ws.df, mask.kept, out=ws.df_sub)
            push_window(ws, k, dx_norm)

            if (
                adaptive
                and not stalled
                and k >= m + stall_span
                and last_accept > k - stall_span
                and relres > STALL_FACTOR * history[k - stall_span]
            ):
                stalled = True

            if k % p == 0:
                rows = None
                if adaptive and not stalled:
                    rows, rec = adaptive_step(ws, config, problem.dimension, k, rng)
                    if rec.accepted:
                        last_accept = k
                else:
                    rec = StabilityTrace(
                        iteration=k,
                        lipschitz=ws.lipschitz,
                        reason="stalled" if stalled else "disabled",
                    )
                mask_trace.append(rec)

                c = ws.filled
                f_r = ws.f_sub if ws.f_sub is not None else ws.f
                alpha_ls = None
                r_step = None
                try:
                    if rows is None:
                        a_try, r_try = ws.factor.solve(ws.df_window, f_r, c)
                    else:
                        a_try, r_try = lsq.qr_masked_solve(
                            ws.df_window, f_r, rows, c
                        )
                    if float(np.abs(a_try).max()) > COEFF_LIMIT:
                        raise lsq.RankDeficient(
                            "mixing coefficients exceed the stability limit"
                        )
                    alpha_ls, r_step = a_try, r_try
                    if ws.r_factor is not None:
                        ws.r_factor[:c, :c] = r_step
                        ws.r_cols = c
                    alpha_mix = ws.alpha[:c]
                    np.negative(alpha_ls, out=alpha_mix)
                    anderson_update(ws, alpha_mix, omega, k)
                except lsq.RankDeficient:
                    rec.fallback = True
                    picard_update(ws.x, ws.f, omega, ws.scratch)
                    # Restart the window: a degenerate column would otherwise
                    # force this fallback for m consecutive steps. Dropping
                    # the history lets mixing resume on the next step.
                    ws.filled = 0
                    ws.r_cols = 0
                    ws.factor.reset()
                    restarts += 1
                if capture_trace:
                    trace.append(
                        TraceStep(
                            iteration=k,
                            columns=c,
                            window_increments=ws.df_window[:, :c].copy(),
                            dx_norms=ws.dx_norms[:c].copy(),
                            f_restricted=f_r.copy(),
                            alpha=None if alpha_ls is None else alpha_ls.copy(),
                            r_factor=None if r_step is None else r_step.copy(),
                            mask=None if rows is None else np.asarray(rows).copy(),
                            lipschitz=ws.lipschitz,
                            sigma_min=rec.sigma_min,
                            eps_lhs=rec.eps_lhs,
                            eps_rhs=rec.eps_rhs,
                            etas=rec.etas,
                            accepted=rec.accepted,
                            fallback=rec.fallback,
                        )
                    )
            else:
                picard_update(ws.x, ws.f, omega, ws.scratch)
            if keep_iterates:
                iterates.append(ws.x.copy())
    except NumericalBreakdown as exc:
        exc.report = report(False, k)
        raise

    return report(converged, k)


def solve_plain(
    problem: FixedPointProblem,
    config: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    *,
    keep_iterates: bool = False,
) -> SolveReport:
    """Reference alternating Anderson-Picard loop, no masking machinery.

    Full-window storage with plain chronological shifting, the same
    arithmetic kernels as `solve`, and no restriction or sketch paths.
    With the two-level solver configured transparently (identity level-one
    mask, 100 percent sketch, adaptivity off) the two produce bitwise
    identical iterate sequences.
    """
    t_start = time.perf_counter()
    omega = resolve_omega(problem, config)
    n = problem.dimension
    m = min(resolve_window(problem, config), n)
    p = config.alternation

    x0 = _resolve_x0(problem, x0)
    f0 = evaluate_residual(problem, x0)
    norm_f0 = float(np.linalg.norm(f0))
    history = [1.0]
    iterates: list[np.ndarray] | None = [] if keep_iterates else None
    scratch = np.zeros(n)

    x = x0.copy()
    f_prev = f0.copy()
    if norm_f0 == 0.0:
        return SolveReport(
            problem=problem.name,
            n=n,
            l1=n,
            converged=True,
            iterations=0,
            residual_history=history,
            mask_trace=[],
            wall_time_seconds=time.perf_counter() - t_start,
            final_state=x,
            omega=omega,
            window=m,
            alternation=p,
            config=config,
            iterates=iterates,
        )

    picard_update(x, f_prev, omega, scratch)
    g_prev = x.copy()
    if keep_iterates:
        iterates.append(x.copy())

    f_window = np.zeros((n, m), order="F")
    g_window = np.zeros((n, m), order="F")
    factor = lsq.WindowFactor(n, m)
    cols = 0
    restarts = 0
    converged = False
    k = 0
    for k in range(1, config.max_iterations + 1):
        f = evaluate_residual(problem, x)
        np.multiply(f, omega, out=scratch)
        g = np.subtract(x, scratch)
        df = np.subtract(f, f_prev)
        dg = np.subtract(g, g_prev)
        f_prev = f
        g_prev = g

        relres = float(np.linalg.norm(f)) / norm_f0
        history.append(relres)
        if relres < config.rel_tolerance:
            converged = True
            break

        if cols == m:
            for j in range(m - 1):
                f_window[:, j] = f_window[:, j + 1]
                g_window[:, j] = g_window[:, j + 1]
            f_window[:, m - 1] = df
            g_window[:, m - 1] = dg
        else:
            f_window[:, cols] = df
            g_window[:, cols] = dg
            cols += 1
        factor.push()

        if k % p == 0:
            try:
                alpha, _ = factor.solve(f_window, f, cols)
                if float(np.abs(alpha).max()) > COEFF_LIMIT:
                    raise lsq.RankDeficient(
                        "mixing coefficients exceed the stability limit"
                    )
                picard_update(x, f, omega, scratch)
                for i in range(cols):
                    _axpy(-alpha[i], g_window[:, i], x, scratch)
            except lsq.RankDeficient:
                picard_update(x, f, omega, scratch)
                cols = 0
                factor.reset()
                restarts += 1
        else:
            picard_update(x, f, omega, scratch)
        if keep_iterates:
            iterates.append(x.copy())

    return SolveReport(
        problem=problem.name,
        n=n,
        l1=n,
        converged=converged,
        iterations=k,
        residual_history=history,
        mask_trace=[],
        wall_time_seconds=time.perf_counter() - t_start,
        final_state=x.copy(),
        omega=omega,
        window=m,
        alternation=p,
        config=config,
        iterates=iterates,
        factor_updates=factor.updates,
        factor_refreshes=factor.refreshes,
        window_restarts=restarts,
    )
