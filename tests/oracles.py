"""Reference implementations used to check the package.

Most of them are written against the underlying mathematics, not against
the package code: dense assemblies use explicit index loops, least squares
goes through the normal equations, and the Krylov reference is a textbook
Arnoldi process. Agreement between these and the package is therefore
evidence, not tautology.

`solve_plain` is the exception. It is the plain alternating loop with
neither restriction, written as directly as possible, and it shares the
package's arithmetic kernels (the Picard update, the window factor, the
mixing matrix-vector product) on purpose: the two-level solver, configured
transparently, must reproduce its iterates bitwise, and only the same
kernels make a bitwise comparison meaningful. `adaptive_step_reference` is
the other exception, for the same reason: the stability guard without its
early exits, taking the SVD of the whole window's factor and of every
sketched factor, and picking rows by a stable sort. The package's guard
skips every SVD and sketch that cannot change a decision, and must reach
the same decisions.
"""
import dataclasses
import math
import time

import numpy as np

from aap import lsq
from aap.fixed_point import evaluate_residual
from aap.sketching import (
    MixingStep,
    budget_weights,
    epsilon_rhs,
    select_randomized,
    sketch_size,
    stability_hypothesis,
)
from aap.solver import (
    SolveReport,
    picard_update,
    resolve_omega,
    resolve_window,
    solve,
)


def gmres_iterates(a, b, x0, steps):
    """Textbook GMRES with modified Gram-Schmidt Arnoldi.

    Returns the list of iterates x_1 ... x_steps, each obtained from the
    Hessenberg least squares at that Krylov dimension.
    """
    n = len(b)
    r0 = b - a @ x0
    beta = np.linalg.norm(r0)
    v = np.zeros((n, steps + 1))
    h = np.zeros((steps + 1, steps))
    v[:, 0] = r0 / beta
    xs = []
    for j in range(steps):
        w = a @ v[:, j]
        for i in range(j + 1):
            h[i, j] = v[:, i] @ w
            w = w - h[i, j] * v[:, i]
        h[j + 1, j] = np.linalg.norm(w)
        if h[j + 1, j] > 1e-300:
            v[:, j + 1] = w / h[j + 1, j]
        e1 = np.zeros(j + 2)
        e1[0] = beta
        y = np.linalg.lstsq(h[: j + 2, : j + 1], e1, rcond=None)[0]
        xs.append(x0 + v[:, : j + 1] @ y)
    return xs


def lstsq_normal_equations(mat, rhs):
    """min |M a - r| via the normal equations M^T M a = M^T r."""
    gram = mat.T @ mat
    return np.linalg.solve(gram, mat.T @ rhs)


def sigma_min_svd(mat):
    return float(np.linalg.svd(np.asarray(mat), compute_uv=False)[-1])


def dense_laplacian_2d(k, h):
    """5-point -Laplacian on a k-by-k interior lattice, zero Dirichlet.

    Assembled entry by entry from the stencil definition, C-order raveled.
    """
    n = k * k
    a = np.zeros((n, n))
    for i in range(k):
        for j in range(k):
            row = i * k + j
            a[row, row] = 4.0
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < k and 0 <= jj < k:
                    a[row, ii * k + jj] = -1.0
    return a / (h * h)


def dense_stiffness(nx, ny):
    """Same 5-point pattern on an nx-by-ny lattice, without the 1/h^2."""
    n = nx * ny
    a = np.zeros((n, n))
    for i in range(nx):
        for j in range(ny):
            row = i * ny + j
            a[row, row] = 4.0
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    a[row, ii * ny + jj] = -1.0
    return a


def dense_saddle_system(npts):
    """Dense staggered Stokes-like block matrix and forcing.

    Independent assembly of the same discretization the package builds
    sparsely: velocity Laplacians in stiffness scaling, divergence entries
    of size +-h cell by cell, last continuity row replaced by h^2 p = 0,
    forcing h^2 sin(pi x) sin(pi y) on the u component. Returns
    (system, rhs, n_u, n_v, n_p).
    """
    h = 1.0 / (npts - 1)
    nc = npts - 1
    nxu, nyu = npts - 2, nc
    nxv, nyv = nc, npts - 2
    n_u, n_v, n_p = nxu * nyu, nxv * nyv, nc * nc
    n = n_u + n_v + n_p

    system = np.zeros((n, n))
    system[:n_u, :n_u] = dense_stiffness(nxu, nyu)
    system[n_u:n_u + n_v, n_u:n_u + n_v] = dense_stiffness(nxv, nyv)

    for ci in range(nc):
        for cj in range(nc):
            cell = n_u + n_v + ci * nc + cj
            if ci <= nxu - 1:
                col = ci * nyu + cj
                system[cell, col] = h
                system[col, cell] = h
            if ci >= 1:
                col = (ci - 1) * nyu + cj
                system[cell, col] = -h
                system[col, cell] = -h
            if cj <= nyv - 1:
                col = n_u + ci * nyv + cj
                system[cell, col] = h
                system[col, cell] = h
            if cj >= 1:
                col = n_u + ci * nyv + cj - 1
                system[cell, col] = -h
                system[col, cell] = -h
    system[n - 1, :] = 0.0
    system[n - 1, n - 1] = h * h

    rhs = np.zeros(n)
    for iu in range(nxu):
        for ju in range(nyu):
            x = (iu + 1.0) * h
            y = (ju + 0.5) * h
            rhs[iu * nyu + ju] = h * h * np.sin(np.pi * x) * np.sin(np.pi * y)
    return system, rhs, n_u, n_v, n_p


def subselection_stable_argsort(f_restricted, l2):
    """Rows of the l2 largest magnitudes by a stable sort, ties toward the
    lower index, in ascending order."""
    order = np.argsort(-np.abs(f_restricted), kind="stable")
    return np.sort(order[:l2])


def adaptive_step_reference(workspace, config, iteration, rng, r_window):
    """The stability guard that takes every SVD.

    Same contract as `aap.sketching.adaptive_step`: the hypothesis is first
    tested with the whole window's exact sigma at eps = 0, then a sketch is
    drawn, factored and tested with its own exact sigma at its eps_rhs.
    """
    ws = workspace
    f_r = ws.f_r
    l1 = f_r.shape[0]
    c = ws.factor.columns
    rec = MixingStep(iteration, c, ws.lipschitz, reason="no-lipschitz")
    if ws.lipschitz <= 0.0:
        return None, rec
    l2 = sketch_size(config.sketch_percent, l1)
    if l2 < c:
        rec.reason = "underdetermined"
        return None, rec

    etas = budget_weights(config.adaptivity, c)
    dx_norms = ws.dx_norms[:c]
    norm_f = float(np.linalg.norm(f_r))
    rec.sigma_min = lsq.estimate_sigma_min(r_window)
    if not stability_hypothesis(
        rec.sigma_min, ws.lipschitz, norm_f, dx_norms, etas, 0.0
    ):
        rec.reason = "lhs-negative"
        return None, rec

    if config.adaptivity.randomized:
        rows = select_randomized(l1, l2, rng)
    else:
        rows = subselection_stable_argsort(f_r, l2)
    rec.eps_rhs = epsilon_rhs(f_r, rows, norm_f)
    rec.reason = "rejected"
    try:
        alpha, r_factor, _ = lsq.qr_masked_solve(ws.df_window, f_r, rows, c)
    except lsq.RankDeficient:
        rec.sigma_min = None
        return None, rec
    rec.sigma_min = lsq.estimate_sigma_min(r_factor)
    if not stability_hypothesis(
        rec.sigma_min, ws.lipschitz, norm_f, dx_norms, etas, rec.eps_rhs
    ):
        return None, rec
    rec.reason = "accepted"
    return (rows, alpha, r_factor), rec


def neumann_laplacian_loops(field, h):
    """Zero-flux 5-point Laplacian by explicit neighbor clamping."""
    k = field.shape[0]
    out = np.zeros_like(field)
    for i in range(k):
        for j in range(k):
            up = field[max(i - 1, 0), j]
            down = field[min(i + 1, k - 1), j]
            left = field[i, max(j - 1, 0)]
            right = field[i, min(j + 1, k - 1)]
            out[i, j] = (up + down + left + right - 4.0 * field[i, j]) / (h * h)
    return out


def shift_window_reference(increments, m):
    """Chronological shift-append window: returns the retained columns.

    ``increments`` is the full list of per-iteration vectors; the reference
    keeps the most recent m in order, the way a naive implementation would.
    """
    kept = increments[-m:] if len(increments) > m else list(increments)
    return [np.asarray(v) for v in kept]


def recording(problem):
    """The problem with a residual that keeps a copy of each state it is
    evaluated at, and the list it keeps them in.

    Both solvers evaluate T once per iterate, at x_0, x_1, ..., so the list
    is the iterate sequence up to the last evaluated iterate.
    """
    states = []

    def residual(x):
        states.append(x.copy())
        return problem.residual(x)

    return dataclasses.replace(problem, residual=residual), states


def matches_plain_loop(problem, config):
    """Whether `aap.solver.solve` visits the iterates of `solve_plain`, bit
    for bit, and ends with the same state and residual history."""
    traced, full_states = recording(problem)
    full = solve(traced, config)
    traced, plain_states = recording(problem)
    plain = solve_plain(traced, config)
    return (
        len(full_states) == len(plain_states) == full.iterations + 1
        and all(np.array_equal(a, b) for a, b in zip(full_states, plain_states))
        and np.array_equal(full.final_state, plain.final_state)
        and full.residual_history == plain.residual_history
    )


def solve_plain(problem, config):
    """Reference alternating Anderson-Picard loop, no masking machinery.

    Full-row windows in chronological order, shifted one column at a time,
    and no restriction, sketch or stall paths. With the two-level solver
    configured transparently (identity level-one mask, adaptivity off) the
    two produce bitwise identical iterate sequences. Starts from the
    problem's initial state, or zero, which must not be a root. Its mixing
    records carry no Lipschitz estimate (NaN), since the loop keeps none.
    """
    t_start = time.perf_counter()
    omega = resolve_omega(problem, config)
    n = problem.dimension
    m = min(resolve_window(problem, config), n)
    p = config.alternation
    x0 = problem.initial_state
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    f_prev = evaluate_residual(problem, x)
    norm_f0 = float(np.linalg.norm(f_prev))
    if norm_f0 == 0.0:
        raise ValueError("x0 is already a root; nothing to compare")
    history = [1.0]
    scratch = np.zeros(n)
    f_window = np.zeros((n, m), order="F")
    g_window = np.zeros((n, m), order="F")
    factor = lsq.WindowFactor(n, m)
    steps = []
    converged = False
    picard_update(x, f_prev, omega, scratch)
    g_prev = x.copy()
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

        if factor.columns == m:
            for j in range(m - 1):
                f_window[:, j] = f_window[:, j + 1]
                g_window[:, j] = g_window[:, j + 1]
        factor.push()
        cols = factor.columns
        f_window[:, cols - 1] = df
        g_window[:, cols - 1] = dg

        picard_update(x, f, omega, scratch)
        if k % p == 0:
            try:
                # The coefficients are those of the newest columns that
                # pass the factor's filter.
                alpha, _, _ = factor.solve(f_window, f)
                kept = len(alpha)
                np.dot(g_window[:, cols - kept:cols], alpha, out=scratch)
                np.subtract(x, scratch, out=x)
                steps.append(MixingStep(k, kept, math.nan, reason="disabled"))
            except lsq.RankDeficient:
                steps.append(MixingStep(k, cols, math.nan, reason="no-factor"))
                factor.reset()

    return SolveReport(
        problem=problem.name,
        n=n,
        l1=n,
        converged=converged,
        iterations=k,
        residual_history=history,
        mask_trace=steps,
        wall_time_seconds=time.perf_counter() - t_start,
        final_state=x.copy(),
        omega=omega,
        window=m,
        config=config,
        filtered=factor.filtered,
    )
