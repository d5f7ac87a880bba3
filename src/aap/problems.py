"""Built-in desk-scale fixed-point problems.

Four residual maps that exercise the solver in different regimes: a dense
SPD linear system (plain Richardson converges, mixing accelerates), a
finite-difference Stokes-like saddle-point system under a block-diagonal
preconditioner (Richardson alone diverges), a regularized p-Laplacian with
a Laplace-stabilized quasi-Newton residual, and an implicit-Euler step of a
two-field bidomain toy with a cubic ionic current.

Grid operators are finite differences on the unit square, and each grid
problem is built from its number of points per side. The inner Laplacian
solves of the saddle and p-Laplacian residuals are fast sine transforms,
so construction stores no factorization; the resulting problem objects
are immutable and cheap to evaluate repeatedly.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .fixed_point import FixedPointProblem

SPECTRUM_LO = 0.1
SPECTRUM_HI = 2.0
# Largest size `build_problem` takes (linear's dimension, the grids' points
# per side). A build and short solve at the recommended window then peak at
# 128 (linear), 6 (saddle), 29 (plaplace) and 191 MiB (bidomain).
MAX_SIZE = {"linear": 2048, "saddle": 65, "plaplace": 257, "bidomain": 257}

Q_LAPLACIAN_REG = 1e-10
# The bidomain toy's physical values; `make_bidomain_toy` says which is which.
BIDOMAIN_DT = 0.5
BIDOMAIN_CONDUCTIVITY = 0.1
BIDOMAIN_CUBIC_C = 1.0
BIDOMAIN_CUBIC_A = 0.1
BIDOMAIN_STIMULUS = 1.0


class ResourceLimit(RuntimeError):
    """Requested problem size exceeds a built-in problem's desk-scale cap."""


def _grid_spacing(points: int) -> float:
    """Spacing h = 1/(points - 1) of a unit-square grid with ``points``
    nodes per side, both boundaries included; at least 3 are needed."""
    if points < 3:
        raise ValueError("points per side must be >= 3")
    return 1.0 / (points - 1)


def make_linear(n: int, seed: int = 0) -> FixedPointProblem:
    """Dense SPD system T(x) = Ax - b with spectrum in [0.1, 2].

    A is a random symmetric matrix rescaled and diagonally shifted so its
    eigenvalues span exactly [SPECTRUM_LO, SPECTRUM_HI]; b is seeded
    Gaussian. The recommended relaxation is 1/lambda_max, which keeps
    plain Richardson contractive.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n))
    sym = 0.5 * (s + s.T)
    ev = np.linalg.eigvalsh(sym)
    scale = (SPECTRUM_HI - SPECTRUM_LO) / (ev[-1] - ev[0])
    a = scale * (sym - ev[0] * np.eye(n)) + SPECTRUM_LO * np.eye(n)
    b = rng.standard_normal(n)

    def residual(x):
        return a @ x - b

    return FixedPointProblem(
        residual=residual,
        dimension=n,
        fields=(("state", (0, n)),),
        recommended_omega=1.0 / SPECTRUM_HI,
        name="linear",
        data={"matrix": a, "rhs": b},
    )


def _component_stiffness(nx: int, ny: int, offset: int = 0):
    """5-point stencil {4, -1} on an nx-by-ny lattice, C-order raveled.

    Stiffness scaling: entries are h-free, so this equals h^2 times the
    finite-difference Laplacian. Neighbors beyond the lattice edge are
    dropped while the diagonal stays at 4, the zero-ghost-value Dirichlet
    closure. Symmetric positive definite for any lattice shape. Returned
    as `_slot_matrix`'s (columns, values), one slot per neighbor at -ny,
    -1, 0, +1 and +ny, with ``offset`` added to every column.
    """
    rows = np.arange(nx * ny)
    i, j = np.divmod(rows, ny)
    present = np.stack([i > 0, j > 0, i >= 0, j < ny - 1, i < nx - 1], axis=1)
    columns = (rows + offset)[:, None] + np.array([-ny, -1, 0, 1, ny])
    return (np.where(present, columns, -1),
            np.broadcast_to([-1.0, -1.0, 4.0, -1.0, -1.0], columns.shape))


def _slot_matrix(columns, values, shape) -> sp.csr_matrix:
    """CSR matrix of ELLPACK-style row slots: row r stores values[r, k] at
    column columns[r, k] >= 0 (-1 marks an empty slot). A row's slots run in
    increasing column order, so the matrix is canonical without a sort."""
    present = columns >= 0
    indptr = np.zeros(len(columns) + 1, dtype=np.int32)
    # Row counts; einsum sums these short rows 4x faster than sum(axis=1).
    np.cumsum(np.einsum("ij->i", present.view(np.uint8)), out=indptr[1:])
    return sp.csr_matrix((values[present], columns[present], indptr), shape=shape)


def sine_solver(shape: tuple[int, int], scale: float = 1.0):
    """Solve with scale * (T_n1 (+) T_n2) on an n1-by-n2 lattice.

    T_k is the tridiagonal (-1, 2, -1) matrix of order k and (+) the
    Kronecker sum, so the operator is ``_component_stiffness(n1, n2)``
    times ``scale``. The orthonormal type-I sine transform diagonalises
    every T_k, with eigenvalues 2 - 2 cos(pi j / (k + 1)), j = 1..k, and is
    its own inverse, so a solve is a transform, a division by the summed
    eigenvalues and a transform back: the fast Poisson solver of Buzbee,
    Golub & Nielson (SIAM J. Numer. Anal. 1970). Returns a callable on
    C-order raveled vectors of ``prod(shape)`` entries.

    Each transform is the pocketfft call that ``scipy.fft.dstn(type=1,
    norm="ortho")`` makes (inorm 1, one thread), without its dispatch,
    which costs more than the transform on these grids. The division and
    the second transform work in place on the first one's fresh output, so
    calls share no buffer. ``tests/test_problems.py`` holds the result
    bitwise equal to the two-``dstn`` composition.
    """
    # Imported here, not with the module: scipy.fft loads scipy.special,
    # about 4 MB of resident memory that the other problems do not need.
    from scipy.fft._pocketfft.pypocketfft import dst

    def ev(k):
        return 2.0 - 2.0 * np.cos(np.pi * np.arange(1, k + 1) / (k + 1))

    n1, n2 = shape
    lam = (ev(n1)[:, None] + ev(n2)[None, :]) * scale
    axes = (0, 1)

    def solve(b):
        out = dst(b.reshape(shape), 1, axes, 1)
        out /= lam
        return dst(out, 1, axes, 1, out).ravel()

    return solve


def make_saddle_point(npts: int) -> FixedPointProblem:
    """Stokes-like block system on a staggered grid, preconditioned.

    Unknowns are face velocities (u on vertical faces, v on horizontal
    faces, no-slip walls) and cell pressures. The block system

        [[K, B^T], [B, 0]] [u; p] = [F; 0]

    uses the vector Laplacian K per velocity component and the discrete
    divergence B, both assembled in stiffness scaling (K entries {4, -1},
    B entries of size h, forcing scaled by h^2): the whole system is h^2
    times its plain finite-difference form, so (u, p) keep their physical
    values while the pressure Schur complement becomes h^2-equivalent and
    the lumped-mass surrogate h^2 I preconditions it with O(1) spectrum.
    Pressure is grounded by replacing the last continuity row with
    h^2 * p_last = 0, which preconditions to unit eigenvalue. The residual

        T([u; p]) = P^{-1} (M [u; p] - [F; 0])

    applies P = blockdiag(K, h^2 I), solving with each velocity component's
    stiffness by `sine_solver`.
    The preconditioned operator is indefinite, so plain Richardson diverges
    here and the mixing steps carry the iteration. ``data`` holds M and
    [F; 0], which the residual reads; K and B are blocks of M.
    """
    h = _grid_spacing(npts)
    nc = npts - 1            # cells per side
    nxu, nyu = npts - 2, nc  # u faces: interior x lines, all cell rows
    nxv, nyv = nc, npts - 2  # v faces: all cell columns, interior y lines
    n_u = n_v = nxu * nyu
    n_vel, n_p = n_u + n_v, nc * nc
    n = n_vel + n_p

    # Row slots: a velocity row's stencil and B^T pair, a continuity row's faces.
    columns = np.full((n, 7), -1, dtype=np.int32)
    values = np.zeros((n, 7))
    columns[:n_u, :5], values[:n_u, :5] = _component_stiffness(nxu, nyu)
    columns[n_u:n_vel, :5], values[n_u:n_vel, :5] = _component_stiffness(nxv, nyv, n_u)
    # Divergence in stiffness scaling: h^2 times the per-cell face balance
    # (u_right - u_left + v_top - v_bottom)/h, so entries are +-h. Boundary
    # faces carry zero velocity. u index (iu, j) is the face at x = (iu+1) h,
    # so the face between cells ci-1 and ci has iu = ci - 1. Cell
    # ci * nc + cj lists its faces in column order: left, right, bottom, top.
    ci, cj = np.divmod(np.arange(n_p), nc)
    faces = np.stack([(ci - 1) * nyu + cj, ci * nyu + cj,
                      n_u + ci * nyv + cj - 1, n_u + ci * nyv + cj], axis=1)
    inside = np.stack([ci > 0, ci < nc - 1, cj > 0, cj < nc - 1], axis=1)
    columns[n_vel:, :4] = np.where(inside, faces, -1)
    values[n_vel:, :4] = -h, h, -h, h
    # B^T, scattered from B: a face is the right or top face (odd slot) of
    # the lower-numbered of its two cells, and the left or bottom of the other.
    cell, slot = np.nonzero(inside)
    columns[faces[inside], 6 - slot % 2] = n_vel + cell
    values[:n_vel, 5:] = h, -h
    # Ground the pressure: h^2 p_last = 0 replaces the last continuity row.
    columns[-1], values[-1, 0] = [n - 1, -1, -1, -1, -1, -1, -1], h * h
    system = _slot_matrix(columns, values, (n, n))

    xs_u = (np.arange(nxu) + 1.0) * h
    ys_u = (np.arange(nyu) + 0.5) * h
    rhs = np.zeros(n)
    rhs[:n_u] = (h * h) * np.outer(np.sin(np.pi * xs_u), np.sin(np.pi * ys_u)).ravel()

    solve_u = sine_solver((nxu, nyu))
    solve_v = sine_solver((nxv, nyv))
    inv_h2 = 1.0 / (h * h)

    def residual(x):
        # system @ x as scipy's _matmul_vector makes it, without dispatch.
        raw = np.zeros(n)
        csr_matvec(n, n, system.indptr, system.indices, system.data, x, raw)
        raw -= rhs
        return np.concatenate((solve_u(raw[:n_u]), solve_v(raw[n_u:n_vel]),
                               raw[n_vel:] * inv_h2))

    return FixedPointProblem(
        residual=residual,
        dimension=n,
        fields=(("velocity", (0, n_vel)), ("pressure", (n_vel, n))),
        recommended_omega=1.0,
        recommended_window=10,
        name="saddle",
        data={"system": system, "rhs": rhs},
    )


def q_laplacian_residual(npts: int, q: float):
    """Raw face-flux q-Laplacian operator F(u) = -div(gamma grad u) - 1.

    gamma = (|grad u|^2 + Q_LAPLACIAN_REG)^((q-2)/2) is evaluated on faces,
    with the tangential derivative at a face averaged from the four
    surrounding faces. Interior unknowns only, zero Dirichlet boundary.
    Returns a callable on raveled interior vectors. At q = 2 the power is
    exactly zero so gamma is identically one and F reduces to the 5-point
    stencil.
    """
    h = _grid_spacing(npts)
    expo = 0.5 * (q - 2.0)
    k = npts - 2

    def apply_2d(uvec):
        full = np.zeros((npts, npts))
        full[1:-1, 1:-1] = uvec.reshape(k, k)
        # Slice differences, which np.diff takes after its own checks.
        dux = (full[1:] - full[:-1]) / h
        duy = (full[:, 1:] - full[:, :-1]) / h
        # tangential averages: four neighbor faces of the other orientation
        ty = 0.25 * (duy[:-1, :-1] + duy[:-1, 1:] + duy[1:, :-1] + duy[1:, 1:])
        tx = 0.25 * (dux[:-1, :-1] + dux[1:, :-1] + dux[:-1, 1:] + dux[1:, 1:])
        gx = dux[:, 1:-1]
        gy = duy[1:-1, :]
        gamma_x = (gx * gx + ty * ty + Q_LAPLACIAN_REG) ** expo
        gamma_y = (gy * gy + tx * tx + Q_LAPLACIAN_REG) ** expo
        flux_x = gamma_x * gx
        flux_y = gamma_y * gy
        div = ((flux_x[1:] - flux_x[:-1]) / h
               + (flux_y[:, 1:] - flux_y[:, :-1]) / h)
        return (-div - 1.0).ravel()

    return apply_2d


def make_p_laplacian(
    npts: int,
    q: float = 1.5,
    beta: float = 10.0,
    init: str = "zero",
) -> FixedPointProblem:
    """Laplace-stabilized quasi-Newton residual for the q-Laplacian.

    T(u) = (1/beta) (-Lap)^{-1} F(u), where F is the raw face-flux
    operator from `q_laplacian_residual` with unit forcing and -Lap is the
    standard 5-point Dirichlet Laplacian on interior nodes,
    inverted by `sine_solver`. The fixed point of
    u <- u - omega T(u) is the discrete q-Laplacian solution; at q = 2 it
    is the plain Poisson solution and T is affine with Jacobian I/beta.

    init = "zero" starts from the zero function (the harmonic extension of
    the boundary data); init = "poisson" starts from the linear solution
    (-Lap)^{-1} 1, which avoids the uniformly flat initial gradient; only
    then is that solve run. ``data`` holds F, which the residual applies.
    """
    if q < 1.0:
        raise ValueError("q must be >= 1")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if init not in ("zero", "poisson"):
        raise ValueError("init must be 'zero' or 'poisson'")
    h = _grid_spacing(npts)
    k = npts - 2
    solve_lap = sine_solver((k, k), 1.0 / (h * h))
    raw = q_laplacian_residual(npts, q)
    n = k * k
    inv_beta = 1.0 / beta

    def residual(u):
        return inv_beta * solve_lap(raw(u))

    x0 = solve_lap(np.ones(n)) if init == "poisson" else None
    return FixedPointProblem(
        residual=residual,
        dimension=n,
        fields=(("interior", (0, n)),),
        recommended_omega=1.0,
        recommended_window=10,
        name="plaplace",
        initial_state=x0,
        data={"apply_q_laplacian": raw},
    )


def neumann_laplacian_apply(field: np.ndarray, h: float) -> np.ndarray:
    """5-point Laplacian with zero-flux walls via edge replication.

    The edge-padded copy is filled strip by strip, cheaper than ``np.pad``;
    its corners stay unset, since the stencil never reads them. The result
    is bitwise that of ``np.pad(field, 1, mode="edge")``.
    """
    padded = np.empty((field.shape[0] + 2, field.shape[1] + 2), field.dtype)
    padded[1:-1, 1:-1] = field
    padded[0, 1:-1] = field[0]
    padded[-1, 1:-1] = field[-1]
    padded[1:-1, 0] = field[:, 0]
    padded[1:-1, -1] = field[:, -1]
    return (
        padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
        - 4.0 * field
    ) / (h * h)


def make_bidomain_toy(npts: int) -> FixedPointProblem:
    """One implicit-Euler step of a two-field bidomain toy.

    State is [u_e; u_i] on a collocated grid with zero-flux walls, with the
    transmembrane potential v = u_e - u_i starting from rest (v0 = 0). The
    residual stacks

        F_e = v/dt - D Lap u_e + I_ion(v) - I_app
        F_i = -v/dt - D Lap u_i - I_ion(v) + I_app

    with the gating-free cubic current I_ion(v) = c v (v - a)(v - 1) and a
    box stimulus I_app on [0, 0.25]^2. The constants are the module's:
    dt = BIDOMAIN_DT = 0.5, D = BIDOMAIN_CONDUCTIVITY = 0.1 for both
    fields, c = BIDOMAIN_CUBIC_C = 1, a = BIDOMAIN_CUBIC_A = 0.1 and
    I_app = BIDOMAIN_STIMULUS = 1 in the box. Both equations are invariant
    under a common constant shift of (u_e, u_i) and the stacked residual
    sums to zero, so the iteration stays on the slice where the shift
    component of the initial guess is preserved. At rest the rate, ionic
    and Laplacian terms vanish, so T(0) = [-I_app; I_app].
    """
    h = _grid_spacing(npts)
    n_field = npts * npts
    coords = np.arange(npts) * h
    in_box = (coords[:, None] <= 0.25) & (coords[None, :] <= 0.25)
    i_app = BIDOMAIN_STIMULUS * in_box.astype(float)
    inv_dt = 1.0 / BIDOMAIN_DT

    def residual(x):
        ue = x[:n_field].reshape(npts, npts)
        ui = x[n_field:].reshape(npts, npts)
        v = ue - ui
        rate = v * inv_dt
        ion = BIDOMAIN_CUBIC_C * v * (v - BIDOMAIN_CUBIC_A) * (v - 1.0)
        fe = (rate - BIDOMAIN_CONDUCTIVITY * neumann_laplacian_apply(ue, h)
              + ion - i_app)
        fi = (-rate - BIDOMAIN_CONDUCTIVITY * neumann_laplacian_apply(ui, h)
              - ion + i_app)
        return np.concatenate([fe.ravel(), fi.ravel()])

    return FixedPointProblem(
        residual=residual,
        dimension=2 * n_field,
        fields=(
            ("extracellular", (0, n_field)),
            ("intracellular", (n_field, 2 * n_field)),
        ),
        recommended_omega=0.01,
        recommended_window=50,
        name="bidomain",
    )


def build_problem(
    name: str, size: int, seed: int = 0, init: str = "zero"
) -> FixedPointProblem:
    """Construct a registered problem by CLI name.

    ``size`` is the system dimension for `linear` and points per side for
    the grid problems. ``init`` selects the starting guess and is only
    meaningful for `plaplace` (it alone offers a non-default one). A size
    above ``MAX_SIZE[name]`` raises ResourceLimit before any allocation.
    """
    if name not in MAX_SIZE:
        raise KeyError(f"unknown problem {name!r}, expected one of {PROBLEM_NAMES}")
    if size > MAX_SIZE[name]:
        raise ResourceLimit(f"{name} size limited to {MAX_SIZE[name]}, got {size}")
    if name == "plaplace":
        return make_p_laplacian(size, init=init)
    if init != "zero":
        raise ValueError(f"problem {name!r} has no {init!r} initial guess")
    if name == "linear":
        return make_linear(size, seed=seed)
    return make_saddle_point(size) if name == "saddle" else make_bidomain_toy(size)


PROBLEM_NAMES = tuple(MAX_SIZE)
