"""Two-level residual restriction and the stability guard.

Level one is a static mask picked from the problem's field layout (for
example, pressure rows only). Level two is a dynamic row sketch chosen per
mixing step, guarded so the perturbation it introduces into the mixing least
squares stays provably bounded: the guard compares the relative perturbation
the sketch would cause (eps_rhs) against a budget derived from the window's
conditioning and the operator's Lipschitz estimate (eps_lhs) and falls back
to the identity whenever the budget is not clearly sufficient.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .fixed_point import FixedPointProblem, field_indices
from .lsq import RankDeficient, estimate_sigma_min

# Inverse-power sweeps behind the guard's sigma_min estimate.
SIGMA_MIN_SWEEPS = 3


class InvalidMask(ValueError):
    """Mask index set is empty, unsorted, duplicated, or out of range."""


class Adaptivity(str, enum.Enum):
    """Dynamic sketch strategy: how rows are picked and how the per-column
    budget weights grow with column age."""

    NONE = "none"
    SUBSELECT_POWER = "subselect-power"
    SUBSELECT_CONSTANT = "subselect-constant"
    RANDOMIZED_POWER = "randomized-power"
    RANDOMIZED_CONSTANT = "randomized-constant"

    @property
    def randomized(self) -> bool:
        return self in (Adaptivity.RANDOMIZED_POWER, Adaptivity.RANDOMIZED_CONSTANT)

    @property
    def eta_kind(self) -> str:
        if self in (Adaptivity.SUBSELECT_POWER, Adaptivity.RANDOMIZED_POWER):
            return "power"
        return "constant"


@dataclass(frozen=True)
class MaskOperator:
    """Restriction to a sorted subset of coordinates.

    ``kept`` holds strictly increasing indices into [0, dim). The associated
    orthogonal projector P keeps the listed coordinates and zeroes the rest.
    """

    kept: np.ndarray
    dim: int

    def __post_init__(self):
        kept = np.asarray(self.kept, dtype=np.intp)
        object.__setattr__(self, "kept", kept)
        if kept.size == 0:
            raise InvalidMask("mask keeps nothing")
        if kept[0] < 0 or kept[-1] >= self.dim:
            raise InvalidMask(f"indices outside [0, {self.dim})")
        if np.any(np.diff(kept) <= 0):
            raise InvalidMask("indices must be strictly increasing")

    @property
    def is_identity(self) -> bool:
        return self.kept.size == self.dim

    @property
    def size(self) -> int:
        return int(self.kept.size)


def identity_mask(dim: int) -> MaskOperator:
    return MaskOperator(kept=np.arange(dim), dim=dim)


def build_static_mask(problem: FixedPointProblem, spec) -> MaskOperator:
    """Resolve the level-one mask.

    ``spec`` may be None (identity), a field name from the problem layout,
    or an explicit index array. Raises UnknownField for a bad name and
    InvalidMask for a malformed index set.
    """
    if spec is None:
        return identity_mask(problem.dimension)
    if isinstance(spec, str):
        return MaskOperator(kept=field_indices(problem, spec), dim=problem.dimension)
    return MaskOperator(kept=np.asarray(spec, dtype=np.intp), dim=problem.dimension)


def update_lipschitz(l_prev: float, df_norm: float, dx_norm: float) -> float:
    """Running Lipschitz estimate max(L_prev, |df| / |dx|), from the norms.

    A zero displacement carries no information and leaves the estimate
    unchanged.
    """
    if dx_norm > 0.0:
        return max(l_prev, df_norm / dx_norm)
    return l_prev


def eta(j: int, kind: str, exponent: float = 1.1) -> float:
    """Per-column budget weight: j**exponent for "power", 1 for "constant".

    Columns are indexed chronologically, oldest first, starting at 1.
    """
    if j < 1:
        raise ValueError("column index starts at 1")
    if kind == "power":
        return float(j) ** exponent
    if kind == "constant":
        return 1.0
    raise ValueError(f"unknown eta kind {kind!r}")


def epsilon_lhs(
    n_dim: int,
    sigma_min: float,
    lipschitz: float,
    norm_f: float,
    dx_norms: np.ndarray,
    etas: np.ndarray,
) -> float:
    """Perturbation budget for the sketch, possibly negative.

    Evaluates n_dim * eta_j * sigma_min / (L * |f| * |dx_j|) - 1 over the
    window columns and reduces with max.
    Plain 2-norms are expected; together with the n_dim factor this is the
    dimension-scaled norm convention |v|^2 = (1/N) sum v_i^2. Columns with
    zero displacement are skipped; with no usable column the budget is -1
    (sketch disabled for the step).
    """
    if lipschitz <= 0.0 or norm_f <= 0.0:
        raise ValueError("lipschitz and norm_f must be positive")
    terms = []
    for eta_j, dx_j in zip(etas, dx_norms):
        if dx_j == 0.0:
            continue
        terms.append(n_dim * eta_j * sigma_min / (lipschitz * norm_f * dx_j))
    if not terms:
        return -1.0
    return float(max(terms)) - 1.0


def epsilon_rhs(f_restricted: np.ndarray, kept: np.ndarray) -> float:
    """Relative residual mass the sketch would discard, |(I-P) f| / |f|.

    ``kept`` lists the retained rows. An empty selection (rejected upstream)
    returns 1; a zero residual returns 0. The discarded mass is accumulated
    directly over the dropped entries (not by subtracting squared norms), so
    the result is exactly zero whenever every dropped entry is zero.
    """
    total = float(np.linalg.norm(f_restricted))
    if total == 0.0:
        return 0.0
    if len(kept) == 0:
        return 1.0
    removed = np.delete(f_restricted, kept)
    return min(1.0, float(np.linalg.norm(removed)) / total)


def select_subselection(f_restricted: np.ndarray, l2: int) -> np.ndarray:
    """Rows of the l2 largest residual magnitudes, ascending index order.

    Ties break toward the lower index (stable sort on magnitude).
    """
    if not (1 <= l2 <= f_restricted.size):
        raise ValueError(f"l2={l2} outside [1, {f_restricted.size}]")
    order = np.argsort(-np.abs(f_restricted), kind="stable")
    return np.sort(order[:l2])


def select_randomized(l1: int, l2: int, rng: np.random.Generator) -> np.ndarray:
    """l2 rows drawn uniformly without replacement, ascending index order."""
    if not (1 <= l2 <= l1):
        raise ValueError(f"l2={l2} outside [1, {l1}]")
    return np.sort(rng.choice(l1, size=l2, replace=False))


def sketch_size(percent: float, l1: int) -> int:
    """Row count for a percentage sketch: max(1, round(percent * l1 / 100))."""
    if not (0.0 < percent <= 100.0):
        raise ValueError("sketch percent must lie in (0, 100]")
    return max(1, int(round(percent * l1 / 100.0)))


@dataclass
class StabilityTrace:
    """Per-mixing-step record of the guard's decision.

    ``reason`` is one of: "accepted", "rejected", "no-factor",
    "no-lipschitz", "lhs-negative", "underdetermined", "disabled".
    ``fallback`` flags a rank-deficient least squares that degraded the
    step to plain Picard.
    """

    iteration: int
    lipschitz: float
    sigma_min: float | None = None
    eps_lhs: float | None = None
    eps_rhs: float | None = None
    ell2: int | None = None
    accepted: bool = False
    etas: tuple[float, ...] | None = None
    reason: str = "disabled"
    fallback: bool = False


def adaptive_step(
    workspace,
    config,
    n_dim: int,
    iteration: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray | None, StabilityTrace]:
    """Decide the level-two sketch for one mixing step.

    Uses the triangular factor stored at the most recent completed mixing
    step to estimate the window's smallest singular value, computes the
    budget eps_lhs from it, proposes a row set by the configured strategy,
    and accepts it only when 0 < eps_rhs <= eps_lhs. Every other outcome
    falls back to the identity with the reason recorded.

    Returns (rows, record): rows is None for the identity decision.
    """
    ws = workspace
    f_r = ws.f_sub if ws.f_sub is not None else ws.f
    l1 = f_r.shape[0]
    c = ws.filled
    rec = StabilityTrace(iteration=iteration, lipschitz=ws.lipschitz)

    if ws.r_cols == 0:
        rec.reason = "no-factor"
        return None, rec
    if ws.lipschitz <= 0.0:
        rec.reason = "no-lipschitz"
        return None, rec

    try:
        sigma = estimate_sigma_min(
            ws.r_factor[: ws.r_cols, : ws.r_cols], SIGMA_MIN_SWEEPS
        )
    except RankDeficient:
        rec.reason = "no-factor"
        return None, rec
    rec.sigma_min = sigma

    kind = config.adaptivity.eta_kind
    etas = tuple(eta(j, kind, config.eta_exponent) for j in range(1, c + 1))
    rec.etas = etas

    norm_f = float(np.linalg.norm(f_r))
    if norm_f == 0.0:
        rec.reason = "lhs-negative"
        return None, rec
    lhs = epsilon_lhs(
        n_dim,
        sigma,
        ws.lipschitz,
        norm_f,
        ws.dx_norms[:c],
        np.asarray(etas),
    )
    rec.eps_lhs = lhs
    if lhs < 0.0:
        rec.reason = "lhs-negative"
        return None, rec

    l2 = sketch_size(config.sketch_percent, l1)
    rec.ell2 = l2
    if l2 < c:
        rec.reason = "underdetermined"
        return None, rec

    if config.adaptivity.randomized:
        rows = select_randomized(l1, l2, rng)
    else:
        rows = select_subselection(f_r, l2)
    rhs = epsilon_rhs(f_r, rows)
    rec.eps_rhs = rhs

    if 0.0 < rhs <= lhs:
        rec.accepted = True
        rec.reason = "accepted"
        return rows, rec
    rec.reason = "rejected"
    return None, rec


def perturbation_norm(
    full_columns: np.ndarray,
    masked_columns: np.ndarray,
    alpha: np.ndarray,
) -> float:
    """Exact perturbation size |(F - F_masked) alpha|_2.

    ``full_columns`` holds the unrestricted window columns and
    ``masked_columns`` the same columns with their discarded rows zeroed, so
    the difference is exactly the perturbation the sketch introduced.
    """
    delta = np.asarray(full_columns) - np.asarray(masked_columns)
    return float(np.linalg.norm(delta @ np.asarray(alpha)))
