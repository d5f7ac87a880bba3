"""Two-level residual restriction and the stability guard.

Level one keeps the rows of one field of the problem's layout (for
example, pressure rows only), which the solver reads in place as views of
its full vectors. Level two is a dynamic row sketch chosen per
mixing step, admitted only when `stability_hypothesis` holds for it, so the
perturbation it introduces into the mixing update stays within the eta-sum
bound. The guard admits a sketch only on the exact smallest singular value
of the sketched window's own factor, and reaches each rejection by the
cheapest test that settles it exactly (`adaptive_step`); the offline trace
verifier tests the same function on the recorded step. `MixingStep` is the
one record of a mixing step, written by the guard and read back from trace
files.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import lsq
from .lsq import estimate_sigma_min


class Adaptivity(str, enum.Enum):
    """Dynamic sketch strategy: how rows are picked and how the per-column
    budget weights grow with column age. ``Adaptivity(name)`` also takes
    the `SHORT_NAMES` (sub-pow, ...); the value is always the full name."""

    NONE = "none"
    SUBSELECT_POWER = "subselect-power"
    SUBSELECT_CONSTANT = "subselect-constant"
    RANDOMIZED_POWER = "randomized-power"
    RANDOMIZED_CONSTANT = "randomized-constant"

    @classmethod
    def _missing_(cls, value):
        # None (a ValueError) for any other value, an unhashable one included.
        return SHORT_NAMES.get(value) if isinstance(value, str) else None

    @property
    def randomized(self) -> bool:
        return self in (Adaptivity.RANDOMIZED_POWER, Adaptivity.RANDOMIZED_CONSTANT)


SHORT_NAMES = {
    "sub-pow": Adaptivity.SUBSELECT_POWER,
    "sub-const": Adaptivity.SUBSELECT_CONSTANT,
    "rand-pow": Adaptivity.RANDOMIZED_POWER,
    "rand-const": Adaptivity.RANDOMIZED_CONSTANT,
}


def update_lipschitz(l_prev: float, df_norm: float, dx_norm: float) -> float:
    """Running Lipschitz estimate max(L_prev, |df| / |dx|), from the norms.

    A zero displacement carries no information and leaves the estimate
    unchanged.
    """
    if dx_norm > 0.0:
        return max(l_prev, df_norm / dx_norm)
    return l_prev


# Growth exponent of the power strategies' budget weights.
ETA_EXPONENT = 1.1


def budget_weights(adaptivity: Adaptivity, c: int) -> list[float]:
    """Budget weights eta_1..eta_c of a c-column window, oldest column
    first: j**ETA_EXPONENT under a power strategy, 1 under any other."""
    if adaptivity in (Adaptivity.SUBSELECT_POWER, Adaptivity.RANDOMIZED_POWER):
        return [float(j) ** ETA_EXPONENT for j in range(1, c + 1)]
    return [1.0] * c


def stability_threshold(lipschitz, norm_f, dx_norms, etas) -> float:
    """tau = L * (|f| * mu), mu = max_j |dx_j| / eta_j (etas > 0), the least
    sigma the hypothesis admits at eps = 0: 0 for mu = 0, inf on overflow."""
    mu = float(np.divide(dx_norms, etas).max(initial=0.0))
    return float(lipschitz) * (float(norm_f) * mu) if mu != 0.0 else 0.0


def stability_hypothesis(sigma: float, lipschitz: float, norm_f: float,
                         dx_norms, etas, eps: float) -> bool:
    """The condition under which a row sketch is admitted.

    True when eta_j * sigma >= L * |f| * |dx_j| * (1 + eps) for every window
    column j, in plain 2-norms. ``sigma`` is the smallest singular value of
    the sketched window S F (rows S kept of the restricted increments F),
    ``lipschitz`` the running estimate L, ``norm_f`` the norm of the
    restricted residual f, ``dx_norms`` and ``etas`` the per-column
    displacement norms and budget weights, and ``eps`` the share of |f| the
    sketch drops (`epsilon_rhs`). As every eta_j > 0, that is sigma >=
    tau * (1 + eps) with tau from `stability_threshold`, the form computed,
    which rounds apart from the per-column one only near a tie. A column
    with dx_j = 0 passes, and one whose right side overflows fails, both
    without a floating-point warning.

    Under it the perturbation of the mixing update stays within the eta sum.
    The sketched coefficients alpha minimise |S F alpha - S f|, so
    |alpha| <= |S f| / sigma <= |f| / sigma. Each column of F is a residual
    increment, so |(I - S) F_j| <= |F_j| <= L |dx_j|. Hence

        |(F - S F) alpha| <= sum_j |alpha_j| |(I - S) F_j|
                          <= sum_j L |f| |dx_j| / sigma <= sum_j eta_j.

    The bound needs the inequality at every column and in plain norms: tau
    takes its max over |dx_j| / eta_j column by column, and no dimension
    factor enters. The (1 + eps) factor is a margin the bound does not use.
    """
    tau = stability_threshold(lipschitz, norm_f, dx_norms, etas)
    return bool(sigma >= tau * (1.0 + float(eps)))


def epsilon_rhs(f_restricted: np.ndarray, kept: np.ndarray,
                norm_f: float) -> float:
    """Relative residual mass the sketch would discard, |(I-P) f| / |f|.

    ``kept`` lists the retained rows and ``norm_f`` is |f|, which every
    caller already holds. An empty selection (rejected upstream) returns 1;
    a zero residual returns 0. The discarded mass is accumulated directly
    over the dropped entries (not by subtracting squared norms), so the
    result is exactly zero whenever every dropped entry is zero.
    """
    if norm_f == 0.0:
        return 0.0
    if len(kept) == 0:
        return 1.0
    removed = np.delete(f_restricted, kept)
    return min(1.0, float(np.linalg.norm(removed)) / norm_f)


def select_subselection(f_restricted: np.ndarray, l2: int) -> np.ndarray:
    """Rows of the l2 largest residual magnitudes, ascending index order.

    Ties break toward the lower index, as a stable sort on magnitude would:
    every row above the l2-th largest magnitude is kept, and the rows equal
    to it fill the rest, lowest index first. A partition finds that
    magnitude in linear time. ``f_restricted`` holds no NaN.
    """
    size = f_restricted.size
    if not (1 <= l2 <= size):
        raise ValueError(f"l2={l2} outside [1, {size}]")
    mags = np.abs(f_restricted)
    cut = np.partition(mags, size - l2)[size - l2]
    keep = mags > cut
    ties = np.flatnonzero(mags == cut)[: l2 - np.count_nonzero(keep)]
    keep[ties] = True
    return np.flatnonzero(keep)


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


# The guard's decisions, as recorded in MixingStep.reason.
REASONS = (
    "accepted", "rejected", "no-lipschitz", "lhs-negative",
    "underdetermined", "disabled", "stalled", "no-factor",
)


@dataclass(slots=True)
class MixingStep:
    """The record of one mixing step: its window and the guard's decision.

    The step at ``iteration`` k mixed over a window of ``columns`` c, with
    the running Lipschitz estimate ``lipschitz``. ``reason`` is one of
    REASONS: "accepted" when a sketch supplied the coefficients,
    "no-factor" when the whole window was rank deficient and the step fell
    back to plain Picard, and otherwise why the whole window's solution
    was kept ("disabled" and "stalled" when the guard did not run).
    ``sigma_min`` is the exact smallest singular value that settled the
    guard's decision: the sketched factor's on an accepted step, and the
    whole window's or the sketched factor's on a rejection. It is None when
    the guard took no SVD, because it did not run or a bound on the
    factor's diagonal already settled the step, and when the sketched
    window failed the filter (rank deficient). ``eps_rhs`` is the share of
    |f| the proposed rows drop (None when the guard proposed none).
    """

    iteration: int
    columns: int
    lipschitz: float
    reason: str
    sigma_min: float | None = None
    eps_rhs: float | None = None

    @property
    def accepted(self) -> bool:
        return self.reason == "accepted"

    @property
    def fallback(self) -> bool:
        return self.reason == "no-factor"


def adaptive_step(ws, iteration: int, r_window: np.ndarray, r_min: float):
    """Decide the level-two sketch for one mixing step of the run in the
    `solver.Workspace` ``ws``.

    ``r_window`` is the triangular factor of the restricted window's newest
    c columns that the step's least squares (`lsq.WindowFactor.solve`)
    solved over, and ``r_min`` its min |diag|, both as it returned them;
    those c columns are "the window" below. The guard proposes rows by the
    strategy and sketch size of ``ws.config``, a randomized strategy drawing
    them from ``ws.rng``, solves the sketched window from its Gram matrix
    (`lsq.qr_masked_solve`, through the window's filter), and accepts when
    `stability_hypothesis` holds with that factor's exact smallest singular
    value and the sketch's eps_rhs. A sketch with fewer rows than the
    window has columns is "underdetermined", and a sketch the filter would
    thin (rank deficient) is rejected. The budget weights are the first c
    of ``ws.etas``, set once for the config's adaptivity. Each test below
    compares a sigma, or a bound on one, with tau * (1 + eps), tau the
    step's one threshold.

    Every other rejection is reached by the cheapest test that settles it,
    and each test is exact: it fails only where the test it stands in for
    fails too, because the hypothesis is monotone in sigma and in eps,
    sigma_min(R) <= min |R_ii| for a triangular R, and sigma_min(S F) <=
    sigma_min(F) for a row subset S. In order:

    1. min |diag| of the whole window's factor at eps = 0. If it fails, no
       row subset can pass: "lhs-negative", with sigma_min None.
    2. The whole window's sigma (its SVD) at eps = 0: "lhs-negative".
    3. Once the rows are drawn, the whole window's sigma at the sketch's
       eps_rhs: "rejected", with that sigma, and no sketch is factored.
    4. min |diag| of the sketched factor, as `lsq.qr_masked_solve`
       returns it, at eps_rhs: "rejected", with sigma_min None.
    5. The sketched factor's sigma (its SVD) at eps_rhs: "rejected" or
       "accepted".

    The inequalities hold for exact singular values; a property test holds
    the decision, the rows, alpha, the factor and every draw from ``ws.rng``
    to those of a guard that takes every SVD. Only ``sigma_min`` shows
    which test settled the step.

    Returns (sketch, record): sketch is None for the identity decision, else
    (rows, alpha, r_factor) of the sketched least squares; record is the
    step's MixingStep.
    """
    f_r = ws.f_r
    l1 = f_r.shape[0]
    c = r_window.shape[0]
    lo = ws.factor.columns - c
    rec = MixingStep(iteration, c, ws.lipschitz, reason="no-lipschitz")
    if ws.lipschitz <= 0.0:
        return None, rec
    l2 = sketch_size(ws.config.sketch_percent, l1)
    if l2 < c:
        rec.reason = "underdetermined"
        return None, rec

    norm_f = math.sqrt(np.dot(f_r, f_r))
    tau = stability_threshold(ws.lipschitz, norm_f, ws.dx_norms[lo:lo + c],
                              ws.etas[:c])

    rec.reason = "lhs-negative"
    if not r_min >= tau:
        return None, rec
    rec.sigma_min = estimate_sigma_min(r_window)
    if not rec.sigma_min >= tau:
        return None, rec

    if ws.config.adaptivity.randomized:
        rows = select_randomized(l1, l2, ws.rng)
    else:
        rows = select_subselection(f_r, l2)
    rec.eps_rhs = epsilon_rhs(f_r, rows, norm_f)
    need = tau * (1.0 + rec.eps_rhs)
    rec.reason = "rejected"
    if not rec.sigma_min >= need:
        return None, rec
    rec.sigma_min = None
    try:
        alpha, r_factor, r_min = lsq.qr_masked_solve(ws.df_window[:, lo:], f_r,
                                                     rows, c)
    except lsq.RankDeficient:
        return None, rec
    if not r_min >= need:
        return None, rec
    rec.sigma_min = estimate_sigma_min(r_factor)
    if not rec.sigma_min >= need:
        return None, rec
    rec.reason = "accepted"
    return (rows, alpha, r_factor), rec


def perturbation_norm(
    increments: np.ndarray, rows: np.ndarray, alpha: np.ndarray
) -> float:
    """Exact perturbation size |(F - SF) alpha|_2 of a sketched step.

    ``increments`` is the window F and ``rows`` the rows the sketch S kept.
    S zeroes every other row, so (F - SF) alpha is F alpha with the kept
    rows set to zero: one product, not a masked copy of the window.
    """
    delta = increments @ alpha
    delta[rows] = 0.0
    return float(np.linalg.norm(delta))
