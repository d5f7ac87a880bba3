"""Row-restricted least squares and the smallest singular value.

The mixing step solves min_alpha |M alpha - r|_2 where M is the increment
window or a row subset of it. One kernel, `_filtered_solve`, solves it
from the Gram matrix G = M^T M: a Cholesky factor of G taken newest column
first keeps the newest columns that are numerically independent of the
newer ones, a filter rather than a restart. Two callers form G:

* `WindowFactor` keeps G of the whole (statically restricted) window as
  the window moves. A step reads the window once per new column, O(l1 m),
  where a fresh product costs O(l1 m^2).
* `qr_masked_solve` forms G of a row subset afresh, for the row sketch the
  stability guard proposes, and refuses a sketch the filter would thin.

Both return (alpha, R, min |R_ii|): the coefficients, a lower triangular R
with R^T R = G of the columns solved over, and the least magnitude on its
diagonal. R has the singular values of those columns to the accuracy of
G, and alpha is good to about kappa^2 eps. `estimate_sigma_min` takes the
smallest singular value exactly, from an SVD of the small c x c factor.
min |R_ii| bounds it from above at no cost: the diagonal entries are R's
eigenvalues, and an eigenvector v gives |R_ii| = |R v| / |v| >=
sigma_min(R). The stability guard takes the exact value only where that
bound does not settle its test, and the offline trace verifier takes it
on every accepted sketch.

LAPACK's Cholesky routines and SVD are called directly: on a window of ten
columns scipy's wrappers cost more than the routines. The SVD is called
with the arguments `svdvals` passes, so its result is bitwise svdvals',
which tests/test_lsq.py checks.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import _compute_lwork, dpotrf, dpotrs

# The LAPACK SVD svdvals looks up.
_gesdd, _gesdd_lwork = get_lapack_funcs(
    ("gesdd", "gesdd_lwork"), (np.zeros((1, 1)),), ilp64="preferred")

# A solve keeps a column only while the sine of its angle to the newer
# columns kept, U_jj / sqrt(G_jj), is at least this. Cholesky computes
# U_jj^2 with an absolute error of about c eps G_jj, so at this sine U_jj is
# still good to about 1% at m = 50, where 1e-7 would leave it to rounding.
# It filters only the saddle pressure windows of the built-in problems. Of
# 1e-6 and 1e-4, neither lost a run to rounding noise there, 1e-6 took
# fewer iterations under it at sizes 33 and 65, and 1e-4 also filtered
# plaplace-31 at p = 2, 18% slower (CHANGES.md).
KEEP_SINE = 1e-6

# Mixing coefficients beyond this magnitude mean the window fit is
# numerically meaningless (healthy runs stay several orders below it); the
# solve is treated as rank deficient.
COEFF_LIMIT = 1e8


class RankDeficient(RuntimeError):
    """Triangular factor is numerically rank deficient."""


def qr_masked_solve(window: np.ndarray, rhs: np.ndarray, rows: np.ndarray,
                    cols: int):
    """Least squares of the sketch: min |S F alpha - S f| over the rows
    ``rows`` (sorted) of the window's leading ``cols`` columns F and of
    ``rhs`` f, 1 <= cols <= m, from its Gram matrix (SF)^T SF.

    Returns (alpha, r_factor, r_min) as `_filtered_solve` does, over all
    ``cols`` columns; the window is never modified. Raises RankDeficient
    where `_filtered_solve` does and where the filter would leave out a
    column. It keeps the name it had as a Householder QR, by which
    perfbench's spans wrap it.
    """
    if cols < 1 or cols > window.shape[1]:
        raise ValueError(f"cols={cols} outside [1, {window.shape[1]}]")
    rows = np.asarray(rows)
    if rows.size < cols:
        raise ValueError(
            f"restricted system has {rows.size} rows for {cols} columns"
        )
    # [SF Sf]^T [SF Sf] holds G_S and (SF)^T Sf in one symmetric product.
    prod = _gram(np.column_stack((window[rows, :cols], rhs[rows])))
    alpha, r_factor, r_min = _filtered_solve(
        prod[cols - 1::-1, cols - 1::-1], prod[cols, cols - 1::-1],
        np.empty(cols * (cols + 3)))
    if len(alpha) < cols:
        raise RankDeficient(
            f"the filter keeps {len(alpha)} of the sketch's {cols} columns")
    return alpha, r_factor, r_min


def _gram(a):
    """A^T A. An overflow leaves non-finite entries, which fail the filter,
    without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a.T @ a


def _filtered_solve(gram, gtf, buf):
    """Least squares over the newest columns that pass the filter, from the
    normal equations: the kernel of both solves.

    ``gram`` (c x c) holds G = F^T F in its upper triangle and ``gtf``
    holds F^T f, both with the columns newest first. The solve works in
    the flat buffer ``buf`` of at least c (c + 3) floats, U's c^2 and
    three vectors of c, so that it allocates no array.

    G is factored as U^T U by `dpotrf`, and the solve keeps the newest
    columns up to the first that `_kept_columns` refuses, after Pollock &
    Rebholz, "Filtering for Anderson acceleration" (SISC 2023), who filter
    by the same ratio of a QR factor. Returns (alpha, r_factor, r_min) for
    the newest len(alpha) columns, oldest first: R is lower triangular (U
    reversed), with R^T R = G of those columns, and alpha and R are views
    of the buffer. Raises RankDeficient when no column passes (the newest
    is zero or not finite) or a coefficient is not finite or exceeds
    COEFF_LIMIT.
    """
    c = gram.shape[0]
    u, info = _factor(gram, buf)
    v = c * c  # where the vectors start, after U
    t = _kept_columns(gram, u, c if info == 0 else info - 1, buf[v:v + c])
    if t == 0:
        raise RankDeficient("no column passes the filter")
    if t < c:
        # U's leading block factors the columns kept; LAPACK takes it
        # contiguous, so it is factored again in place.
        u, info = _factor(gram[:t, :t], buf)
    beta = buf[v + c:v + c + t]
    np.copyto(beta, gtf[:t])
    _, solved = dpotrs(u, beta, overwrite_b=1)
    alpha = buf[v + 2 * c:v + 2 * c + t]
    np.copyto(alpha, beta[::-1])
    if info or solved or not float(np.abs(alpha).max()) <= COEFF_LIMIT:
        raise RankDeficient("coefficients non-finite or past COEFF_LIMIT")
    return alpha, u[::-1, ::-1], float(np.diagonal(u).min())


def _factor(gram, buf):
    """(U, info) of `dpotrf` on ``gram``, copied to the head of the flat
    buffer ``buf``."""
    t = gram.shape[0]
    u = buf[:t * t].reshape((t, t), order="F")
    np.copyto(u, gram)
    return dpotrf(u, lower=0, clean=1, overwrite_a=1)


def _kept_columns(gram, u, k: int, sines) -> int:
    """How many of the newest columns the filter keeps, given that U
    factors the first k: those before the first whose sine to the newer
    columns, U_jj / sqrt(G_jj), is below KEEP_SINE. ``sines`` is a buffer
    of c floats."""
    # Past k, and at non-finite entries of G, the quotients are meaningless
    # and ignored without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        np.sqrt(np.diagonal(gram), out=sines)
        np.divide(np.diagonal(u), sines, out=sines)
    return next((j for j in range(k) if not sines[j] >= KEEP_SINE), k)


class WindowFactor:
    """Gram matrix of a chronological window, and its filtered solve.

    ``gram`` (m x m) is allocated once; the lower triangle of its leading
    ``cols`` x ``cols`` block holds G = F^T F of the window columns pushed so
    far, oldest first. G trails the window: `push` records that a column
    entered it, and `solve` first moves the rows of the columns still in
    the window up by the number that left, then takes the new rows and
    F^T f from products over the window, two vectors at a time through a
    2 x ``rows`` work pair, so that one new column and f cost one read of
    F. ``columns``, the pushes since the last `reset` capped at m, is the
    window's width: the solver keeps no count of its own. `reset` empties G
    and so the window when it restarts.

    The solve is the filtered Cholesky solve of `_filtered_solve`: it keeps
    the newest columns that are numerically independent of the newer ones.
    The older columns stay in the window and get no coefficient at this
    step. ``filtered`` counts the solves that kept fewer columns than the
    window holds.
    """

    def __init__(self, rows: int, m: int):
        self.gram = np.zeros((m, m))
        self._work = np.zeros((2, rows))
        # Flat buffers, each viewed at the size a solve needs, so that a
        # solve allocates no array: the products, and `_filtered_solve`'s.
        self._prod = np.zeros((m + 1) * m)
        self._buf = np.zeros(m * (m + 3))
        self.cols = 0
        self.pending = 0
        self.filtered = 0

    @property
    def columns(self) -> int:
        """The window's width: the columns pushed since the last `reset`,
        capped at m."""
        return min(self.cols + self.pending, self.gram.shape[0])

    def push(self):
        """Record that one column entered the window (dropping its oldest
        column when full)."""
        self.pending += 1

    def reset(self):
        """Forget every column; the window restarts empty."""
        self.cols = 0
        self.pending = 0

    def solve(self, window: np.ndarray, rhs: np.ndarray):
        """Least squares over the newest columns of the window's ``columns``
        leading ones that pass the filter, from the normal equations.

        Returns (alpha, r_factor, r_min) as `_filtered_solve` does, for the
        newest len(alpha) columns; alpha and R are views of the factor's
        buffers, valid until the next call. Raises RankDeficient as
        `_filtered_solve` does, and ValueError when no column was pushed
        since the last solve.
        """
        if self.pending == 0:
            raise ValueError("no column was pushed since the last solve")
        c = self.columns
        old = max(c - self.pending, 0)
        gram, left = self.gram, self.cols - old
        gram[:old, :old] = gram[left:self.cols, left:self.cols]
        self.cols, self.pending = c, 0
        vectors = [window[:, j] for j in range(old, c)] + [rhs]
        prod = self._prod[:len(vectors) * c].reshape(-1, c)
        # Overflowing columns leave non-finite entries, which the filter
        # drops and the solver's next finite check reports.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(vectors), 2):
                pair = self._work[:len(vectors[i:i + 2])]
                for row, v in zip(pair, vectors[i:i + 2]):
                    row[:] = v
                np.dot(pair, window[:, :c], out=prod[i:i + len(pair)])
        gram[old:c, :c] = prod[:-1]
        alpha, r_factor, r_min = _filtered_solve(
            gram[c - 1::-1, c - 1::-1], prod[-1, ::-1], self._buf)
        self.filtered += len(alpha) < c
        return alpha, r_factor, r_min


def estimate_sigma_min(r_factor: np.ndarray) -> float:
    """Smallest singular value of a triangular factor, from its SVD.

    Exact to rounding. The factor is c x c with c at most the window size,
    so the SVD is cheap next to the factorization that produced it. It is
    gesdd as ``scipy.linalg.svdvals`` calls it, so the value is bitwise
    svdvals'. A non-finite factor raises LinAlgError, a ValueError.
    """
    lwork = _compute_lwork(_gesdd_lwork, *r_factor.shape, compute_uv=0,
                           full_matrices=1)
    _, s, _, info = _gesdd(r_factor, compute_uv=0, lwork=lwork,
                           full_matrices=1, overwrite_a=0)
    sigma = float(s[-1])
    if info != 0 or not math.isfinite(sigma):
        raise np.linalg.LinAlgError(f"SVD of the factor failed (info {info})")
    return sigma
