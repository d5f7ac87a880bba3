"""Row-restricted least squares and the smallest singular value.

The mixing step solves min_alpha |M alpha - r|_2 where M is the increment
window or a row subset of it. Two solves serve it:

* `WindowFactor` keeps the Gram matrix G = F^T F of the whole (statically
  restricted) window as the window moves, and solves the normal equations
  by a Cholesky factor of G over the newest columns that are numerically
  independent of the newer ones: a filter, not a restart. A step reads the
  window once per new column, O(l1 m), where a fresh factorization costs
  O(l1 m^2).
* `qr_masked_solve` factors a row subset afresh (Householder QR without
  pivoting, LAPACK), for the row sketch the stability guard proposes.

Both return (alpha, R, min |R_ii|): the coefficients, a triangular R with
R^T R = M^T M, which has the singular values of M, and the least magnitude
on its diagonal. `estimate_sigma_min` takes the smallest singular value
exactly, from an SVD of the small c x c factor. min |R_ii| bounds it from
above at no cost: the diagonal entries are R's eigenvalues, and an
eigenvector v gives |R_ii| = |R v| / |v| >= sigma_min(R). The stability
guard takes the exact value only where that bound does not settle its test,
and the offline trace verifier takes it on every accepted sketch.

The sketch's QR and the SVD call the LAPACK routines under scipy's
`qr_multiply` and `svdvals` directly, with the arguments those functions
pass: on a window of ten columns the wrappers cost more than the routines.
Results are bitwise the public functions', which tests/test_lsq.py checks.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import (_compute_lwork, dgeqrf, dormqr, dpotrf,
                                 dpotrs, dtrtrs)

# The LAPACK SVD svdvals looks up.
_gesdd, _gesdd_lwork = get_lapack_funcs(
    ("gesdd", "gesdd_lwork"), (np.zeros((1, 1)),), ilp64="preferred")

# Relative floor on |diag(R)| below which a sketch's factor is singular.
RANK_RTOL = 1e-14

# The window's solve keeps a column only while the sine of its angle to the
# newer columns kept, U_jj / sqrt(G_jj), is at least this. Cholesky computes
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


def qr_masked_solve(
    window: np.ndarray,
    rhs: np.ndarray,
    rows: np.ndarray,
    cols: int,
):
    """Solve the row-restricted least-squares problem of the mixing step.

    Parameters
    ----------
    window : (l1, m) ndarray
        Increment window; only the leading ``cols`` columns participate.
    rhs : (l1,) ndarray
        Restricted residual vector.
    rows : sorted int ndarray
        Row subset defining the restriction.
    cols : int
        Number of filled window columns, 1 <= cols <= m.

    Returns
    -------
    alpha : (cols,) ndarray
        argmin_alpha |M alpha - r|_2 over the restricted system.
    r_factor : (cols, cols) ndarray
        R factor of the restricted matrix.
    r_min : float
        min |diag(r_factor)|, an upper bound on its smallest singular value.

    The input window is never modified. Raises RankDeficient when the factor
    diagonal collapses below a relative threshold of 1e-14 or a coefficient
    is not finite (as after a non-finite entry) or exceeds COEFF_LIMIT.
    """
    if cols < 1 or cols > window.shape[1]:
        raise ValueError(f"cols={cols} outside [1, {window.shape[1]}]")
    rows = np.asarray(rows)
    if rows.size < cols:
        raise ValueError(
            f"restricted system has {rows.size} rows for {cols} columns"
        )
    # Q^T r from the Householder reflectors, without forming Q: geqrf and
    # ormqr, called as scipy's qr_multiply(mode="right") calls them.
    qr, tau = _lapack(dgeqrf, window[rows, :cols])
    qtr, = _lapack(dormqr, "L", "T", qr, tau, rhs[rows][:, None])
    r_factor = np.triu(qr[:cols])
    alpha, r_min = _back_substitute(r_factor, qtr[:cols, 0])
    return alpha, r_factor, r_min


def _lapack(routine, *args):
    """Call a LAPACK routine with the workspace its query returns, as
    scipy's own calls do; returns the outputs before (work, info)."""
    # int(), not scipy's astype(np.int_): that cast leaves numpy-cached
    # blocks behind, which criterion 6 reads as growth.
    lwork = int(routine(*args, lwork=-1)[-2][0])
    *out, _, info = routine(*args, lwork=lwork)
    if info < 0:
        raise ValueError(f"{routine.__name__}: illegal argument {-info}")
    return out


def _back_substitute(r_factor: np.ndarray, qtr: np.ndarray):
    """(alpha, min |diag R|): alpha = R^{-1} Q^T r after the rank check on
    diag(R), for R of at least one column (`qr_masked_solve` rejects
    cols < 1). One max |alpha| checks finiteness and COEFF_LIMIT at once."""
    d = np.abs(np.diagonal(r_factor))
    dmin, dmax = float(d.min()), float(d.max())
    if dmax == 0.0 or dmin < RANK_RTOL * dmax:
        raise RankDeficient(
            f"diagonal range [{dmin:.3e}, {dmax:.3e}] below relative "
            f"threshold {RANK_RTOL:g}"
        )
    # LAPACK's trtrs, called as scipy's solve_triangular calls it but
    # without its per-call wrapper: a factor that is not Fortran-contiguous
    # (as np.triu returns it) is solved as the transposed lower system,
    # so the result is bitwise solve_triangular's.
    if r_factor.flags.f_contiguous:
        alpha, info = dtrtrs(r_factor, qtr, lower=0, trans=0)
    else:
        alpha, info = dtrtrs(r_factor.T, qtr, lower=1, trans=1)
    if info != 0 or not float(np.abs(alpha).max()) <= COEFF_LIMIT:
        raise RankDeficient("coefficients non-finite or past COEFF_LIMIT")
    return alpha, dmin


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

    The solve factors G newest column first (`dpotrf` on the reversed G,
    U^T U). U_jj / sqrt(G_jj) is the sine of column j's angle to the newer
    columns, and the solve keeps the newest columns up to the first whose
    sine is below KEEP_SINE or that `dpotrf` cannot factor, after Pollock &
    Rebholz, "Filtering for Anderson acceleration" (SISC 2023), who filter
    by the same ratio of a QR factor. The older columns stay in the window
    and get no coefficient at this step. ``filtered`` counts the solves that
    kept fewer columns than the window holds.
    """

    def __init__(self, rows: int, m: int):
        self.gram = np.zeros((m, m))
        self._work = np.zeros((2, rows))
        # Flat buffers, each viewed at the size a solve needs, so that a
        # solve allocates no array: the products, U, and the sines, the
        # right-hand side and the coefficients.
        self._prod = np.zeros((m + 1) * m)
        self._u = np.zeros(m * m)
        self._sines, self._beta, self._alpha = np.zeros((3, m))
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

        Returns (alpha, r_factor, r_min) as ``qr_masked_solve`` does, for the
        newest len(alpha) columns: R is lower triangular (U reversed), with
        R^T R = G of those columns. alpha and R are views of the factor's
        buffers, valid until the next call. Raises RankDeficient when no
        column passes (the newest is zero or not finite) or a coefficient is
        not finite or exceeds COEFF_LIMIT, and ValueError when no column was
        pushed since the last solve.
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
            u, info = self._factor(c)
            k = c if info == 0 else info - 1
            sines = self._sines[:k]
            np.sqrt(np.diagonal(gram)[c - 1::-1][:k], out=sines)
            np.divide(np.diagonal(u)[:k], sines, out=sines)
        t = next((j for j, s in enumerate(sines) if not s >= KEEP_SINE), k)
        if t == 0:
            raise RankDeficient("no window column passes the filter")
        if t < c:
            # U's leading block factors the columns kept; LAPACK takes it
            # contiguous, so it is factored again in place.
            self.filtered += 1
            u, info = self._factor(t)
        beta = self._beta[:t]
        beta[:] = prod[-1, c - 1::-1][:t]
        _, solved = dpotrs(u, beta, overwrite_b=1)
        alpha = self._alpha[:t]
        alpha[:] = beta[::-1]
        if info or solved or not float(np.abs(alpha).max()) <= COEFF_LIMIT:
            raise RankDeficient("coefficients non-finite or past COEFF_LIMIT")
        return alpha, u[::-1, ::-1], float(np.diagonal(u).min())

    def _factor(self, t: int):
        """(U, info) of `dpotrf` on G of the window's newest t columns,
        newest first, in the flat buffer."""
        c = self.cols
        u = self._u[:t * t].reshape((t, t), order="F")
        u[:] = self.gram[c - t:c, c - t:c][::-1, ::-1]
        return dpotrf(u, lower=0, clean=1, overwrite_a=1)


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
