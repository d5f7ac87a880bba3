"""Row-restricted least squares and the smallest singular value.

The mixing step solves min_alpha |M alpha - r|_2 where M is the increment
window or a row subset of it. Two factorizations serve it:

* `WindowFactor` keeps a thin QR factor of the whole (statically restricted)
  window and updates it as the window moves: the oldest column leaves by
  Givens rotations and a new one enters by classical Gram-Schmidt with one
  reorthogonalisation pass. A step costs O(l1 m) instead of the O(l1 m^2) of
  a fresh factorization. The factor is recomputed by Householder QR only
  when the second Gram-Schmidt pass shows loss of orthogonality.
* `qr_masked_solve` factors a row subset afresh (Householder QR without
  pivoting, LAPACK), for the row sketch the stability guard proposes.

Both return the triangular factor R, which has the singular values of M.
`estimate_sigma_min` takes the smallest of them exactly, from an SVD of the
small c x c factor. `min_abs_diagonal` bounds it from above at no cost,
since sigma_min(R) <= min |R_ii| for a triangular R. The stability guard
takes the exact value only where that bound does not already settle its
test: on the whole window's factor when the bound passes, and on a
sketched factor when the bound passes there too. The offline trace
verifier takes it on every accepted sketch.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import qr_delete, qr_multiply, svdvals
from scipy.linalg.lapack import dtrtrs

# Relative floor on |diag(R)| below which the factor is treated as singular.
RANK_RTOL = 1e-14

# An appended column whose second Gram-Schmidt pass keeps less than this
# share of the norm the first pass left has lost orthogonality to the basis
# (a third pass would be needed); the factor is then recomputed.
REORTH_KEEP = 2.0 ** -0.5

# Mixing coefficients beyond this magnitude mean the window fit is
# numerically meaningless (healthy runs stay several orders below it); the
# solve is treated as rank deficient.
COEFF_LIMIT = 1e8


class RankDeficient(RuntimeError):
    """Triangular factor is numerically rank deficient."""


def _check_diag(r_factor: np.ndarray) -> None:
    d = np.abs(np.diagonal(r_factor))
    if d.size == 0:
        raise RankDeficient("empty factor")
    dmax = d.max()
    if dmax == 0.0 or d.min() < RANK_RTOL * dmax:
        raise RankDeficient(
            f"diagonal range [{d.min():.3e}, {dmax:.3e}] below relative "
            f"threshold {RANK_RTOL:g}"
        )


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

    The input window is never modified. Raises RankDeficient when the factor
    diagonal collapses below a relative threshold of 1e-14 or a coefficient
    exceeds COEFF_LIMIT.
    """
    if cols < 1 or cols > window.shape[1]:
        raise ValueError(f"cols={cols} outside [1, {window.shape[1]}]")
    rows = np.asarray(rows)
    if rows.size < cols:
        raise ValueError(
            f"restricted system has {rows.size} rows for {cols} columns"
        )
    # Q^T r from the Householder reflectors, without forming Q.
    qtr, r_factor = qr_multiply(window[rows, :cols], rhs[rows], mode="right")
    return _back_substitute(r_factor, qtr), r_factor


def _back_substitute(r_factor: np.ndarray, qtr: np.ndarray) -> np.ndarray:
    """alpha = R^{-1} Q^T r after the rank check on diag(R)."""
    _check_diag(r_factor)
    # LAPACK's trtrs, called as scipy's solve_triangular calls it but
    # without its per-call wrapper: a factor that is not Fortran-contiguous
    # (the window factor's view) is solved as the transposed lower system,
    # so the result is bitwise solve_triangular's.
    if r_factor.flags.f_contiguous:
        alpha, info = dtrtrs(r_factor, qtr, lower=0, trans=0)
    else:
        alpha, info = dtrtrs(r_factor.T, qtr, lower=1, trans=1)
    if info != 0 or not np.isfinite(alpha).all():
        raise RankDeficient("least squares produced non-finite coefficients")
    if float(np.abs(alpha).max()) > COEFF_LIMIT:
        raise RankDeficient("coefficients exceed COEFF_LIMIT")
    return alpha


class WindowFactor:
    """Thin QR factor of the leading columns of a chronological window.

    ``q`` (rows x m, column-major) and ``r`` (m x m) are allocated once; the
    leading ``cols`` columns of q and the leading cols x cols block of r
    factor the window columns pushed so far. The factor trails the window:
    `push` records that a column entered it, and `solve` first brings the
    factor up to date, dropping the columns that left the window by Givens
    rotations and appending the new ones by classical Gram-Schmidt with one
    reorthogonalisation pass (CGS2). If nothing of the factor is still in
    the window it is rebuilt by appends alone. Every mixing step solves from
    it first, sketched or not, so it is brought up to date once per mixing
    step. `reset` empties the factor when the window restarts.

    ``updates`` counts solves served by an updated factor and ``refreshes``
    those that needed a fresh Householder QR of the window after an append
    lost orthogonality.
    """

    def __init__(self, rows: int, m: int):
        self.q = np.zeros((rows, m), order="F")
        self.r = np.zeros((m, m), order="F")
        self.cols = 0
        self.pending = 0
        self.updates = 0
        self.refreshes = 0
        self._h = np.zeros(m)
        self._h2 = np.zeros(m)
        self._w = np.zeros(rows)

    def push(self):
        """Record that one column entered the window (dropping its oldest
        column when full)."""
        self.pending += 1

    def reset(self):
        """Forget every column; the window restarts empty."""
        self.cols = 0
        self.pending = 0

    def solve(self, window: np.ndarray, rhs: np.ndarray, cols: int):
        """Least squares over ``window[:, :cols]`` from the updated factor.

        Same contract as ``qr_masked_solve`` over every row: returns
        (alpha, r_factor) and raises RankDeficient on a collapsed diagonal
        or non-finite or oversized coefficients. ``r_factor`` is a view of
        the factor, valid until the next call.
        """
        if cols < 1 or cols > window.shape[1]:
            raise ValueError(f"cols={cols} outside [1, {window.shape[1]}]")
        keep = cols - self.pending
        if keep > self.cols:
            raise ValueError(
                f"window has {cols} columns, {self.pending} of them new, but "
                f"the factor holds only {self.cols}"
            )
        if keep <= 0:
            self.cols = 0
            keep = 0
        while self.cols > keep:
            self._drop_oldest()
        self.pending = 0
        for j in range(keep, cols):
            if not self._append(window[:, j]):
                self._refactor(window, cols)
                break
        else:
            self.updates += 1
        qtr = self._h[:cols]
        np.dot(self.q[:, :cols].T, rhs, out=qtr)
        r_factor = self.r[:cols, :cols]
        return _back_substitute(r_factor, qtr), r_factor

    def _refactor(self, window: np.ndarray, cols: int):
        """Fresh Householder QR of ``window[:, :cols]`` into the buffers."""
        q, r = np.linalg.qr(window[:, :cols], mode="reduced")
        self.q[:, :cols] = q
        self.r[:cols, :cols] = r
        self.cols = cols
        self.refreshes += 1

    def _drop_oldest(self):
        # Deleting column 0 leaves R upper Hessenberg; qr_delete restores it
        # with Givens rotations and applies them to Q, in place.
        c = self.cols
        qr_delete(self.q[:, :c], self.r[:c, :c], 0, 1, which="col",
                  overwrite_qr=True, check_finite=False)
        self.cols = c - 1

    def _append(self, v: np.ndarray) -> bool:
        """CGS2 append of column ``v``; False when it lost orthogonality.

        The new basis vector is built in place in column ``cols`` of q. A
        column in the numerical span of the basis leaves a diagonal entry at
        roundoff level (zero for an exact copy), which the rank check of
        `solve` then rejects.
        """
        c = self.cols
        basis = self.q[:, :c]
        h, h2, w = self._h[:c], self._h2[:c], self._w
        qc = self.q[:, c]
        np.dot(basis.T, v, out=h)
        np.dot(basis, h, out=w)
        np.subtract(v, w, out=qc)
        # These norms can overflow while |f| is still finite, as in `step`;
        # the solver's next finite check then raises NumericalBreakdown.
        with np.errstate(over="ignore"):
            first = float(np.linalg.norm(qc))
            np.dot(basis.T, qc, out=h2)
            np.dot(basis, h2, out=w)
            np.subtract(qc, w, out=qc)
            np.add(h, h2, out=h)
            rho = float(np.linalg.norm(qc))
        self.r[:c, c] = h
        self.r[c, :c] = 0.0
        self.r[c, c] = rho
        if rho > 0.0:
            qc /= rho
        self.cols = c + 1
        return not rho < REORTH_KEEP * first


def min_abs_diagonal(r_factor: np.ndarray) -> float:
    """min |R_ii|, an upper bound on the smallest singular value of a
    triangular factor R: the diagonal entries are R's eigenvalues, and an
    eigenvector v gives |R_ii| = |R v| / |v| >= sigma_min(R)."""
    return float(np.abs(np.diagonal(r_factor)).min())


def estimate_sigma_min(r_factor: np.ndarray) -> float:
    """Smallest singular value of a triangular factor, from its SVD.

    Exact to rounding. The factor is c x c with c at most the window size,
    so the SVD is cheap next to the factorization that produced it.
    """
    return float(svdvals(r_factor)[-1])
