"""Row-restricted least squares and the smallest singular value.

The mixing step solves min_alpha |M alpha - r|_2 where M is the increment
window or a row subset of it. Two factorizations serve it:

* `WindowFactor` keeps a thin QR factor of the whole (statically restricted)
  window and updates it as the window moves: the oldest column leaves by
  Givens rotations and each new one enters by classical Gram-Schmidt in
  two passes, one column at a time. The second pass rides on two-column
  products made anyway, and the correction it brings waits for the next
  column's, so a column costs three reads of the basis, not five. A step
  costs O(l1 m) per new column instead of the O(l1 m^2) of a fresh
  factorization. The factor is recomputed by Householder QR only when a
  second pass shows loss of orthogonality.
* `qr_masked_solve` factors a row subset afresh (Householder QR without
  pivoting, LAPACK), for the row sketch the stability guard proposes.

Both return one triple, (alpha, R, min |R_ii|): the coefficients, the
triangular factor R, which has the singular values of M, and the least
magnitude on its diagonal, which the back substitution's rank check takes
anyway. `estimate_sigma_min` takes the smallest singular value exactly,
from an SVD of the small c x c factor. min |R_ii| bounds it from above at
no cost: the diagonal entries are R's eigenvalues, and an eigenvector v
gives |R_ii| = |R v| / |v| >= sigma_min(R). The stability guard takes the
exact value only where that bound does not already settle its test: on
the whole window's factor when the bound passes, and on a sketched factor
when the bound passes there too. The offline trace verifier takes it on
every accepted sketch.

The Givens sweep, the sketch's QR and the SVD call the compiled routines
under scipy's `qr_delete`, `qr_multiply` and `svdvals` directly, with the
arguments those functions pass: on a window of ten columns the wrappers
cost more than the routines. Results are bitwise the public functions',
which tests/test_lsq.py checks call by call.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs, qr_delete
from scipy.linalg.lapack import _compute_lwork, dgeqrf, dormqr, dtrtrs

# The Cython routine under qr_delete's array-API wrapper, and the LAPACK
# SVD svdvals looks up.
_qr_delete = qr_delete.__wrapped__
_gesdd, _gesdd_lwork = get_lapack_funcs(
    ("gesdd", "gesdd_lwork"), (np.zeros((1, 1)),), ilp64="preferred")

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
    cols < 1, and `WindowFactor.solve` always has a pushed column). One
    max |alpha| checks finiteness and COEFF_LIMIT at once."""
    d = np.abs(np.diagonal(r_factor))
    dmin, dmax = float(d.min()), float(d.max())
    if dmax == 0.0 or dmin < RANK_RTOL * dmax:
        raise RankDeficient(
            f"diagonal range [{dmin:.3e}, {dmax:.3e}] below relative "
            f"threshold {RANK_RTOL:g}"
        )
    # LAPACK's trtrs, called as scipy's solve_triangular calls it but
    # without its per-call wrapper: a factor that is not Fortran-contiguous
    # (the window factor's view) is solved as the transposed lower system,
    # so the result is bitwise solve_triangular's.
    if r_factor.flags.f_contiguous:
        alpha, info = dtrtrs(r_factor, qtr, lower=0, trans=0)
    else:
        alpha, info = dtrtrs(r_factor.T, qtr, lower=1, trans=1)
    if info != 0 or not float(np.abs(alpha).max()) <= COEFF_LIMIT:
        raise RankDeficient("coefficients non-finite or past COEFF_LIMIT")
    return alpha, dmin


class WindowFactor:
    """Thin QR factor of the leading columns of a chronological window.

    ``q`` (rows x m, column-major) and ``r`` (m x m) are allocated once; the
    leading ``cols`` columns of q and the leading cols x cols block of r
    factor the window columns pushed so far. The factor trails the window:
    `push` records that a column entered it, and `solve` first brings the
    factor up to date. ``columns``, the factor's columns and the pushes
    since capped at m, is the window's width: the solver keeps no count of
    its own. Every mixing step solves from it first, sketched or not, so it
    is brought up to date once per mixing step. `reset` empties the factor
    and so the window when it restarts.

    Each column enters by classical Gram-Schmidt in two passes, riding on
    products each step makes anyway, each at most two columns wide, after
    DCGS2 (Swirydowicz et al. 2021). With Q1 the columns held but the
    newest, q~ the newest after its first pass (``delayed``), v the new
    column and f the right-hand side:

    1. ``q^T v`` gives v's coordinates in the basis with q~ corrected;
    2. one product ``[Q1 q~] C`` gives both that correction,
       (q~ - Q1 a) / |q~ - Q1 a|, and the projection of v, which enters as
       the next column after its first pass. When the factor was full the
       Givens sweep of ``qr_delete`` then drops the oldest column; only its
       last rotation touches the new column, so only the newest column
       kept has had one pass;
    3. ``q^T [q~ f]`` gives that column's second-pass coefficients
       a = Q1^T q~ along with q^T f. They are folded into r and into
       q^T f, so the solve is as after both passes, and the pass is
       checked there. The correction of q~ itself waits for step 2 of the
       next column; until then q r reproduces the window to rounding, as
       the pass changes r by about eps |v|.

    That is three reads of q and one sweep per column; both passes at once
    (CGS2) and a separate ``q^T f`` read q five times. A solve after
    several pushes enters them one at a time, each followed by step 3, so
    it is bitwise the same pushes each followed by a solve. A column
    entering an empty factor (the first, or all of them when none of the
    factor is left in the window) is only normalised.

    ``updates`` counts solves served by an updated factor and ``refreshes``
    those that needed a fresh Householder QR of the window because a second
    pass lost orthogonality.
    """

    def __init__(self, rows: int, m: int):
        # A spare column past the window, where a column is appended before
        # a drop and f is put next to q~.
        self._q = q = np.zeros((rows, m + 1), order="F")
        self.q = q[:, :m]
        self.r = np.zeros((m, m), order="F")
        # r one larger for the append before a drop. r itself stays m x m:
        # its layout sets the back substitution's rounding.
        self._r_grown = np.zeros((m + 1, m + 1), order="F")
        self.cols = 0
        self.pending = 0
        self.updates = 0
        self.refreshes = 0
        # The newest column of q waits for its correction by the second
        # pass's coefficients a and kept norm rho (in an array, so that a
        # solve leaves no new object behind).
        self.delayed = False
        self._a = np.zeros(m)
        self._rho = np.ones(1)
        self._h = np.zeros(m)
        # Two-column products are taken transposed, with (2, n) row-major
        # operands, so that each is one gemm writing a contiguous output.
        self._work = np.zeros((2, rows))
        self._pair = np.zeros(2 * m)
        # Per width c, built once: q[:, :c], q[:, :c].T, h[:c], pair, r[:c, :c].
        self._views = [(q[:, :c], q[:, :c].T, self._h[:c],
                        self._pair[:2 * c].reshape(2, c), self.r[:c, :c])
                       for c in range(m + 1)]

    @property
    def columns(self) -> int:
        """The window's width: the columns pushed since the last `reset`,
        capped at m."""
        return min(self.cols + self.pending, self.r.shape[0])

    def push(self):
        """Record that one column entered the window (dropping its oldest
        column when full)."""
        self.pending += 1

    def reset(self):
        """Forget every column; the window restarts empty."""
        self.cols = 0
        self.pending = 0
        self.delayed = False

    def solve(self, window: np.ndarray, rhs: np.ndarray):
        """Least squares over the window's ``columns`` leading columns, from
        the updated factor.

        Same contract as ``qr_masked_solve`` over every row: returns
        (alpha, r_factor, r_min) and raises RankDeficient on a collapsed
        diagonal or non-finite or oversized coefficients. ``r_factor`` is a
        view of the factor, valid until the next call. Raises ValueError
        when no column was pushed since the last solve: the pending second
        pass would otherwise be folded into r twice.
        """
        if self.pending == 0:
            raise ValueError("no column was pushed since the last solve")
        m = self.r.shape[0]
        cols = self.columns
        keep = cols - self.pending
        self.pending = 0
        if keep <= 0:
            self.reset()
        # Overflowing columns leave non-finite entries, which the rank
        # check below rejects and the solver's next finite check reports.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(max(keep, 0), cols):
                self._push_one(window[:, j], self.cols == m)
                solved = self._project(rhs, self.cols)
                if solved is None:
                    break
        if solved is None:
            self._refactor(window, cols)
            solved = self._project(rhs, cols)
        else:
            self.updates += 1
        r_factor, qtr = solved
        alpha, r_min = _back_substitute(r_factor, qtr)
        return alpha, r_factor, r_min

    def _refactor(self, window: np.ndarray, cols: int):
        """Fresh Householder QR of ``window[:, :cols]`` into the buffers."""
        q, r = np.linalg.qr(window[:, :cols], mode="reduced")
        self.q[:, :cols] = q
        self.r[:cols, :cols] = r
        self.cols = cols
        self.delayed = False
        self.refreshes += 1

    def _project(self, rhs: np.ndarray, cols: int):
        """(R, Q^T rhs) as after every second pass, or None when the
        newest column's pass lost orthogonality."""
        _, qt, qtr, prod, r_cols = self._views[cols]
        if not self.delayed:
            np.dot(qt, rhs, out=qtr)
            return r_cols, qtr
        q, k = self._q, cols - 1
        q[:, cols] = rhs
        np.dot(q[:, k:cols + 1].T, q[:, :cols], out=prod)
        a = self._a[:k]
        a[:] = prod[0, :k]
        # The pass keeps |q~|^2 - |a|^2 of |q~|^2 (Pythagoras).
        norm2 = float(prod[0, k])
        kept2 = norm2 - float(np.dot(a, a))
        if not (kept2 > 0.0 and kept2 >= REORTH_KEEP ** 2 * norm2):
            return None
        self._rho[0] = rho = math.sqrt(kept2)
        qtr[:] = prod[1]
        qtr[k] = (qtr[k] - np.dot(a, qtr[:k])) / rho
        r = self.r
        r[:k, k] += r[k, k] * a
        r[k, k] *= rho
        return r_cols, qtr

    def _push_one(self, v: np.ndarray, drop: bool):
        """Enter ``v`` after its first pass, making a pending correction on
        the way, then drop the oldest column when ``drop``.

        A column in the numerical span of the basis leaves a diagonal entry
        at roundoff level (zero for an exact copy), which the rank check of
        `solve` then rejects.
        """
        c = self.cols
        q, r, work = self._q, self.r, self._work
        new = q[:, c]
        q_cols, qt, b, coef, r_cols = self._views[c]
        np.dot(qt, v, out=b)
        if self.delayed:
            k = c - 1
            a, rho = self._a[:k], self._rho[0]
            b[k] = (b[k] - np.dot(a, b[:k])) / rho
            # Over [Q1 q~], row 0 of C gives the corrected column and row 1
            # Q1 b[:k] + b[k] times it.
            np.multiply(a, -1.0 / rho, out=coef[0, :k])
            coef[0, k] = 1.0 / rho
            coef[1, k] = b[k] / rho
            np.multiply(a, -coef[1, k], out=coef[1, :k])
            coef[1, :k] += b[:k]
            np.dot(coef, qt, out=work)
            q[:, k] = work[0]
        else:
            np.dot(q_cols, b, out=work[1])
        np.subtract(v, work[1], out=new)
        rho = math.sqrt(np.dot(new, new))
        if rho > 0.0:
            new /= rho
        if drop:
            r = self._r_grown
            r[:c, :c] = r_cols
        r[:c, c] = b
        r[c, :c] = 0.0
        r[c, c] = rho
        if drop:
            # Deleting column 0 leaves r upper Hessenberg; qr_delete
            # restores it by Givens rotations applied to q, in place.
            _qr_delete(q[:, :c + 1], r[:c + 1, :c + 1], 0, 1, which="col",
                       overwrite_qr=True, check_finite=False)
            r_cols[:] = r[:c, :c]
        else:
            self.cols = c + 1
        self.delayed = c > 0


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
