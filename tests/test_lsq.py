"""Masked least squares and the window factor."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular, svdvals

from aap import lsq
from aap.lsq import (
    RankDeficient,
    WindowFactor,
    qr_masked_solve,
)

from oracles import lstsq_normal_equations


class TestQrMaskedSolve:
    def test_unmasked_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            l1 = rng.integers(4, 30)
            cols = int(rng.integers(1, min(l1, 8) + 1))
            window = np.zeros((l1, 10), order="F")
            window[:, :cols] = rng.standard_normal((l1, cols))
            rhs = rng.standard_normal(l1)
            alpha, r, _ = qr_masked_solve(window, rhs, np.arange(l1), cols)
            expected = lstsq_normal_equations(window[:, :cols], rhs)
            np.testing.assert_allclose(alpha, expected, rtol=1e-9, atol=1e-11)
            assert r.shape == (cols, cols)

    def test_masked_matches_restricted_normal_equations(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            l1 = int(rng.integers(8, 30))
            cols = int(rng.integers(1, 5))
            rows = np.sort(
                rng.choice(l1, size=int(rng.integers(cols, l1 + 1)), replace=False)
            )
            window = rng.standard_normal((l1, cols))
            rhs = rng.standard_normal(l1)
            alpha, _, _ = qr_masked_solve(window, rhs, rows, cols)
            expected = lstsq_normal_equations(window[rows][:, :cols], rhs[rows])
            np.testing.assert_allclose(alpha, expected, rtol=1e-9, atol=1e-11)

    def test_window_not_modified(self):
        rng = np.random.default_rng(2)
        window = rng.standard_normal((12, 4))
        copy = window.copy()
        qr_masked_solve(window, rng.standard_normal(12), np.arange(12), 3)
        np.testing.assert_array_equal(window, copy)

    def test_r_factor_is_lower_triangular_gram_factor(self):
        # R factors the Gram matrix of the rows kept, (SF)^T SF, as the
        # window's factor does that of the whole window.
        rng = np.random.default_rng(3)
        window = rng.standard_normal((15, 5))
        rows = np.sort(rng.choice(15, size=9, replace=False))
        _, r, _ = qr_masked_solve(window, rng.standard_normal(15), rows, 5)
        np.testing.assert_array_equal(r, np.tril(r))
        recon, orth = fit_errors(window[rows], r)
        assert recon < 1e-14 and orth < 1e-14

    def test_exact_solution_when_rhs_in_range(self):
        rng = np.random.default_rng(4)
        window = rng.standard_normal((10, 3))
        coeff = np.array([1.5, -2.0, 0.25])
        rhs = window @ coeff
        alpha, _, _ = qr_masked_solve(window, rhs, np.arange(10), 3)
        np.testing.assert_allclose(alpha, coeff, rtol=1e-12, atol=1e-12)

    def test_duplicate_column_raises(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(10)
        window = np.column_stack([col, col])
        with pytest.raises(RankDeficient):
            qr_masked_solve(window, rng.standard_normal(10), np.arange(10), 2)

    def test_near_duplicate_column_raises(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(10)
        window = np.column_stack([col, col * (1.0 + 1e-16)])
        with pytest.raises(RankDeficient):
            qr_masked_solve(window, rng.standard_normal(10), np.arange(10), 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    @pytest.mark.parametrize("where", ["window", "rhs"])
    def test_non_finite_rows_raise_rank_deficient(self, bad, where):
        # LAPACK is called without scipy's finite check; a non-finite
        # entry, or one whose square overflows the Gram matrix, must still
        # end in RankDeficient, which the guard catches, and without a
        # numpy RuntimeWarning, which pyproject.toml turns into an error.
        rng = np.random.default_rng(7)
        window, rhs = rng.standard_normal((10, 3)), rng.standard_normal(10)
        if where == "window":
            window[4, 1] = bad
        else:
            rhs[4] = bad
        with pytest.raises(RankDeficient):
            qr_masked_solve(window, rhs, np.arange(10), 3)

    def test_fewer_rows_than_columns_rejected(self):
        window = np.ones((5, 3))
        with pytest.raises(ValueError):
            qr_masked_solve(window, np.ones(5), np.array([0, 1]), 3)

    def test_cols_out_of_range(self):
        window = np.ones((5, 3))
        with pytest.raises(ValueError):
            qr_masked_solve(window, np.ones(5), np.arange(5), 0)
        with pytest.raises(ValueError):
            qr_masked_solve(window, np.ones(5), np.arange(5), 4)


def same_bits(got, want) -> bool:
    """Same shape, dtype and bytes: bitwise equality, signed zeros too."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


# lsq calls the compiled routine under scipy's svdvals. A scipy whose
# public function comes to compute something else must fail these, not
# move the solver's iterates unseen.


@pytest.mark.parametrize("c", range(1, 51))
def test_sigma_min_is_bitwise_svdvals(c):
    rng = np.random.default_rng(c)
    buf = np.zeros((c + 3, c + 3), order="F")
    buf[:c, :c] = np.triu(rng.standard_normal((c, c)))
    buf[:c, :c] *= 10.0 ** rng.uniform(-6.0, 6.0, c)
    view = buf[:c, :c]
    for r in (np.asfortranarray(view), view, np.ascontiguousarray(view)):
        got = lsq.estimate_sigma_min(r)
        assert type(got) is float
        assert same_bits(np.float64(got), svdvals(r)[-1])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sigma_min_rejects_non_finite_factor(bad):
    r = np.triu(np.random.default_rng(0).standard_normal((4, 4)))
    r[1, 3] = bad
    with pytest.raises(ValueError):
        lsq.estimate_sigma_min(r)


@settings(max_examples=60, deadline=None)
@given(l1=st.integers(1, 40), m=st.integers(1, 8),
       groups=st.lists(st.integers(1, 3), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_solves_return_the_factors_min_diagonal(l1, m, groups, seed):
    # Both solves return min |diag R| of the factor they return, bitwise,
    # and it bounds that factor's smallest singular value from above: the
    # guard's diagonal tests read it in place of an SVD.
    m = min(m, l1)
    rng = np.random.default_rng(seed)
    window = np.zeros((l1, m), order="F")
    factor = WindowFactor(l1, m)
    filled = 0
    for group in groups:
        for _ in range(group):
            col = rng.standard_normal(l1) * 10.0 ** rng.uniform(-3.0, 3.0)
            if filled == m:
                window[:, :-1] = window[:, 1:].copy()
            else:
                filled += 1
            window[:, filled - 1] = col
            factor.push()
        rhs = rng.standard_normal(l1)
        rows = np.sort(rng.choice(l1, size=int(rng.integers(filled, l1 + 1)),
                                  replace=False))
        for _, r, r_min in (factor.solve(window, rhs),
                            qr_masked_solve(window, rhs, rows, filled)):
            assert r_min == float(np.abs(np.diagonal(r)).min())
            assert r_min >= lsq.estimate_sigma_min(r)


def drive_window(factor, window, columns, rhs_rng=None):
    """Push ``columns`` through a chronological window, a simple reference
    that shifts it left when full, and solve after every push.

    Returns the filled column count and the last (alpha, r_factor, rhs).
    """
    l1, m = window.shape
    filled = 0
    last = None
    for col in columns:
        if filled == m:
            window[:, :-1] = window[:, 1:].copy()
            window[:, -1] = col
        else:
            window[:, filled] = col
            filled += 1
        factor.push()
        rhs = col if rhs_rng is None else rhs_rng.standard_normal(l1)
        alpha, r, _ = factor.solve(window, rhs)
        last = (alpha, r, rhs)
    return filled, last


def factor_errors(factor, window, r):
    """Errors of the window factor after a solve that returned ``r``: of
    the Gram matrix it keeps against F^T F of the window, and the two
    `fit_errors` of R over the newest columns it factors."""
    c = factor.cols
    w = window[:, :c]
    gram = w.T @ w
    held = np.linalg.norm(np.tril(factor.gram[:c, :c]) - np.tril(gram))
    return (held / np.linalg.norm(gram), *fit_errors(w, r))


def fit_errors(w, r):
    """Errors of a lower triangular R over the newest r.shape[0] columns W
    of ``w``: of R^T R against W^T W, and of the basis W R^{-1} against
    orthonormality."""
    t = r.shape[0]
    kept = w[:, -t:]
    gram = kept.T @ kept
    recon = np.linalg.norm(r.T @ r - gram) / np.linalg.norm(gram)
    q = solve_triangular(r, kept.T, trans="T", lower=True).T
    return recon, np.linalg.norm(q.T @ q - np.eye(t))


def kept_lstsq(window, filled, alpha, rhs):
    """lstsq over the newest len(alpha) of the window's filled columns, and
    the condition number of those columns."""
    w = window[:, filled - len(alpha):filled]
    return np.linalg.lstsq(w, rhs, rcond=None)[0], np.linalg.cond(w)


class TestWindowFactor:
    @pytest.mark.parametrize("l1, m", [(200, 10), (500, 50)])
    def test_reconstruction_and_orthogonality_over_cycles(self, l1, m):
        # 3m pushes past the first fill: every column of the Gram matrix
        # has been dropped and replaced three times over. R^T R must
        # reproduce it, and F R^{-1} must be orthonormal, as in CholeskyQR.
        rng = np.random.default_rng(l1 + m)
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        cols = rng.standard_normal((4 * m, l1))
        filled, (alpha, r, _) = drive_window(factor, window, cols)
        assert filled == m and factor.cols == m and len(alpha) == m
        held, recon, orth = factor_errors(factor, window, r)
        assert held < 1e-14 and recon < 1e-13 and orth < 1e-13
        np.testing.assert_array_equal(r, np.tril(r))
        assert factor.filtered == 0

    def test_gram_matches_fresh_factor(self):
        # R^T R does not depend on the row signs of R, or on R being lower
        # triangular, so the guard reads the singular values a fresh
        # Householder factor would give.
        rng = np.random.default_rng(11)
        window = np.zeros((60, 6), order="F")
        factor = WindowFactor(60, 6)
        _, (_, r, _) = drive_window(factor, window, rng.standard_normal((20, 60)))
        r_fresh = np.linalg.qr(window)[1]
        np.testing.assert_allclose(r.T @ r, r_fresh.T @ r_fresh,
                                   rtol=1e-12, atol=1e-12)

    def test_alpha_matches_lstsq_to_conditioning(self):
        # Normal equations lose accuracy with the square of the window's
        # condition number; the filter keeps every column here. The sketch
        # solves from a Gram matrix too, over a random half of the rows.
        rng = np.random.default_rng(12)
        l1, m = 300, 8
        for trial in range(5):
            # Geometrically graded columns give cond up to about 1e6.
            scales = np.logspace(0, -trial - 1.5, m)
            base = rng.standard_normal((l1, m)) @ np.diag(scales)
            mix = np.linalg.qr(rng.standard_normal((m, m)))[0]
            cols = (base @ mix).T
            window = np.zeros((l1, m), order="F")
            factor = WindowFactor(l1, m)
            filled, (alpha, _, rhs) = drive_window(
                factor, window, np.vstack([rng.standard_normal((m, l1)), cols]),
                rhs_rng=rng,
            )
            assert len(alpha) == filled == m
            expected, cond = kept_lstsq(window, filled, alpha, rhs)
            err = np.linalg.norm(alpha - expected) / np.linalg.norm(expected)
            assert err <= 100.0 * cond ** 2 * np.finfo(float).eps
            rows = np.sort(rng.choice(l1, size=l1 // 2, replace=False))
            alpha, _, _ = qr_masked_solve(window, rhs, rows, m)
            expected, cond = kept_lstsq(window[rows], m, alpha, rhs[rows])
            err = np.linalg.norm(alpha - expected) / np.linalg.norm(expected)
            assert err <= 100.0 * cond ** 2 * np.finfo(float).eps

    def test_duplicate_column_is_filtered_and_reset_recovers(self):
        # A copy of a newer column has no angle to it: the solve keeps the
        # newest column only, and the window keeps both.
        rng = np.random.default_rng(14)
        l1, m = 30, 4
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        col = rng.standard_normal(l1)
        filled, (alpha, _, rhs) = drive_window(
            factor, window, [rng.standard_normal(l1), col, col])
        assert filled == factor.columns == 3
        assert len(alpha) == 1 and factor.filtered == 1
        np.testing.assert_allclose(alpha, [1.0], rtol=1e-14)
        factor.reset()
        assert factor.cols == 0 and factor.pending == 0
        window[:] = 0.0
        filled, (alpha, r, rhs) = drive_window(
            factor, window, rng.standard_normal((6, l1)), rhs_rng=rng
        )
        expected = np.linalg.lstsq(window[:, :filled], rhs, rcond=None)[0]
        np.testing.assert_allclose(alpha, expected, rtol=1e-10, atol=1e-12)
        held, recon, orth = factor_errors(factor, window, r)
        assert held < 1e-14 and recon < 1e-14 and orth < 1e-14

    def test_filter_keeps_the_newest_run(self):
        # Newest first, b passes and a is in the span of b and a + b. The run
        # kept ends at a, though the two oldest columns are independent of
        # everything newer.
        rng = np.random.default_rng(20)
        l1 = 25
        x, y, a, b = rng.standard_normal((4, l1))
        window = np.zeros((l1, 5), order="F")
        factor = WindowFactor(l1, 5)
        filled, (alpha, r, rhs) = drive_window(
            factor, window, [x, y, a, b, a + b], rhs_rng=rng)
        assert filled == 5 and len(alpha) == 2 and r.shape == (2, 2)
        assert factor.filtered == 1
        expected, _ = kept_lstsq(window, filled, alpha, rhs)
        np.testing.assert_allclose(alpha, expected, rtol=1e-12)

    def test_zero_column_raises(self):
        window = np.zeros((10, 3), order="F")
        factor = WindowFactor(10, 3)
        with pytest.raises(RankDeficient):
            drive_window(factor, window, [np.zeros(10)])

    def test_lagging_factor_catches_up(self):
        # Pushes without a solve in between (sketched steps) are folded in
        # by the next solve; past a whole window the Gram matrix is rebuilt.
        rng = np.random.default_rng(15)
        l1, m = 50, 5
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        filled = 0
        for pushes in (2, 1, 3, 4, 1, 7, 2):
            for _ in range(pushes):
                if filled == m:
                    window[:, :-1] = window[:, 1:].copy()
                    window[:, -1] = rng.standard_normal(l1)
                else:
                    window[:, filled] = rng.standard_normal(l1)
                    filled += 1
                factor.push()
            rhs = rng.standard_normal(l1)
            alpha, r, _ = factor.solve(window, rhs)
            expected = np.linalg.lstsq(window[:, :filled], rhs, rcond=None)[0]
            np.testing.assert_allclose(alpha, expected, rtol=1e-10, atol=1e-12)
            held, recon, orth = factor_errors(factor, window, r)
            assert held < 1e-14 and recon < 1e-14 and orth < 1e-14

    @pytest.mark.parametrize("before", [2, 4])
    def test_overflowing_column_is_refused(self, before):
        # A column near 1e300 entering after 2 columns (no drop) or on a
        # full window (one drop). Its Gram entry overflows, so the newest
        # column fails the filter and the window is refused as rank
        # deficient; once a finite column enters after it, the solve keeps
        # that one. Neither raises a numpy RuntimeWarning, which
        # pyproject.toml turns into an error.
        rng = np.random.default_rng(17)
        l1, m = 30, 4
        cols = rng.standard_normal((before + 1, l1))
        cols[-1] *= 1e300
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        with pytest.raises(RankDeficient):
            drive_window(factor, window, cols)
        filled = factor.cols
        assert filled == min(before + 1, m)
        if filled == m:
            window[:, :-1] = window[:, 1:].copy()
        else:
            filled += 1
        window[:, filled - 1] = rng.standard_normal(l1)
        factor.push()
        alpha, _, _ = factor.solve(window, rng.standard_normal(l1))
        assert len(alpha) == 1

    def test_near_parallel_columns_keep_the_fit_accurate(self):
        # Columns u + 1e-7 w are nearly parallel: each leaves a sine of
        # about 1e-7 to the newer ones, below KEEP_SINE, so every solve
        # keeps only the newest. One-push and multi-push solves alternate;
        # the fit over the column kept must be as accurate as lstsq's.
        rng = np.random.default_rng(18)
        l1, m = 200, 6
        u = rng.standard_normal(l1)
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        filled = solves = 0
        for pushes in (2, 1, 1, 2, 1, 1, 1, 3, 1, 1, 2, 1, 1):
            for _ in range(pushes):
                col = u + 1e-7 * rng.standard_normal(l1)
                if filled == m:
                    window[:, :-1] = window[:, 1:].copy()
                    window[:, -1] = col
                else:
                    window[:, filled] = col
                    filled += 1
                factor.push()
            rhs = window[:, :filled] @ rng.standard_normal(filled)
            alpha, r, _ = factor.solve(window, rhs)
            solves += 1
            assert len(alpha) == 1
            expected, _ = kept_lstsq(window, filled, alpha, rhs)
            np.testing.assert_allclose(alpha, expected, rtol=1e-13)
            assert factor_errors(factor, window, r)[0] < 1e-14
        assert factor.filtered == solves

    def test_solve_without_a_push_rejected(self):
        rng = np.random.default_rng(19)
        window = rng.standard_normal((10, 3))
        factor = WindowFactor(10, 3)
        factor.push()
        factor.solve(window, np.ones(10))
        with pytest.raises(ValueError, match="no column was pushed"):
            factor.solve(window, np.ones(10))


# One operation of a random window history: push a fresh column, push a
# scaled copy of a column already in the window, or restart the window.
_op = st.tuples(
    st.sampled_from(("push",) * 6 + ("dup", "reset")),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(
    l1=st.integers(3, 40),
    m=st.integers(1, 6),
    ops=st.lists(_op, min_size=1, max_size=40),
    solve_every=st.integers(1, 7),
)
def test_factor_tracks_random_window_histories(l1, m, ops, solve_every):
    m = min(m, l1)
    # Up to m + 1 pushes between solves, so that at every window size some
    # solves find none of the Gram matrix left in the window and rebuild it.
    solve_every = min(solve_every, m + 1)
    window = np.zeros((l1, m), order="F")
    factor = WindowFactor(l1, m)
    filled = 0
    for step, (kind, seed) in enumerate(ops):
        if kind == "reset":
            filled = 0
            factor.reset()
            continue
        rng = np.random.default_rng(seed)
        if kind == "dup" and filled:
            col = window[:, rng.integers(filled)] * rng.uniform(0.5, 2.0)
        else:
            col = rng.standard_normal(l1)
        if filled == m:
            window[:, :-1] = window[:, 1:].copy()
            window[:, -1] = col
        else:
            window[:, filled] = col
            filled += 1
        factor.push()
        if step % solve_every:
            continue
        rhs = rng.standard_normal(l1)
        # The newest column is never zero here, and a kept run of random
        # columns and copies is far from COEFF_LIMIT: the solve succeeds.
        alpha, r, _ = factor.solve(window, rhs)
        t = len(alpha)
        held, recon, _ = factor_errors(factor, window, r)
        assert held < 1e-13 and recon < 1e-12
        np.testing.assert_array_equal(r, np.tril(r))
        # The run kept ends at a copy of a newer column, and only there: the
        # next older column, if any, has no angle to the ones kept.
        w = window[:, filled - t:filled]
        if t < filled:
            older = window[:, filled - t - 1]
            off = older - w @ np.linalg.lstsq(w, older, rcond=None)[0]
            assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(older)
        svals = np.linalg.svd(w, compute_uv=False)
        expected = np.linalg.lstsq(w, rhs, rcond=None)[0]
        err = np.linalg.norm(alpha - expected)
        assert err <= 100.0 * (svals[0] / svals[-1]) ** 2 * np.finfo(float).eps * max(
            np.linalg.norm(expected), 1.0
        )


@settings(max_examples=100, deadline=None)
@given(
    l1=st.integers(1, 12),
    m=st.integers(1, 6),
    ops=st.lists(st.sampled_from(("push", "push", "solve", "reset")),
                 max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_columns_count_the_window(l1, m, ops, seed):
    # The factor's columns are the solver's only count of the window's
    # width: the pushes since the last reset, capped at m, whatever solves
    # came between them, a refused one included.
    m = min(m, l1)
    window = np.random.default_rng(seed).standard_normal((l1, m))
    factor = WindowFactor(l1, m)
    count, pushed = 0, False
    for op in ops:
        if op == "push":
            factor.push()
            count, pushed = min(count + 1, m), True
        elif op == "reset":
            factor.reset()
            count, pushed = 0, False
        elif pushed:
            try:
                factor.solve(window, window[:, 0])
            except RankDeficient:
                pass
            pushed = False
        assert factor.columns == count
