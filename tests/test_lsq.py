"""Masked least squares and the window factor."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import qr_delete, qr_multiply, solve_triangular, svdvals
from scipy.linalg.lapack import dgeqrf, dormqr

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

    def test_r_factor_is_upper_triangular(self):
        rng = np.random.default_rng(3)
        window = rng.standard_normal((15, 5))
        _, r, _ = qr_masked_solve(window, rng.standard_normal(15), np.arange(15), 5)
        np.testing.assert_array_equal(r, np.triu(r))

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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("where", ["window", "rhs"])
    def test_non_finite_rows_raise_rank_deficient(self, bad, where):
        # LAPACK is called without scipy's finite check; a non-finite
        # entry must still end in RankDeficient, which the guard catches.
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


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), cols=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_back_substitution_is_bitwise_solve_triangular(m, cols, seed):
    # The direct LAPACK call must give solve_triangular's result bit for
    # bit, for the window factor's strided view and for contiguous copies
    # in either order.
    cols = min(cols, m)
    rng = np.random.default_rng(seed)
    buf = np.asfortranarray(np.triu(rng.standard_normal((m, m)))
                            + 4.0 * np.eye(m))
    qtr = rng.standard_normal(m)[:cols]
    view = buf[:cols, :cols]
    for r in (view, np.asfortranarray(view), np.ascontiguousarray(view)):
        expected = solve_triangular(r, qtr, check_finite=False)
        alpha, r_min = lsq._back_substitute(r, qtr)
        assert alpha.shape == expected.shape
        np.testing.assert_array_equal(alpha, expected)
        assert r_min == float(np.abs(np.diagonal(r)).min())


def same_bits(got, want) -> bool:
    """Same shape, dtype and bytes: bitwise equality, signed zeros too."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


# lsq calls the compiled routines under scipy's qr_delete, svdvals and
# qr_multiply. A scipy whose public functions come to compute something
# else must fail these, not move the solver's iterates unseen.


@pytest.mark.parametrize("layout", ["push", "drop"])
@pytest.mark.parametrize("l1, c", [(6, 1), (40, 3), (1024, 11), (961, 10)])
def test_qr_delete_kernel_is_bitwise_qr_delete(layout, l1, c):
    # "push": the (l1, c + 1) view of the (l1, m + 1) basis and the
    # (c + 1)-square view of the grown R that a drop in `_push_one` passes;
    # "drop": the (l1, c) view and the c-square view of an m x m R.
    m = c + 2
    rng = np.random.default_rng(l1 + c)
    k = c + 1 if layout == "push" else c
    q = np.zeros((l1, m + 1), order="F")
    r = np.zeros((m + 1, m + 1) if layout == "push" else (m, m), order="F")
    q[:, :k], r[:k, :k] = np.linalg.qr(rng.standard_normal((l1, k)))
    q2, r2 = q.copy(order="F"), r.copy(order="F")
    got = lsq._qr_delete(q[:, :k], r[:k, :k], 0, 1, which="col",
                         overwrite_qr=True, check_finite=False)
    want = qr_delete(q2[:, :k], r2[:k, :k], 0, 1, which="col",
                     overwrite_qr=True, check_finite=False)
    assert same_bits(q, q2) and same_bits(r, r2)
    for g, w in zip(got, want, strict=True):
        assert same_bits(g, w)


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


def test_masked_solve_is_bitwise_qr_multiply():
    rng = np.random.default_rng(12)
    for _ in range(40):
        l1 = int(rng.integers(2, 200))
        m = int(rng.integers(1, min(l1, 12) + 1))
        cols = int(rng.integers(1, m + 1))
        # The window is a view into a wider column-major buffer, as the
        # solver's is.
        window = np.asfortranarray(rng.standard_normal((l1, m + 3)))[:, 2:2 + m]
        rhs = rng.standard_normal(l1)
        rows = np.sort(rng.choice(l1, size=int(rng.integers(cols, l1 + 1)),
                                  replace=False))
        qtr, r_want = qr_multiply(window[rows, :cols], rhs[rows], mode="right")
        alpha, r_got, _ = qr_masked_solve(window, rhs, rows, cols)
        assert same_bits(r_got, r_want)
        assert r_got.flags.f_contiguous == r_want.flags.f_contiguous
        assert same_bits(alpha, solve_triangular(r_want, qtr,
                                                 check_finite=False))


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


def test_lapack_illegal_argument_raises(capfd):
    # A right-hand side taller than the factor leaves the factor's leading
    # dimension, LAPACK's argument 7, too small. LAPACK reports that through
    # XERBLA, which prints to stdout, and a negative info, which `_lapack`
    # raises.
    qr, tau = lsq._lapack(dgeqrf, np.ones((4, 2)))
    with pytest.raises(ValueError, match="dormqr: illegal argument 7"):
        lsq._lapack(dormqr, "L", "T", qr, tau, np.ones((6, 1)))
    capfd.readouterr()


def factor_errors(factor, window, cols):
    q = factor.q[:, :cols]
    r = factor.r[:cols, :cols]
    w = window[:, :cols]
    recon = np.linalg.norm(q @ r - w) / np.linalg.norm(w)
    orth = np.linalg.norm(q.T @ q - np.eye(cols))
    return recon, orth


class TestWindowFactor:
    @pytest.mark.parametrize("l1, m", [(200, 10), (500, 50)])
    def test_reconstruction_and_orthogonality_over_cycles(self, l1, m):
        # 3m pushes past the first fill: every column of the factor has been
        # dropped and replaced three times over.
        rng = np.random.default_rng(l1 + m)
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        cols = rng.standard_normal((4 * m, l1))
        filled, _ = drive_window(factor, window, cols)
        assert filled == m and factor.cols == m
        recon, orth = factor_errors(factor, window, m)
        assert recon < 1e-13
        assert orth < 1e-13
        r = factor.r[:m, :m]
        np.testing.assert_array_equal(r, np.triu(r))
        assert factor.updates == 4 * m and factor.refreshes == 0

    def test_gram_matches_fresh_factor(self):
        # R^T R does not depend on the row signs of R, so the guard reads
        # the singular values a fresh Householder factor would give.
        rng = np.random.default_rng(11)
        window = np.zeros((60, 6), order="F")
        factor = WindowFactor(60, 6)
        drive_window(factor, window, rng.standard_normal((20, 60)))
        r_fresh = np.linalg.qr(window)[1]
        r = factor.r
        np.testing.assert_allclose(r.T @ r, r_fresh.T @ r_fresh,
                                   rtol=1e-12, atol=1e-12)

    def test_alpha_matches_lstsq_to_conditioning(self):
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
            expected = np.linalg.lstsq(window[:, :filled], rhs, rcond=None)[0]
            cond = np.linalg.cond(window[:, :filled])
            err = np.linalg.norm(alpha - expected) / np.linalg.norm(expected)
            assert err <= 100.0 * cond * np.finfo(float).eps

    def test_duplicate_column_raises_and_reset_recovers(self):
        rng = np.random.default_rng(14)
        l1, m = 30, 4
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        col = rng.standard_normal(l1)
        with pytest.raises(RankDeficient):
            drive_window(factor, window, [rng.standard_normal(l1), col, col])
        factor.reset()
        assert factor.cols == 0 and factor.pending == 0
        window[:] = 0.0
        filled, (alpha, _, rhs) = drive_window(
            factor, window, rng.standard_normal((6, l1)), rhs_rng=rng
        )
        expected = np.linalg.lstsq(window[:, :filled], rhs, rcond=None)[0]
        np.testing.assert_allclose(alpha, expected, rtol=1e-10, atol=1e-12)
        recon, orth = factor_errors(factor, window, filled)
        assert recon < 1e-14 and orth < 1e-14

    def test_zero_column_raises(self):
        window = np.zeros((10, 3), order="F")
        factor = WindowFactor(10, 3)
        with pytest.raises(RankDeficient):
            drive_window(factor, window, [np.zeros(10)])

    def test_lagging_factor_catches_up(self):
        # Pushes without a solve in between (sketched steps) are folded in
        # by the next solve; past a whole window the factor is rebuilt.
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
            alpha, _, _ = factor.solve(window, rhs)
            expected = np.linalg.lstsq(window[:, :filled], rhs, rcond=None)[0]
            np.testing.assert_allclose(alpha, expected, rtol=1e-10, atol=1e-12)
            recon, orth = factor_errors(factor, window, filled)
            assert recon < 1e-14 and orth < 1e-14

    @pytest.mark.parametrize("before", [2, 4])
    def test_overflowing_column_refactors_then_refuses(self, before):
        # A column near 1e300 entering with the previous column's
        # correction pending, after 2 columns (no drop) or on a full window
        # (one drop). Its first-pass norm overflows, so the solve finds its
        # second pass lost and refactors, and the factor must refuse the
        # window as rank deficient with no numpy RuntimeWarning, which
        # pyproject.toml turns into an error.
        rng = np.random.default_rng(17)
        l1, m = 30, 4
        cols = rng.standard_normal((before + 1, l1))
        cols[-1] *= 1e300
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        with pytest.raises(RankDeficient):
            drive_window(factor, window, cols)
        assert factor.cols == min(before + 1, m)
        assert factor.updates == before and factor.refreshes == 1

    def test_near_parallel_columns_keep_the_fit_accurate(self):
        # Columns u + 1e-7 w are nearly parallel (cond about 3e7), so a
        # first pass leaves the new column about 1e-9 off orthogonal to
        # the basis. One-push and multi-push solves alternate: whichever
        # makes a pending correction, every column but the newest must
        # come out orthonormal, the factor must reproduce the window, and
        # alpha must be as accurate as both passes at once would make it.
        rng = np.random.default_rng(18)
        l1, m = 200, 6
        u = rng.standard_normal(l1)
        window = np.zeros((l1, m), order="F")
        factor = WindowFactor(l1, m)
        filled = 0
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
            w = window[:, :filled]
            expected = rng.standard_normal(filled)
            alpha, _, _ = factor.solve(window, w @ expected)
            recon, _ = factor_errors(factor, window, filled)
            assert recon < 1e-14
            assert factor_errors(factor, window, filled - 1)[1] < 1e-13
            err = np.linalg.norm(alpha - expected) / np.linalg.norm(expected)
            assert err <= 100.0 * np.linalg.cond(w) * np.finfo(float).eps
        assert factor.refreshes == 0

    def test_lost_pass_on_an_earlier_column_refactors(self, monkeypatch):
        # Three pushes into a factor of two columns: when the second pass of
        # the first entering column is lost, the solve refactors the window
        # even though the later columns' passes hold.
        rng = np.random.default_rng(21)
        l1, m = 40, 6
        window = rng.standard_normal((l1, m))
        factor = WindowFactor(l1, m)
        factor.push()
        factor.push()
        factor.solve(window, rng.standard_normal(l1))
        project = WindowFactor._project
        calls = []

        def lose_first(self, rhs, cols):
            calls.append(cols)
            return None if len(calls) == 1 else project(self, rhs, cols)

        monkeypatch.setattr(WindowFactor, "_project", lose_first)
        for _ in range(3):
            factor.push()
        rhs = rng.standard_normal(l1)
        alpha, _, _ = factor.solve(window, rhs)
        assert calls == [3, 5]
        assert factor.refreshes == 1 and factor.updates == 1
        expected = np.linalg.lstsq(window[:, :5], rhs, rcond=None)[0]
        np.testing.assert_allclose(alpha, expected, rtol=1e-10, atol=1e-12)

    def test_solve_without_a_push_rejected(self):
        rng = np.random.default_rng(19)
        window = rng.standard_normal((10, 3))
        factor = WindowFactor(10, 3)
        factor.push()
        factor.solve(window, np.ones(10))
        with pytest.raises(ValueError, match="no column was pushed"):
            factor.solve(window, np.ones(10))

    def test_loss_of_orthogonality_refactors(self, monkeypatch):
        # With the keep ratio above 1 every second pass counts as lost. The
        # first column enters an empty factor and is only normalised, so it
        # has no second pass to lose and the first solve is an update.
        # Every later solve makes its column's second pass from its own
        # q^T [q~ f] product, which loses. So eight of the nine solves
        # refactor, and the answer must not change.
        monkeypatch.setattr(lsq, "REORTH_KEEP", 1.5)
        rng = np.random.default_rng(16)
        window = np.zeros((40, 4), order="F")
        factor = WindowFactor(40, 4)
        filled, (alpha, _, rhs) = drive_window(
            factor, window, rng.standard_normal((9, 40)), rhs_rng=rng
        )
        assert factor.refreshes == 8 and factor.updates == 1
        assert not factor.delayed
        expected = np.linalg.lstsq(window[:, :filled], rhs, rcond=None)[0]
        np.testing.assert_allclose(alpha, expected, rtol=1e-10, atol=1e-12)
        recon, orth = factor_errors(factor, window, filled)
        assert recon < 1e-14 and orth < 1e-14


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
    # solves find none of the factor left in the window and rebuild it.
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
        w = window[:, :filled]
        svals = np.linalg.svd(w, compute_uv=False)
        try:
            alpha, r, _ = factor.solve(window, rhs)
        except RankDeficient:
            # Only a numerically rank-deficient window may be refused; the
            # solver then restarts it.
            assert svals[-1] <= 1e-10 * svals[0]
            filled = 0
            factor.reset()
            continue
        cond = svals[0] / svals[-1]
        recon, orth = factor_errors(factor, window, filled)
        assert recon < 1e-12
        assert orth < 1e-12
        # Every column but the newest has had both Gram-Schmidt passes.
        if filled > 1:
            assert factor_errors(factor, window, filled - 1)[1] < 1e-13
        expected = np.linalg.lstsq(w, rhs, rcond=None)[0]
        err = np.linalg.norm(alpha - expected)
        assert err <= 100.0 * cond * np.finfo(float).eps * max(
            np.linalg.norm(expected), 1.0
        )


@settings(max_examples=60, deadline=None)
@given(
    l1=st.integers(6, 40),
    m=st.integers(2, 6),
    groups=st.lists(st.tuples(st.integers(1, 8), st.booleans()),
                    min_size=1, max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_push_solve_is_one_push_solves(l1, m, groups, seed):
    # A solve after k pushes must enter them exactly as k solves after one
    # push each would: Q, R and alpha bitwise equal. When none of the
    # factor is left in the window, it must rebuild the factor exactly as a
    # new one would. Some groups restart the window first.
    rng = np.random.default_rng(seed)
    window = np.zeros((l1, m), order="F")
    grouped, single = WindowFactor(l1, m), WindowFactor(l1, m)
    filled = 0
    for pushes, restart in groups:
        if restart:
            filled = 0
            grouped.reset()
            single.reset()
        pushes = min(pushes, m + 2)
        for _ in range(pushes):
            col = rng.standard_normal(l1)
            if filled == m:
                window[:, :-1] = window[:, 1:].copy()
                window[:, -1] = col
            else:
                window[:, filled] = col
                filled += 1
            grouped.push()
            single.push()
            rhs = rng.standard_normal(l1)
            alpha_single, _, _ = single.solve(window, rhs)
        alpha, _, _ = grouped.solve(window, rhs)
        if pushes >= filled:
            single = WindowFactor(l1, m)
            for _ in range(filled):
                single.push()
            alpha_single, _, _ = single.solve(window, rhs)
        c = grouped.cols
        assert c == single.cols == filled
        assert grouped.delayed == single.delayed
        np.testing.assert_array_equal(grouped.q[:, :c], single.q[:, :c])
        np.testing.assert_array_equal(grouped.r[:c, :c], single.r[:c, :c])
        np.testing.assert_array_equal(alpha, alpha_single)


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
