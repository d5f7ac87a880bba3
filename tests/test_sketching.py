"""Masks, the stability guard's arithmetic, and the adaptive step."""
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import adaptive_step_reference, subselection_stable_argsort

from aap import lsq, sketching
from aap.fixed_point import UnknownField, from_fixed_point_form
from aap.problems import make_bidomain_toy, make_saddle_point
from aap.sketching import (
    REASONS,
    Adaptivity,
    MixingStep,
    adaptive_step,
    ETA_EXPONENT,
    budget_weights,
    epsilon_rhs,
    perturbation_norm,
    select_randomized,
    select_subselection,
    sketch_size,
    stability_hypothesis,
    stability_threshold,
    update_lipschitz,
)
from aap.lsq import estimate_sigma_min
from aap.solver import SolverConfig, Workspace, push_window


class TestBuildStaticMask:
    """The level-one restriction a config's static_mask names: the views
    f_r and df_r of the field's rows of the workspace's f and df."""

    @staticmethod
    def restricted_rows(problem, static_mask):
        ws = Workspace(problem, SolverConfig(static_mask=static_mask))
        ws.f[:] = np.arange(problem.dimension)
        ws.df[:] = -ws.f
        np.testing.assert_array_equal(ws.df_r, -ws.f_r)
        return ws.f_r

    def test_pressure_field(self):
        problem = make_saddle_point(5)
        start, stop = dict(problem.fields)["pressure"]
        np.testing.assert_array_equal(
            self.restricted_rows(problem, "pressure"), np.arange(start, stop))

    def test_none_is_identity(self):
        problem = make_saddle_point(5)
        np.testing.assert_array_equal(
            self.restricted_rows(problem, None), np.arange(problem.dimension))

    def test_bidomain_extracellular(self):
        problem = make_bidomain_toy(5)
        np.testing.assert_array_equal(
            self.restricted_rows(problem, "extracellular"), np.arange(25))

    def test_unknown_field(self):
        problem = make_saddle_point(5)
        with pytest.raises(UnknownField):
            Workspace(problem, SolverConfig(static_mask="temperature"))


class TestLipschitz:
    def test_ratio_raises_estimate(self):
        assert update_lipschitz(2.0, 3.0, 1.0) == 3.0

    def test_ratio_below_keeps_estimate(self):
        assert update_lipschitz(5.0, 3.0, 1.0) == 5.0

    def test_zero_displacement_no_update(self):
        assert update_lipschitz(2.0, 3.0, 0.0) == 2.0

    def test_bounded_by_spectral_norm_on_linear_map(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        spectral = np.linalg.svd(a, compute_uv=False)[0]
        lk = 0.0
        x_prev = rng.standard_normal(8)
        f_prev = a @ x_prev
        for _ in range(30):
            x = rng.standard_normal(8)
            f = a @ x
            lk = update_lipschitz(
                lk, np.linalg.norm(f - f_prev), np.linalg.norm(x - x_prev)
            )
            x_prev, f_prev = x, f
        assert 0.0 < lk <= spectral * (1.0 + 1e-12)


class TestEta:
    def test_power_at_one(self):
        assert budget_weights(Adaptivity.SUBSELECT_POWER, 1) == [1.0]

    def test_constant_everywhere(self):
        for adaptivity in (Adaptivity.NONE, Adaptivity.SUBSELECT_CONSTANT,
                           Adaptivity.RANDOMIZED_CONSTANT):
            assert budget_weights(adaptivity, 4) == [1.0] * 4

    def test_power_exponent(self):
        assert ETA_EXPONENT == 1.1
        for adaptivity in (Adaptivity.SUBSELECT_POWER,
                           Adaptivity.RANDOMIZED_POWER):
            weights = budget_weights(adaptivity, 3)
            assert weights[0] == 1.0
            assert weights[1:] == pytest.approx([2.0**1.1, 3.0**1.1],
                                                rel=1e-15)


class TestStabilityHypothesis:
    def test_balanced_case_holds(self):
        assert stability_hypothesis(1.0, 1.0, 1.0, [1.0], [1.0], 0.0)

    def test_halved_sigma_fails(self):
        assert not stability_hypothesis(0.5, 1.0, 1.0, [1.0], [1.0], 0.0)

    def test_one_plus_eps_factor(self):
        # Doubling sigma admits a sketch that drops up to all of |f|.
        assert stability_hypothesis(2.0, 1.0, 1.0, [1.0], [1.0], 1.0)
        assert not stability_hypothesis(2.0, 1.0, 1.0, [1.0], [1.0], 1.5)

    def test_every_column_must_hold(self):
        assert stability_hypothesis(
            1.0, 1.0, 1.0, [1.0, 0.25], [1.0, 1.0], 0.0
        )
        # A column with a wide margin does not make up for one without.
        assert not stability_hypothesis(
            1.0, 1.0, 1.0, [0.25, 2.0], [1.0, 1.0], 0.0
        )

    def test_zero_displacement_column_passes(self):
        assert stability_hypothesis(
            1.0, 1.0, 1.0, [0.0, 1.0], [5.0, 1.0], 0.0
        )
        assert not stability_hypothesis(
            0.5, 1.0, 1.0, [0.0, 1.0], [5.0, 1.0], 0.0
        )

    def test_all_zero_displacements_pass(self):
        assert stability_hypothesis(0.0, 1.0, 1.0, np.zeros(2), np.ones(2), 0.0)

    def test_overflowing_bound_fails_without_warning(self):
        # L |f| |dx| overflows to inf, as on a diverging solve; no finite
        # left side meets it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not stability_hypothesis(1.0, 1e150, 1e150, [1e100], [1.0], 0.0)

    def test_zero_displacement_passes_under_infinite_scale(self):
        # L |f| alone overflows; inf * 0 would be NaN and fail the column.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stability_hypothesis(1.0, 1e200, 1e200, [0.0], [1.0], 0.0)
            assert not stability_hypothesis(1.0, 1e200, 1e200, [0.0, 1.0],
                                            [1.0, 1.0], 0.0)

    def test_zero_displacements_pass_under_infinite_lipschitz(self):
        # mu = 0 gives tau = 0 even where L or |f| is itself infinite, as
        # the per-column form passes every zero column: inf * 0 is NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lipschitz, norm_f in ((np.inf, 1.0), (1.0, np.inf)):
                assert stability_threshold(lipschitz, norm_f, [0.0, 0.0],
                                           [1.0, 2.0]) == 0.0
                assert stability_hypothesis(0.0, lipschitz, norm_f, [0.0],
                                            [1.0], 0.5)

    @settings(max_examples=400, deadline=None)
    @given(
        lipschitz=st.floats(-30.0, 30.0),
        norm_f=st.floats(-30.0, 30.0),
        columns=st.lists(st.tuples(st.one_of(st.none(), st.floats(-30.0, 30.0)),
                                   st.floats(0.0, 3.0)), min_size=1, max_size=8),
        eps=st.floats(0.0, 1.0),
        offset=st.floats(-16.0, 0.0),
        above=st.booleans(),
    )
    def test_threshold_decides_as_every_column(self, lipschitz, norm_f, columns,
                                               eps, offset, above):
        # Magnitudes are powers of ten; a column's dx is zero for None.
        # sigma lies 10**offset (relative) above or below the threshold, and
        # draws within 8 ulps of a tie at any column are set aside: there
        # the two forms may round to different sides.
        lipschitz, norm_f = 10.0 ** lipschitz, 10.0 ** norm_f
        dx_norms = np.array([0.0 if d is None else 10.0 ** d for d, _ in columns])
        etas = np.array([10.0 ** e for _, e in columns])
        tau = stability_threshold(lipschitz, norm_f, dx_norms, etas)
        sigma = (tau or 1.0) * (1.0 + (1.0 if above else -1.0) * 10.0 ** offset)
        ulps = Fraction(8 * np.finfo(float).eps)
        for dx, eta in zip(dx_norms, etas):
            need = (Fraction(lipschitz) * Fraction(norm_f) * Fraction(dx)
                    * (1 + Fraction(eps)))
            assume(abs(Fraction(eta) * Fraction(sigma) - need) > ulps * need)
        per_column = bool(np.all(
            etas * sigma >= lipschitz * norm_f * (1.0 + eps) * dx_norms))
        assert stability_hypothesis(sigma, lipschitz, norm_f, dx_norms, etas,
                                    eps) == per_column
        assert stability_hypothesis(sigma, lipschitz, norm_f, list(dx_norms),
                                    list(etas), eps) == per_column

    def test_hypothesis_implies_the_bound(self):
        # Random windows, sketches and increment norms, with the weights
        # set so the hypothesis just holds: the perturbation of the sketched
        # coefficients must stay within the eta sum.
        rng = np.random.default_rng(11)
        for _ in range(200):
            l1 = int(rng.integers(4, 20))
            c = int(rng.integers(1, 4))
            window = rng.standard_normal((l1, c))
            f = rng.standard_normal(l1)
            rows = np.sort(rng.choice(l1, size=int(rng.integers(c, l1 + 1)),
                                      replace=False))
            dx_norms = rng.uniform(0.5, 2.0, c)
            lipschitz = float(np.max(np.linalg.norm(window, axis=0) / dx_norms))
            alpha = np.linalg.lstsq(window[rows], f[rows], rcond=None)[0]
            sigma = float(np.linalg.svd(window[rows], compute_uv=False)[-1])
            norm_f = float(np.linalg.norm(f))
            eps = epsilon_rhs(f, rows, norm_f)
            etas = lipschitz * norm_f * dx_norms * (1.0 + eps) / sigma
            etas *= 1.0 + 1e-12
            assert stability_hypothesis(sigma, lipschitz, norm_f, dx_norms,
                                        etas, eps)
            assert perturbation_norm(window, rows, alpha) <= etas.sum()


class TestEpsilonRhs:
    def test_identity_keeps_everything(self):
        f = np.array([3.0, 4.0])
        assert epsilon_rhs(f, np.array([0, 1]), 5.0) == 0.0

    def test_empty_selection(self):
        assert epsilon_rhs(np.array([3.0, 4.0]), np.array([], dtype=int),
                           5.0) == 1.0

    def test_pythagorean_case(self):
        f = np.array([3.0, 4.0])
        assert epsilon_rhs(f, np.array([1]), 5.0) == pytest.approx(0.6,
                                                           abs=1e-15)

    def test_zero_residual(self):
        assert epsilon_rhs(np.zeros(3), np.array([0]), 0.0) == 0.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            l1 = int(rng.integers(1, 20))
            f = rng.standard_normal(l1)
            size = int(rng.integers(1, l1 + 1))
            kept = np.sort(rng.choice(l1, size=size, replace=False))
            val = epsilon_rhs(f, kept, np.linalg.norm(f))
            assert 0.0 <= val <= 1.0

    def test_zero_iff_mask_keeps_all_nonzero_entries(self):
        f = np.array([0.0, 2.0, 0.0, -1.0])
        assert epsilon_rhs(f, np.array([1, 3]), np.sqrt(5.0)) == 0.0
        assert epsilon_rhs(f, np.array([1]), np.sqrt(5.0)) > 0.0


class TestSelectSubselection:
    def test_largest_magnitudes(self):
        rows = select_subselection(np.array([0.1, -5.0, 3.0]), 2)
        np.testing.assert_array_equal(rows, [1, 2])

    def test_tie_breaks_to_lower_index(self):
        rows = select_subselection(np.array([1.0, 1.0, 0.0]), 1)
        np.testing.assert_array_equal(rows, [0])

    def test_full_selection(self):
        rows = select_subselection(np.array([1.0, -2.0, 0.5]), 3)
        np.testing.assert_array_equal(rows, [0, 1, 2])

    def test_result_sorted(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.standard_normal(17)
            l2 = int(rng.integers(1, 18))
            rows = select_subselection(f, l2)
            assert rows.size == l2
            assert np.all(np.diff(rows) > 0)

    def test_permutation_equivariance(self):
        # Permuting the residual permutes the selected index set, up to
        # the documented tie-break on indices (avoided here by using
        # distinct magnitudes).
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.permutation(np.arange(1.0, 13.0)) * rng.choice([-1, 1], 12)
            perm = rng.permutation(12)
            l2 = int(rng.integers(1, 13))
            rows = select_subselection(f, l2)
            rows_permuted = select_subselection(f[perm], l2)
            np.testing.assert_array_equal(
                np.sort(perm[rows_permuted]), np.sort(rows)
            )

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        st.one_of(
            st.integers(-3, 3).map(float),
            st.sampled_from([0.0, -0.0]),
            st.floats(allow_nan=False),
        ),
        min_size=1, max_size=40,
    ))
    def test_matches_stable_argsort_under_ties(self, values):
        # Integer values, signed zeros and signed duplicates tie often; the
        # partition must keep the rows a stable sort keeps, for every l2.
        f = np.array(values)
        for l2 in range(1, f.size + 1):
            rows = select_subselection(f, l2)
            expected = subselection_stable_argsort(f, l2)
            assert rows.dtype == expected.dtype
            np.testing.assert_array_equal(rows, expected)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            select_subselection(np.ones(3), 0)
        with pytest.raises(ValueError):
            select_subselection(np.ones(3), 4)


class TestSelectRandomized:
    def test_full_selection_regardless_of_seed(self):
        for seed in (0, 1, 99):
            rows = select_randomized(5, 5, np.random.default_rng(seed))
            np.testing.assert_array_equal(rows, np.arange(5))

    def test_deterministic_for_fixed_seed(self):
        a = select_randomized(20, 7, np.random.default_rng(42))
        b = select_randomized(20, 7, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_sorted_without_replacement(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rows = select_randomized(30, 11, rng)
            assert rows.size == 11
            assert np.all(np.diff(rows) > 0)

    def test_uniform_marginal_frequencies(self):
        # Each of 10 indices should be kept with probability 3/10.
        rng = np.random.default_rng(5)
        counts = np.zeros(10)
        draws = 10_000
        for _ in range(draws):
            counts[select_randomized(10, 3, rng)] += 1
        freq = counts / draws
        np.testing.assert_allclose(freq, 0.3, atol=0.02)

    def test_bounds_checked(self):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            select_randomized(3, 0, rng)
        with pytest.raises(ValueError):
            select_randomized(3, 4, rng)
        assert rng.bit_generator.state == state


class TestSketchSize:
    def test_thirty_percent_of_ten(self):
        assert sketch_size(30.0, 10) == 3

    def test_floor_of_one(self):
        assert sketch_size(1.0, 10) == 1

    def test_hundred_percent(self):
        assert sketch_size(100.0, 7) == 7

    def test_bounds(self):
        with pytest.raises(ValueError):
            sketch_size(0.0, 10)
        with pytest.raises(ValueError):
            sketch_size(101.0, 10)


def make_workspace(columns, f_values, dx_norms, lipschitz,
                   adaptivity=Adaptivity.SUBSELECT_CONSTANT,
                   sketch_percent=30.0):
    """Workspace in a handcrafted post-push state for adaptive_step.

    ``columns`` (l1 x c) are pushed into the window with ``dx_norms``; the
    config's rng_seed is 0, so ``ws.rng`` is ``default_rng(0)`` until a test
    replaces it. Returns the workspace and the whole window's triangular
    factor.
    """
    columns = np.asarray(columns, dtype=float)
    l1, c = columns.shape
    config = SolverConfig(window=8, adaptivity=adaptivity,
                          sketch_percent=sketch_percent)
    ws = Workspace(from_fixed_point_form(lambda x: x, l1), config)
    for col, dx_norm in zip(columns.T, dx_norms, strict=True):
        ws.df[:] = col
        push_window(ws, dx_norm)
    ws.f[:] = f_values
    ws.lipschitz = lipschitz
    return ws, np.linalg.qr(columns, mode="reduced")[1]


def min_diag(r):
    """min |diag R|, which the solver hands to adaptive_step with R."""
    return float(np.abs(np.diagonal(r)).min())


def spikes(l1, *entries):
    """l1 x len(entries) window; column j holds the (row, value) pairs of
    entries[j]."""
    window = np.zeros((l1, len(entries)))
    for j, pairs in enumerate(entries):
        for row, value in pairs:
            window[row, j] = value
    return window


class TestAdaptiveStep:
    # f = linspace(1, 2, 10): subselection keeps rows 7, 8, 9 (30%).
    F = np.linspace(1.0, 2.0, 10)

    def test_no_lipschitz_gives_identity(self):
        ws, r = make_workspace(
            spikes(10, [(7, 1.0)]), self.F, [1.0], lipschitz=0.0
        )
        sketch, rec = adaptive_step(ws, 2, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "no-lipschitz"

    def test_negative_budget_gives_identity(self):
        # min |diag R| of the whole window already fails the hypothesis at
        # eps = 0; it bounds sigma from above, so no row subset can pass,
        # and neither an SVD nor a sketch is taken.
        ws, r = make_workspace(
            spikes(10, [(7, 1e-6)]), self.F, [1.0], lipschitz=1.0
        )
        sketch, rec = adaptive_step(ws, 2, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "lhs-negative"
        assert rec.sigma_min is None
        assert rec.eps_rhs is None

    def test_whole_window_sigma_settles_lhs_negative(self):
        # R = [[1, 10], [0, 1]]: its diagonal passes at eps = 0, its sigma
        # (about 0.099) does not, so the SVD decides and is recorded.
        window = spikes(10, [(7, 1.0)], [(7, 10.0), (8, 1.0)])
        ws, r = make_workspace(window, self.F, [1.0, 1.0],
                               lipschitz=0.1)
        sketch, rec = adaptive_step(ws, 3, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "lhs-negative"
        assert rec.sigma_min == estimate_sigma_min(r)
        assert rec.sigma_min < 0.1
        assert rec.eps_rhs is None

    def test_accepted_mask_obeys_guard(self):
        # A large sigma on the kept rows admits the sketch: the hypothesis
        # holds with the sketched factor's sigma and the dropped share.
        window = spikes(10, [(7, 50.0)], [(8, 40.0)])
        ws, r = make_workspace(window, self.F, [1.0, 1.0],
                               lipschitz=1.0)
        sketch, rec = adaptive_step(ws, 3, r, min_diag(r))
        assert rec.accepted and rec.reason == "accepted"
        rows, alpha, r_sketch = sketch
        np.testing.assert_array_equal(rows, [7, 8, 9])
        assert rec.sigma_min == estimate_sigma_min(r_sketch)
        assert rec.eps_rhs == epsilon_rhs(self.F, rows,
                                          np.linalg.norm(self.F))
        assert stability_hypothesis(rec.sigma_min, 1.0,
                                    float(np.linalg.norm(self.F)), [1.0, 1.0],
                                    [1.0, 1.0], rec.eps_rhs)
        expected = np.linalg.lstsq(window[rows], self.F[rows], rcond=None)[0]
        np.testing.assert_allclose(alpha, expected, rtol=1e-12)

    def test_proposal_rejected_without_a_sketch(self, monkeypatch):
        # sigma = 6 of the whole window passes at eps = 0 but fails at the
        # eps (about 0.74) of rows 7, 8 and 9. A sketch's sigma is at most
        # the whole window's, so the step is rejected with that sigma and
        # no sketch is factored.
        def no_sketch(*args):
            raise AssertionError("a sketch was factored")

        monkeypatch.setattr(lsq, "qr_masked_solve", no_sketch)
        ws, r = make_workspace(
            spikes(10, [(7, 6.0)]), self.F, [1.0], lipschitz=1.0
        )
        sketch, rec = adaptive_step(ws, 2, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "rejected"
        assert rec.sigma_min == estimate_sigma_min(r) == 6.0
        assert rec.eps_rhs == epsilon_rhs(self.F, np.array([7, 8, 9]),
                                          np.linalg.norm(self.F))

    def test_sketch_failing_hypothesis_rejected(self, monkeypatch):
        # The whole window is well conditioned through rows 0 and 1, which
        # the sketch drops; on the kept rows the factor's diagonal is 1,
        # too small, so the sketched factor's SVD is never taken.
        svds = []

        def counted(r_factor):
            svds.append(r_factor.shape)
            return estimate_sigma_min(r_factor)

        monkeypatch.setattr(sketching, "estimate_sigma_min", counted)
        window = spikes(10, [(0, 50.0), (7, 1.0)], [(1, 40.0), (8, 1.0)])
        ws, r = make_workspace(window, self.F, [1.0, 1.0],
                               lipschitz=1.0)
        sketch, rec = adaptive_step(ws, 3, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "rejected" and not rec.accepted
        assert rec.sigma_min is None
        assert len(svds) == 1

    def test_sketch_diagonal_is_the_solves(self, monkeypatch):
        # The sketch's diagonal test reads min |diag| as qr_masked_solve
        # returns it. Reported as 0, it rejects a sketch whose factor's
        # diagonal (50 and 40) would pass, and no SVD of that factor is taken.
        svds = []
        solve = lsq.qr_masked_solve

        def zero_min(*args):
            alpha, r_factor, _ = solve(*args)
            return alpha, r_factor, 0.0

        def counted(r_factor):
            svds.append(r_factor.shape)
            return estimate_sigma_min(r_factor)

        monkeypatch.setattr(lsq, "qr_masked_solve", zero_min)
        monkeypatch.setattr(sketching, "estimate_sigma_min", counted)
        ws, r = make_workspace(spikes(10, [(7, 50.0)], [(8, 40.0)]),
                               self.F, [1.0, 1.0], lipschitz=1.0)
        sketch, rec = adaptive_step(ws, 3, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "rejected" and rec.sigma_min is None
        assert svds == [(2, 2)]

    def test_sketch_sigma_settles_rejection(self):
        # The sketched rows hold [[10, 1], [1, 0]]. Newest column first, the
        # Cholesky factor of their Gram matrix is [[1, 10], [0, 1]]: its
        # diagonal passes, its sigma (about 0.099) fails, and is recorded.
        window = spikes(10, [(0, 50.0), (7, 10.0), (8, 1.0)],
                        [(1, 40.0), (7, 1.0)])
        ws, r = make_workspace(window, self.F, [1.0, 1.0],
                               lipschitz=0.05)
        sketch, rec = adaptive_step(ws, 3, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "rejected"
        r_sketch = np.linalg.qr(window[[7, 8, 9]], mode="r")
        assert rec.sigma_min == pytest.approx(estimate_sigma_min(r_sketch),
                                              rel=1e-12)
        assert rec.sigma_min < 0.1

    def test_rank_deficient_sketch_rejected(self):
        window = spikes(10, [(0, 50.0)], [(1, 40.0)])
        ws, r = make_workspace(window, self.F, [1.0, 1.0],
                               lipschitz=1e-3)
        sketch, rec = adaptive_step(ws, 3, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "rejected" and rec.sigma_min is None

    def test_underdetermined_sketch_rejected(self):
        # l2 = 30% of 10 = 3 rows cannot support 4 window columns.
        window = spikes(10, *[[(6 + j, 50.0)] for j in range(4)])
        ws, r = make_workspace(window, self.F, np.ones(4),
                               lipschitz=1.0)
        sketch, rec = adaptive_step(ws, 5, r, min_diag(r))
        assert sketch is None
        assert rec.reason == "underdetermined"

    def test_zero_residual_gives_zero_coefficients(self):
        # Nothing to drop and nothing to fit: the hypothesis holds at once
        # and the sketched coefficients are those of the whole window, zero.
        ws, r = make_workspace(
            spikes(10, [(0, 50.0), (7, 1.0)]), np.zeros(10), [1.0],
            lipschitz=1.0,
        )
        sketch, rec = adaptive_step(ws, 2, r, min_diag(r))
        assert rec.accepted and rec.eps_rhs == 0.0
        np.testing.assert_array_equal(sketch[1], [0.0])

    def test_randomized_strategy_uses_rng(self):
        f = np.linspace(1.0, 2.0, 20)
        ws, r = make_workspace(
            np.full((20, 1), 100.0), f, [1.0], lipschitz=1.0,
            adaptivity=Adaptivity.RANDOMIZED_CONSTANT,
        )
        ws.rng = np.random.default_rng(1)
        sketch_a, _ = adaptive_step(ws, 2, r, min_diag(r))
        ws.rng = np.random.default_rng(1)
        sketch_b, _ = adaptive_step(ws, 2, r, min_diag(r))
        ws.rng = np.random.default_rng(7)
        sketch_c, _ = adaptive_step(ws, 2, r, min_diag(r))
        np.testing.assert_array_equal(sketch_a[0], sketch_b[0])
        assert sketch_c is not None
        assert not np.array_equal(sketch_a[0], sketch_c[0])

    def test_power_etas_widen_the_budget(self):
        # The newer column's large displacement fails the constant weights
        # but passes under eta_2 = 2**1.1.
        window = spikes(10, [(7, 50.0)], [(8, 40.0)])
        decisions = {}
        for adaptivity in (Adaptivity.SUBSELECT_CONSTANT,
                           Adaptivity.SUBSELECT_POWER):
            ws, r = make_workspace(window, self.F, [1.0, 7.0],
                                   lipschitz=1.0,
                                   adaptivity=adaptivity)
            _, rec = adaptive_step(ws, 3, r, min_diag(r))
            decisions[adaptivity] = rec.reason
        assert decisions == {
            Adaptivity.SUBSELECT_CONSTANT: "rejected",
            Adaptivity.SUBSELECT_POWER: "accepted",
        }


class TestPerturbationNorm:
    def test_identity_masks_give_zero(self):
        rng = np.random.default_rng(6)
        cols = rng.standard_normal((8, 3))
        alpha = rng.standard_normal(3)
        assert perturbation_norm(cols, np.arange(8), alpha) == 0.0

    def test_zero_alpha_gives_zero(self):
        rng = np.random.default_rng(7)
        cols = rng.standard_normal((8, 3))
        kept = np.array([0, 1, 5, 6, 7])
        assert perturbation_norm(cols, kept, np.zeros(3)) == 0.0

    def test_matches_dense_construction(self):
        # (F - SF) alpha with SF the window with the dropped rows zeroed.
        rng = np.random.default_rng(8)
        for _ in range(20):
            cols = rng.standard_normal((8, 3))
            alpha = rng.standard_normal(3)
            dropped = rng.random(8) < 0.4
            masked = cols.copy()
            masked[dropped] = 0.0
            expected = np.linalg.norm((cols - masked) @ alpha)
            got = perturbation_norm(cols, np.flatnonzero(~dropped), alpha)
            assert got == pytest.approx(expected, rel=1e-14, abs=1e-15)


class TestMixingStep:
    def test_flags_follow_the_reason(self):
        for reason in REASONS:
            rec = MixingStep(4, 2, 1.0, reason)
            assert rec.accepted == (reason == "accepted")
            assert rec.fallback == (reason == "no-factor")


def _compare_with_reference_guard(seed, l1, c, log_lipschitz, adaptivity,
                                  percent, graded):
    """Run the guard and the SVD-always reference on one random window.

    Both see the same workspace, factor and rng seed. Returns which test
    settled the guard's step: its reason, and for a recorded sigma whether
    it is the whole window's.
    """
    c = min(c, l1)
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((l1, c))
    if graded:
        columns *= 10.0 ** rng.uniform(-3.0, 0.0, c)
    f = rng.standard_normal(l1) * 10.0 ** rng.uniform(-2.0, 2.0)
    dx_norms = rng.uniform(0.1, 2.0, c)
    ws, r_window = make_workspace(columns, f, dx_norms,
                                  10.0 ** log_lipschitz, adaptivity, percent)
    draws = [np.random.default_rng(seed + 1) for _ in range(2)]
    ws.rng = draws[0]
    sketch, rec = adaptive_step(ws, 5, r_window, min_diag(r_window))
    ref_sketch, ref = adaptive_step_reference(ws, ws.config, 5, draws[1],
                                              r_window)
    assert rec.reason == ref.reason
    assert rec.eps_rhs == ref.eps_rhs
    assert draws[0].bit_generator.state == draws[1].bit_generator.state
    assert (sketch is None) == (ref_sketch is None)
    if sketch is not None:
        for got, want in zip(sketch, ref_sketch, strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    if rec.sigma_min is None:
        return (rec.reason, "diagonal")
    # A recorded sigma is the reference's, but where the whole window's
    # sigma settled a rejection the reference went on to the sketch's.
    whole = rec.sigma_min == estimate_sigma_min(r_window)
    if not (whole and rec.reason == "rejected"):
        assert rec.sigma_min == ref.sigma_min
    return (rec.reason, "whole window" if whole else "sketch")


_GUARD_CASES = dict(
    seed=st.integers(0, 2**32 - 2),
    l1=st.integers(4, 60),
    c=st.integers(1, 8),
    log_lipschitz=st.floats(-4.0, 2.0),
    adaptivity=st.sampled_from([a for a in Adaptivity if a is not Adaptivity.NONE]),
    percent=st.sampled_from([10.0, 30.0, 50.0, 80.0, 100.0]),
    graded=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(**_GUARD_CASES)
def test_guard_matches_svd_always_reference(seed, l1, c, log_lipschitz,
                                            adaptivity, percent, graded):
    _compare_with_reference_guard(seed, l1, c, log_lipschitz, adaptivity,
                                  percent, graded)


def test_reference_comparison_reaches_every_exit():
    # The property test above is only as strong as the exits it reaches:
    # each of the guard's tests must settle some step of a fixed sample.
    rng = np.random.default_rng(11)
    strategies = [a for a in Adaptivity if a is not Adaptivity.NONE]
    exits = set()
    for seed in range(400):
        exits.add(_compare_with_reference_guard(
            seed, int(rng.integers(4, 61)), int(rng.integers(1, 9)),
            float(rng.uniform(-4.0, 2.0)), strategies[seed % 4],
            float(rng.choice([10.0, 30.0, 50.0, 80.0, 100.0])),
            bool(seed % 2),
        ))
    assert exits >= {
        ("lhs-negative", "diagonal"), ("lhs-negative", "whole window"),
        ("rejected", "whole window"), ("rejected", "diagonal"),
        ("rejected", "sketch"), ("accepted", "sketch"),
    }, exits
