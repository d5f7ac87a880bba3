"""Masks, the stability guard's arithmetic, and the adaptive step."""
import numpy as np
import pytest

from aap.fixed_point import UnknownField
from aap.problems import GridSpec, make_bidomain_toy, make_saddle_point
from aap.sketching import (
    Adaptivity,
    InvalidMask,
    MaskOperator,
    adaptive_step,
    build_static_mask,
    epsilon_lhs,
    epsilon_rhs,
    eta,
    identity_mask,
    perturbation_norm,
    select_randomized,
    select_subselection,
    sketch_size,
    update_lipschitz,
)
from aap.solver import SolverConfig, allocate_workspace


class TestMaskOperator:
    def test_identity_flag(self):
        assert identity_mask(4).is_identity
        assert not MaskOperator(kept=np.array([0, 2]), dim=4).is_identity

    def test_empty_rejected(self):
        with pytest.raises(InvalidMask):
            MaskOperator(kept=np.array([], dtype=int), dim=4)

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidMask):
            MaskOperator(kept=np.array([2, 1]), dim=4)

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidMask):
            MaskOperator(kept=np.array([1, 1]), dim=4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidMask):
            MaskOperator(kept=np.array([0, 4]), dim=4)


class TestBuildStaticMask:
    def test_pressure_field(self):
        problem = make_saddle_point(GridSpec(2, 5))
        mask = build_static_mask(problem, "pressure")
        start, stop = dict(problem.fields)["pressure"]
        np.testing.assert_array_equal(mask.kept, np.arange(start, stop))

    def test_none_is_identity(self):
        problem = make_saddle_point(GridSpec(2, 5))
        assert build_static_mask(problem, None).is_identity

    def test_bidomain_extracellular(self):
        problem = make_bidomain_toy(GridSpec(2, 5))
        mask = build_static_mask(problem, "extracellular")
        np.testing.assert_array_equal(mask.kept, np.arange(25))

    def test_unknown_field(self):
        problem = make_saddle_point(GridSpec(2, 5))
        with pytest.raises(UnknownField):
            build_static_mask(problem, "temperature")

    def test_explicit_indices(self):
        problem = make_saddle_point(GridSpec(2, 5))
        mask = build_static_mask(problem, np.array([0, 5, 7]))
        np.testing.assert_array_equal(mask.kept, [0, 5, 7])


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
        assert eta(1, "power") == 1.0

    def test_constant_everywhere(self):
        assert eta(4, "constant") == 1.0

    def test_power_exponent(self):
        assert eta(2, "power", 1.1) == pytest.approx(2.0**1.1, rel=1e-15)

    def test_negative_exponent_allowed(self):
        assert eta(4, "power", -1.1) == pytest.approx(4.0**-1.1, rel=1e-15)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            eta(0, "power")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            eta(1, "geometric")


class TestEpsilonLhs:
    def test_balanced_case_is_zero(self):
        out = epsilon_lhs(1, 1.0, 1.0, 1.0, np.array([1.0]), np.array([1.0]))
        assert out == 0.0

    def test_doubled_sigma_is_one(self):
        out = epsilon_lhs(1, 2.0, 1.0, 1.0, np.array([1.0]), np.array([1.0]))
        assert out == 1.0

    def test_halved_sigma_is_negative(self):
        out = epsilon_lhs(1, 0.5, 1.0, 1.0, np.array([1.0]), np.array([1.0]))
        assert out == -0.5

    def test_dimension_factor(self):
        out = epsilon_lhs(100, 1.0, 1.0, 1.0, np.array([1.0]), np.array([1.0]))
        assert out == 99.0

    def test_max_over_columns(self):
        out = epsilon_lhs(
            1, 1.0, 1.0, 1.0,
            np.array([1.0, 0.25]), np.array([1.0, 1.0]),
        )
        assert out == 3.0  # the small-displacement column wins under max

    def test_zero_displacement_column_skipped(self):
        out = epsilon_lhs(
            1, 1.0, 1.0, 1.0,
            np.array([0.0, 1.0]), np.array([5.0, 1.0]),
        )
        assert out == 0.0

    def test_no_usable_column(self):
        out = epsilon_lhs(1, 1.0, 1.0, 1.0, np.zeros(2), np.ones(2))
        assert out == -1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            epsilon_lhs(1, 1.0, 0.0, 1.0, np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            epsilon_lhs(1, 1.0, 1.0, 0.0, np.ones(1), np.ones(1))


class TestEpsilonRhs:
    def test_identity_keeps_everything(self):
        f = np.array([3.0, 4.0])
        assert epsilon_rhs(f, np.array([0, 1])) == 0.0

    def test_empty_selection(self):
        assert epsilon_rhs(np.array([3.0, 4.0]), np.array([], dtype=int)) == 1.0

    def test_pythagorean_case(self):
        f = np.array([3.0, 4.0])
        assert epsilon_rhs(f, np.array([1])) == pytest.approx(0.6, abs=1e-15)

    def test_zero_residual(self):
        assert epsilon_rhs(np.zeros(3), np.array([0])) == 0.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            l1 = int(rng.integers(1, 20))
            f = rng.standard_normal(l1)
            size = int(rng.integers(1, l1 + 1))
            kept = np.sort(rng.choice(l1, size=size, replace=False))
            val = epsilon_rhs(f, kept)
            assert 0.0 <= val <= 1.0

    def test_zero_iff_mask_keeps_all_nonzero_entries(self):
        f = np.array([0.0, 2.0, 0.0, -1.0])
        assert epsilon_rhs(f, np.array([1, 3])) == 0.0
        assert epsilon_rhs(f, np.array([1])) > 0.0


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


def make_workspace(l1, filled, r_diag, f_values, dx_norms, lipschitz,
                   adaptivity=Adaptivity.SUBSELECT_CONSTANT):
    """Workspace in a handcrafted post-push state for adaptive_step."""
    config = SolverConfig(window=8, adaptivity=adaptivity)
    ws = allocate_workspace(l1, config)
    ws.filled = filled
    ws.f[:] = f_values
    ws.dx_norms[:filled] = dx_norms
    ws.lipschitz = lipschitz
    if r_diag is not None:
        c = len(r_diag)
        ws.r_factor[:c, :c] = np.diag(r_diag)
        ws.r_cols = c
    return config, ws


class TestAdaptiveStep:
    def test_no_stored_factor_gives_identity(self):
        config, ws = make_workspace(
            10, 1, None, np.ones(10), [1.0], lipschitz=1.0
        )
        rows, rec = adaptive_step(ws, config, 10, 1, np.random.default_rng(0))
        assert rows is None
        assert rec.reason == "no-factor"
        assert not rec.accepted

    def test_no_lipschitz_gives_identity(self):
        config, ws = make_workspace(
            10, 1, [1.0], np.ones(10), [1.0], lipschitz=0.0
        )
        rows, rec = adaptive_step(ws, config, 10, 2, np.random.default_rng(0))
        assert rows is None
        assert rec.reason == "no-lipschitz"

    def test_negative_budget_gives_identity(self):
        # sigma so small that even the dimension factor cannot save it:
        # eps_lhs = N * sigma / (L |f| |dx|) - 1 < 0.
        f = np.ones(10)  # |f| = sqrt(10)
        config, ws = make_workspace(
            10, 1, [1e-6], f, [1.0], lipschitz=1.0
        )
        rows, rec = adaptive_step(ws, config, 10, 2, np.random.default_rng(0))
        assert rows is None
        assert rec.reason == "lhs-negative"
        assert rec.eps_lhs < 0.0

    def test_accepted_mask_obeys_guard(self):
        # Large sigma makes the budget generous; the subselection keeps
        # 3 of 10 rows, discarding some residual mass, so eps_rhs lands
        # strictly between 0 and eps_lhs.
        f = np.linspace(1.0, 2.0, 10)
        config, ws = make_workspace(
            10, 2, [50.0, 40.0], f, [1.0, 1.0], lipschitz=1.0
        )
        rows, rec = adaptive_step(ws, config, 10, 3, np.random.default_rng(0))
        assert rec.accepted and rec.reason == "accepted"
        assert rows.size == 3
        assert 0.0 < rec.eps_rhs <= rec.eps_lhs
        np.testing.assert_array_equal(rows, [7, 8, 9])

    def test_underdetermined_sketch_rejected(self):
        # l2 = 30% of 10 = 3 rows cannot support 4 window columns.
        f = np.linspace(1.0, 2.0, 10)
        config, ws = make_workspace(
            10, 4, [50.0, 40.0, 30.0, 20.0], f, np.ones(4), lipschitz=1.0
        )
        rows, rec = adaptive_step(ws, config, 10, 5, np.random.default_rng(0))
        assert rows is None
        assert rec.reason == "underdetermined"

    def test_zero_residual_rejected(self):
        config, ws = make_workspace(
            10, 1, [50.0], np.zeros(10), [1.0], lipschitz=1.0
        )
        rows, rec = adaptive_step(ws, config, 10, 2, np.random.default_rng(0))
        assert rows is None

    def test_randomized_strategy_uses_rng(self):
        f = np.linspace(1.0, 2.0, 20)
        config, ws = make_workspace(
            20, 1, [100.0], f, [1.0], lipschitz=1.0,
            adaptivity=Adaptivity.RANDOMIZED_CONSTANT,
        )
        rows_a, _ = adaptive_step(ws, config, 20, 2, np.random.default_rng(1))
        rows_b, _ = adaptive_step(ws, config, 20, 2, np.random.default_rng(1))
        rows_c, _ = adaptive_step(ws, config, 20, 2, np.random.default_rng(7))
        np.testing.assert_array_equal(rows_a, rows_b)
        assert rows_c is not None and not np.array_equal(rows_a, rows_c)

    def test_power_etas_recorded(self):
        f = np.linspace(1.0, 2.0, 10)
        config, ws = make_workspace(
            10, 2, [50.0, 40.0], f, [1.0, 1.0], lipschitz=1.0,
            adaptivity=Adaptivity.SUBSELECT_POWER,
        )
        _, rec = adaptive_step(ws, config, 10, 3, np.random.default_rng(0))
        assert rec.etas == (1.0, 2.0**1.1)


class TestPerturbationNorm:
    def test_identity_masks_give_zero(self):
        rng = np.random.default_rng(6)
        cols = rng.standard_normal((8, 3))
        alpha = rng.standard_normal(3)
        assert perturbation_norm(cols, cols.copy(), alpha) == 0.0

    def test_zero_alpha_gives_zero(self):
        rng = np.random.default_rng(7)
        cols = rng.standard_normal((8, 3))
        masked = cols.copy()
        masked[2:5] = 0.0
        assert perturbation_norm(cols, masked, np.zeros(3)) == 0.0

    def test_matches_dense_construction(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            cols = rng.standard_normal((8, 3))
            alpha = rng.standard_normal(3)
            masked = cols.copy()
            dropped = rng.random((8, 3)) < 0.4
            masked[dropped] = 0.0
            delta = np.where(dropped, cols, 0.0)
            expected = np.linalg.norm(delta @ alpha)
            got = perturbation_norm(cols, masked, alpha)
            assert got == pytest.approx(expected, rel=1e-14, abs=1e-15)
