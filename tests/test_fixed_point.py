"""Problem abstraction: residual form, the fixed-point adapter, fields."""
import numpy as np
import pytest

from aap.fixed_point import (
    FixedPointProblem,
    NumericalBreakdown,
    UnknownField,
    evaluate_residual,
    field_rows,
    from_fixed_point_form,
)


def shift_problem(b):
    b = np.asarray(b, dtype=float)
    return FixedPointProblem(
        residual=lambda x: x - b,
        dimension=b.size,
        fields=(("state", (0, b.size)),),
    )


class TestEvaluateResidual:
    def test_exact_root(self):
        problem = shift_problem([1.0, 2.0])
        out = evaluate_residual(problem, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_identity_minus_zero(self):
        problem = shift_problem([0.0, 0.0])
        out = evaluate_residual(problem, np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_input_not_mutated(self):
        problem = shift_problem([1.0, 1.0])
        x = np.array([5.0, 6.0])
        evaluate_residual(problem, x)
        np.testing.assert_array_equal(x, [5.0, 6.0])

    def test_wrong_shape(self):
        problem = shift_problem([1.0, 2.0])
        with pytest.raises(ValueError):
            evaluate_residual(problem, np.zeros(3))

    def test_nonfinite_input_reports_index(self):
        problem = shift_problem([0.0, 0.0, 0.0])
        with pytest.raises(NumericalBreakdown) as info:
            evaluate_residual(problem, np.array([0.0, np.inf, 0.0]))
        assert info.value.index == 1

    def test_nonfinite_output_reports_index(self):
        problem = FixedPointProblem(
            residual=lambda x: np.array([1.0, np.nan, 2.0]),
            dimension=3,
            fields=(("state", (0, 3)),),
        )
        with pytest.raises(NumericalBreakdown) as info:
            evaluate_residual(problem, np.zeros(3))
        assert info.value.index == 1

    def test_wrong_output_shape(self):
        problem = FixedPointProblem(
            residual=lambda x: np.zeros(2),
            dimension=3,
            fields=(("state", (0, 3)),),
        )
        with pytest.raises(ValueError):
            evaluate_residual(problem, np.zeros(3))


class TestAdapter:
    def test_identity_map_has_zero_residual(self):
        problem = from_fixed_point_form(lambda x: x, 4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(4)
            np.testing.assert_array_equal(
                evaluate_residual(problem, x), np.zeros(4)
            )

    def test_zero_map_gives_identity_residual(self):
        problem = from_fixed_point_form(lambda x: np.zeros_like(x), 3)
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(evaluate_residual(problem, x), x)

    def test_residual_is_exactly_x_minus_s(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal(5)
        problem = from_fixed_point_form(lambda x: a @ x + b, 5)
        for _ in range(10):
            x = rng.standard_normal(5)
            np.testing.assert_array_equal(
                evaluate_residual(problem, x), x - (a @ x + b)
            )

    def test_picard_on_adapter_is_classical_iteration(self):
        # x <- x - omega * (x - S(x)) with omega = 1 is x <- S(x); the
        # adapter must reproduce the classical contraction step for step.
        # The relation x - (x - s) = s holds only to roundoff, so the
        # element-wise comparison carries a float ulp tolerance.
        rng = np.random.default_rng(2)
        a = 0.4 * rng.standard_normal((6, 6)) / 6**0.5
        b = rng.standard_normal(6)
        problem = from_fixed_point_form(lambda x: a @ x + b, 6)
        x_adapter = rng.standard_normal(6)
        x_classic = x_adapter.copy()
        for _ in range(20):
            x_adapter = x_adapter - evaluate_residual(problem, x_adapter)
            x_classic = a @ x_classic + b
            np.testing.assert_allclose(
                x_adapter, x_classic, rtol=1e-13, atol=1e-14
            )

    def test_default_layout_covers_everything(self):
        problem = from_fixed_point_form(lambda x: x, 7)
        assert field_rows(problem, "state") == slice(0, 7)


class TestFieldIndices:
    def setup_method(self):
        self.problem = FixedPointProblem(
            residual=lambda x: x,
            dimension=9,
            fields=(("velocity", (0, 6)), ("pressure", (6, 9))),
        )

    def test_pressure_range(self):
        rows = field_rows(self.problem, "pressure")
        assert rows == slice(6, 9)
        np.testing.assert_array_equal(np.arange(9)[rows], [6, 7, 8])

    def test_velocity_range(self):
        assert field_rows(self.problem, "velocity") == slice(0, 6)

    def test_single_field_returns_all(self):
        problem = shift_problem(np.zeros(5))
        assert field_rows(problem, "state") == slice(0, 5)

    def test_none_gives_every_row(self):
        assert field_rows(self.problem, None) == slice(0, 9)

    def test_unknown_field_lists_names(self):
        with pytest.raises(UnknownField) as info:
            field_rows(self.problem, "temperature")
        message = str(info.value)
        assert "velocity" in message and "pressure" in message

    def test_sizes_match_ranges(self):
        for name, (start, stop) in self.problem.fields:
            assert field_rows(self.problem, name) == slice(start, stop)


class TestValidation:
    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            FixedPointProblem(
                residual=lambda x: x,
                dimension=4,
                fields=(("u", (0, 2)), ("u", (2, 4))),
            )

    def test_out_of_range_field_rejected(self):
        with pytest.raises(ValueError):
            FixedPointProblem(
                residual=lambda x: x,
                dimension=4,
                fields=(("u", (0, 5)),),
            )

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            FixedPointProblem(residual=lambda x: x, dimension=0, fields=())

    @pytest.mark.parametrize("field", ["dimension", "recommended_window"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_counts_must_be_integers(self, field, value):
        # dimension=3.0 once failed in np.zeros; recommended_window=2.5 was
        # cut to 2 when a solve resolved its window.
        counts = {"dimension": 3, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FixedPointProblem(residual=lambda x: x, fields=(), **counts)
        counts[field] = np.int64(3)
        problem = FixedPointProblem(residual=lambda x: x, fields=(), **counts)
        assert getattr(problem, field) == 3

    @pytest.mark.parametrize("omega", [np.nan, 0.0, -1.0, np.inf])
    def test_recommended_omega_not_positive_and_finite_rejected(self, omega):
        # As SolverConfig refuses the relaxation: NaN would end in a
        # breakdown, 0 would never move x and -1 would step uphill.
        with pytest.raises(ValueError, match="recommended_omega"):
            from_fixed_point_form(lambda x: 0.5 * x + 1.0, 3,
                                  recommended_omega=omega)

    def test_recommended_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="recommended_window"):
            from_fixed_point_form(lambda x: 0.5 * x + 1.0, 3,
                                  recommended_window=0)

    def test_field_names(self):
        problem = FixedPointProblem(
            residual=lambda x: x,
            dimension=4,
            fields=(("a", (0, 1)), ("b", (1, 4))),
        )
        assert problem.field_names() == ("a", "b")
