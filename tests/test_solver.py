"""Solver loop: kernels, window management, and full solves."""
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from aap import lsq
from aap.bench import load_trace, verify_theorem_trace, write_trace
from aap.fixed_point import (
    FixedPointProblem,
    NumericalBreakdown,
    from_fixed_point_form,
)
from aap.problems import (
    PROBLEM_NAMES,
    build_problem,
    make_linear,
    make_p_laplacian,
)
from aap.lsq import estimate_sigma_min
from aap.sketching import (
    Adaptivity,
    budget_weights,
    epsilon_rhs,
    stability_hypothesis,
)
from aap.solver import (
    SolverConfig,
    Workspace,
    anderson_update,
    picard_update,
    push_window,
    resolve_window,
    solve,
    step,
    update_increments,
)

from oracles import matches_plain_loop, shift_window_reference, solve_plain


def shift_problem(b, **kw):
    b = np.asarray(b, dtype=float)
    return FixedPointProblem(
        residual=lambda x: x - b,
        dimension=b.size,
        fields=(("state", (0, b.size)),),
        **kw,
    )


def workspace(n, m):
    """A fresh workspace for an n-row problem, window m, no restriction."""
    return Workspace(shift_problem(np.zeros(n)), SolverConfig(window=m))


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["relaxation", "rel_tolerance"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
    def test_knobs_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["window", "max_iterations"])
    def test_counts_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            SolverConfig(**{field: 0})
        assert getattr(SolverConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize(
        "field", ["window", "alternation", "max_iterations", "rng_seed"])
    @pytest.mark.parametrize("value", [1.5, 3.0, True, np.float64(2.0)])
    def test_counts_must_be_integers(self, field, value):
        # alternation=1.5 once mixed at k = 3, 6, 9, ... while the report
        # said 1.5; window=2.5 failed inside numpy, rng_seed=1.5 inside
        # default_rng.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})
        assert getattr(SolverConfig(**{field: np.int64(2)}), field) == 2

    def test_rng_seed_must_not_be_negative(self):
        # numpy's default_rng once refused it when the workspace was made.
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            SolverConfig(rng_seed=-1)
        assert SolverConfig(rng_seed=0).rng_seed == 0

    @pytest.mark.parametrize("value", [[], {}, None, 1.5, "sub-geo"])
    def test_adaptivity_that_is_no_name_rejected(self, value):
        # Adaptivity's short-name lookup raised TypeError for a list.
        with pytest.raises(ValueError, match="not a valid Adaptivity"):
            SolverConfig(adaptivity=value)


class TestPicardUpdate:
    def test_basic(self):
        x = np.array([1.0, 2.0])
        picard_update(x, np.array([0.5, -0.5]), 1.0, np.zeros(2))
        np.testing.assert_array_equal(x, [0.5, 2.5])

    def test_zero_residual_is_noop(self):
        x = np.array([1.0, 2.0])
        picard_update(x, np.zeros(2), 1.0, np.zeros(2))
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_relaxation(self):
        x = np.array([2.0])
        picard_update(x, np.array([2.0]), 0.5, np.zeros(1))
        np.testing.assert_array_equal(x, [1.0])

    def test_in_place_with_work_buffer(self):
        x = np.array([1.0, 1.0])
        work = np.zeros(2)
        out = picard_update(x, np.array([4.0, 2.0]), 0.25, work)
        assert out is x
        np.testing.assert_array_equal(x, [0.0, 0.5])


class TestWorkspace:
    cases = (("linear", 8), ("saddle", 9), ("plaplace", 9), ("bidomain", 9))

    def check_shapes(self, field_ranges):
        # f_r and df_r are views of the restricted rows of f and df, the
        # residual window has those rows and is clamped to them, and the
        # factor's Gram matrix has a row and a column per window column.
        assert {name for name, _ in self.cases} == set(PROBLEM_NAMES)
        for name, size in self.cases:
            problem = build_problem(name, size)
            n = problem.dimension
            for field, (start, stop) in field_ranges(problem):
                for window in (None, 100):
                    config = SolverConfig(window=window, static_mask=field)
                    ws = Workspace(problem, config)
                    assert ws.m == min(resolve_window(problem, config),
                                       stop - start)
                    ws.f[:] = np.arange(n)
                    ws.df[:] = -ws.f
                    assert np.shares_memory(ws.f_r, ws.f)
                    assert np.shares_memory(ws.df_r, ws.df)
                    np.testing.assert_array_equal(ws.f_r, np.arange(start, stop))
                    np.testing.assert_array_equal(ws.df_r, -ws.f_r)
                    assert ws.df_window.shape == (stop - start, ws.m)
                    assert ws.factor.gram.shape == (ws.m, ws.m)
                    assert ws.dg_window.shape == (n, ws.m)

    def test_masked_shapes(self):
        # Every built-in problem, restricted to each of its fields.
        self.check_shapes(lambda problem: problem.fields)

    def test_unmasked_shapes(self):
        # Every built-in problem with no static mask: every row is kept.
        self.check_shapes(lambda problem: ((None, (0, problem.dimension)),))


class TestUpdateIncrements:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.a = rng.standard_normal((5, 5))
        self.b = rng.standard_normal(5)
        self.problem = FixedPointProblem(
            residual=lambda x: self.a @ x - self.b,
            dimension=5,
            fields=(("state", (0, 5)),),
        )

    def prime(self, ws, x, omega):
        ws.x[:] = x
        ws.f[:] = self.a @ x - self.b
        ws.g[:] = x - omega * ws.f

    def test_unchanged_state_gives_zero_increments(self):
        ws = workspace(5, 3)
        x0 = np.random.default_rng(2).standard_normal(5)
        self.prime(ws, x0, 1.0)
        ws.problem = self.problem
        update_increments(ws)
        np.testing.assert_array_equal(ws.df, np.zeros(5))
        np.testing.assert_array_equal(ws.dg, np.zeros(5))

    def test_df_matches_matvec_oracle(self):
        rng = np.random.default_rng(3)
        ws = workspace(5, 3)
        x0 = rng.standard_normal(5)
        self.prime(ws, x0, 1.0)
        x1 = rng.standard_normal(5)
        ws.x[:] = x1
        ws.problem = self.problem
        update_increments(ws)
        np.testing.assert_allclose(
            ws.df, self.a @ (x1 - x0), rtol=1e-13, atol=1e-13
        )

    def test_one_residual_evaluation_per_call(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return self.a @ x - self.b

        problem = FixedPointProblem(
            residual=counted, dimension=5, fields=(("state", (0, 5)),)
        )
        ws = workspace(5, 3)
        ws.problem = problem
        ws.x[:] = np.zeros(5)
        ws.f[:] = -self.b
        ws.g[:] = -ws.f
        for _ in range(7):
            update_increments(ws)
        assert calls["n"] == 7

    def test_solve_evaluates_residual_iterations_plus_one_times(self):
        calls = {"n": 0}
        rng = np.random.default_rng(4)
        a = 0.5 * np.eye(4) + 0.05 * rng.standard_normal((4, 4))
        b = rng.standard_normal(4)

        def counted(x):
            calls["n"] += 1
            return a @ x - b

        problem = FixedPointProblem(
            residual=counted, dimension=4, fields=(("state", (0, 4)),)
        )
        report = solve(problem, SolverConfig(window=4, rel_tolerance=1e-10))
        assert report.converged
        assert calls["n"] == report.iterations + 1


class TestPushWindow:
    def drive(self, m, ks, n=4, seed=5):
        """Push synthetic increments, with dx_norm k for each listed k."""
        rng = np.random.default_rng(seed)
        ws = workspace(n, m)
        dfs, dgs = [], []
        for k in ks:
            ws.df[:] = rng.standard_normal(n)
            ws.dg[:] = rng.standard_normal(n)
            dfs.append(ws.df.copy())
            dgs.append(ws.dg.copy())
            push_window(ws, float(k))
        return ws, dfs, dgs

    def test_window_keeps_last_m_chronologically(self):
        ws, dfs, dgs = self.drive(3, [1, 2, 3, 4, 5])
        for window, pushed in ((ws.df_window, dfs), (ws.dg_window, dgs)):
            for j, col in enumerate(shift_window_reference(pushed, 3)):
                np.testing.assert_array_equal(window[:, j], col)
        np.testing.assert_array_equal(ws.dx_norms[:3], [3.0, 4.0, 5.0])

    def test_wide_window_never_drops(self):
        ws, dfs, dgs = self.drive(10, [1, 2, 3, 4], n=12)
        assert ws.factor.columns == 4
        for window, pushed in ((ws.df_window, dfs), (ws.dg_window, dgs)):
            for j, col in enumerate(shift_window_reference(pushed, 10)):
                np.testing.assert_array_equal(window[:, j], col)

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_sliding_windows_match_shift_reference(self, m):
        # Three passes over the wider buffers, with a window restart (as
        # `step` does one) part way through; the views must always read
        # what shifting the windows left would, over the same buffers.
        rng = np.random.default_rng(m)
        n = 11
        ws = workspace(n, m)
        buffers = ws.buffers
        width = buffers[2].size
        assert width > m
        pushes = 3 * width + 2
        restart = pushes // 2 + 1
        dfs, dgs, norms = [], [], []
        for k in range(pushes):
            if k == restart:
                ws.factor.reset()
                dfs, dgs, norms = [], [], []
            ws.df[:] = rng.standard_normal(n)
            ws.dg[:] = rng.standard_normal(n)
            dfs.append(ws.df.copy())
            dgs.append(ws.dg.copy())
            norms.append(float(rng.uniform()))
            push_window(ws, norms[-1])
            c = ws.factor.columns
            assert c == min(len(dfs), m)
            for window, pushed in ((ws.df_window, dfs), (ws.dg_window, dgs)):
                assert window.shape == (n, m)
                np.testing.assert_array_equal(
                    window[:, :c], np.column_stack(shift_window_reference(pushed, m))
                )
            np.testing.assert_array_equal(
                ws.dx_norms[:c], shift_window_reference(norms, m)
            )
            assert ws.buffers is buffers
            for view, buf in zip((ws.df_window, ws.dg_window, ws.dx_norms), buffers):
                assert view.base is buf


class TestAndersonUpdate:
    def test_zero_alpha_reduces_to_picard(self):
        ws, _, _ = TestPushWindow().drive(3, [1, 2])
        rng = np.random.default_rng(6)
        ws.x[:] = rng.standard_normal(4)
        ws.g[:] = rng.standard_normal(4)
        expected = ws.g.copy()
        anderson_update(ws, np.zeros(2))
        np.testing.assert_array_equal(ws.x, expected)

    def test_single_column(self):
        ws, _, dgs = TestPushWindow().drive(3, [1])
        rng = np.random.default_rng(7)
        ws.x[:] = rng.standard_normal(4)
        ws.g[:] = rng.standard_normal(4)
        expected = ws.g - dgs[0]
        anderson_update(ws, np.array([1.0]))
        np.testing.assert_allclose(ws.x, expected, rtol=1e-15, atol=1e-15)

    def test_matches_dense_oracle_with_explicit_chronology(self):
        rng = np.random.default_rng(8)
        for k_last in (2, 5, 9, 12):
            helper = TestPushWindow()
            ws, _, dgs = helper.drive(4, range(1, k_last + 1), seed=k_last)
            c = ws.factor.columns
            alpha = rng.standard_normal(c)
            ws.x[:] = rng.standard_normal(4)
            ws.g[:] = rng.standard_normal(4)
            g_chron = np.column_stack(shift_window_reference(dgs, 4)[-c:])
            expected = ws.g - g_chron @ alpha
            anderson_update(ws, alpha)
            np.testing.assert_allclose(ws.x, expected, rtol=1e-13, atol=1e-13)


class TestSolve:
    def test_x0_checked(self):
        problem = shift_problem([1.0, 2.0])
        with pytest.raises(ValueError, match=r"x0 has shape \(3,\), expected \(2,\)"):
            solve(problem, x0=np.zeros(3))
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            solve(problem, x0=np.array([0.0, np.nan]))

    def test_exact_picard_root_in_one_iteration(self):
        for m, p in [(1, 1), (5, 2), (10, 3)]:
            problem = shift_problem([1.0, -2.0, 3.0], recommended_omega=1.0)
            report = solve(problem, SolverConfig(window=m, alternation=p))
            assert report.converged
            assert report.iterations == 1
            np.testing.assert_array_equal(report.final_state, [1.0, -2.0, 3.0])

    def test_residual_history_shape(self):
        problem = make_linear(20)
        report = solve(problem, SolverConfig(rel_tolerance=1e-8))
        assert report.residual_history[0] == 1.0
        assert len(report.residual_history) == report.iterations + 1
        assert report.residual_history[-1] < 1e-8

    def test_zero_initial_residual(self):
        problem = shift_problem([2.0, 2.0])
        report = solve(problem, x0=np.array([2.0, 2.0]))
        assert report.converged and report.iterations == 0

    def test_poisson_limit_converges_in_three_mixing_steps(self):
        # At q = 2 the residual is affine with Jacobian I / beta, so the
        # window needs a single increment to solve it; allow three.
        problem = make_p_laplacian(9, q=2.0)
        report = solve(problem, SolverConfig(window=10, rel_tolerance=1e-10))
        assert report.converged
        assert len(report.mask_trace) <= 3
        np.testing.assert_allclose(
            report.final_state,
            make_p_laplacian(9, init="poisson").initial_state,
            rtol=1e-8,
            atol=1e-12,
        )

    def test_alternation_schedule(self):
        problem = make_linear(30)
        for p in (1, 2, 3, 5):
            config = SolverConfig(
                window=5, alternation=p, max_iterations=17, rel_tolerance=1e-14
            )
            report = solve(problem, config)
            assert not report.converged
            expected = sum(1 for k in range(1, 18) if k % p == 0)
            assert len(report.mask_trace) == expected

    def test_non_convergence_is_a_report_not_an_error(self):
        problem = make_linear(40)
        report = solve(problem, SolverConfig(max_iterations=2))
        assert not report.converged
        assert report.iterations == 2

    def test_determinism_across_runs(self):
        problem = build_problem("saddle", 17)
        config = SolverConfig(
            static_mask="pressure", adaptivity="randomized-constant", rng_seed=11
        )
        a = solve(problem, config)
        b = solve(problem, config)
        assert a.iterations == b.iterations
        assert a.residual_history == b.residual_history
        np.testing.assert_array_equal(a.final_state, b.final_state)
        assert [r.reason for r in a.mask_trace] == [
            r.reason for r in b.mask_trace
        ]

    def test_window_clamped_to_row_count(self):
        report = solve(make_linear(8), SolverConfig(max_iterations=3))
        assert report.window == 8
        problem = build_problem("saddle", 5)
        masked = solve(
            problem,
            SolverConfig(window=50, static_mask="pressure", max_iterations=3),
        )
        assert masked.window == masked.l1 == 16

    def test_masked_report_l1(self):
        problem = build_problem("saddle", 9)
        report = solve(problem, SolverConfig(static_mask="pressure"))
        start, stop = dict(problem.fields)["pressure"]
        assert report.l1 == stop - start
        assert report.converged

    def test_breakdown_attaches_partial_report(self):
        # An expanding quadratic map under pure Picard blows up fast; the
        # solve must surface the breakdown with the work so far attached.
        problem = from_fixed_point_form(
            lambda x: x * x + 1.0, 2, recommended_omega=1.0
        )
        config = SolverConfig(alternation=1_000_000, max_iterations=1000)
        with pytest.raises(NumericalBreakdown) as info:
            solve(problem, config, x0=np.array([2.0, 3.0]))
        report = info.value.report
        assert report is not None
        assert not report.converged
        assert 0 < report.iterations < 1000

    def test_capture_trace_records_mixing_steps(self):
        problem = build_problem("saddle", 9)
        config = SolverConfig(static_mask="pressure", adaptivity="subselect-power")
        report = solve(problem, config, capture_trace=True)
        assert len(report.trace) == len(report.mask_trace)
        rec = report.mask_trace[-1]
        increments, dx_norms = report.trace.window(rec)
        assert increments.shape == (report.l1, rec.columns)
        assert dx_norms.shape == (rec.columns,)
        assert report.trace.residual(rec).shape == (report.l1,)

    @pytest.mark.parametrize("adaptivity", ["none", "subselect-power"])
    def test_overflowing_residual_raises_breakdown(self, adaptivity):
        # Saddle with the pressure mask diverges at p = 2 until |T(x)|
        # overflows while every entry stays finite.
        problem = build_problem("saddle", 17)
        config = SolverConfig(static_mask="pressure", alternation=2,
                              adaptivity=adaptivity)
        with pytest.raises(NumericalBreakdown) as info:
            solve(problem, config)
        report = info.value.report
        assert report is not None and not report.converged
        assert 0 < report.iterations < config.max_iterations
        # The overflowing iteration has no entry.
        assert len(report.residual_history) == report.iterations
        assert np.isfinite(report.residual_history).all()

    def test_overflowing_initial_norm_raises_breakdown(self):
        # Every entry of T(x0) is finite but |T(x0)| overflows. The solve
        # names the initial residual, warns nothing, and has no report: it
        # broke down at the initial guess.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown,
                               match="initial residual norm overflowed") as info:
                solve(build_problem("saddle", 5), SolverConfig(),
                      x0=np.full(40, 1e200))
        assert info.value.report is None


def assert_accepted_steps_hold(report):
    """Recompute the guard's decision on every accepted step of a traced
    solve; returns the number of accepted steps.

    The recorded sigma must be the SVD value of the stored factor, the
    recorded eps that of the stored rows, and the stability hypothesis must
    hold on the recorded window.
    """
    config = report.config
    trace = report.trace
    assert len(trace) == len(report.mask_trace)
    accepted = 0
    for i, rec in enumerate(report.mask_trace):
        if not rec.accepted:
            continue
        accepted += 1
        etas = budget_weights(config.adaptivity, rec.columns)
        sigma = estimate_sigma_min(trace.r_factor[i])
        f_res = trace.residual(rec)
        norm_f = float(np.linalg.norm(f_res))
        eps = epsilon_rhs(f_res, trace.mask[i], norm_f)
        assert sigma == rec.sigma_min
        assert eps == rec.eps_rhs
        assert stability_hypothesis(
            sigma, rec.lipschitz, norm_f,
            trace.window(rec)[1], etas, eps,
        )
    return accepted


def assert_same_trace(loaded, recorded):
    """Every array of a Trace read back from a file equals the recorded one,
    dtype, shape and bytes, the logged residuals column by column."""
    pairs = [(np.array(loaded.dx_norms), np.array(recorded.dx_norms)),
             *zip(loaded.residuals, recorded.residuals, strict=True)]
    for name in ("alpha", "r_factor", "mask"):
        pairs += zip(getattr(loaded, name), getattr(recorded, name), strict=True)
    for got, want in pairs:
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestTraceLog:
    """A trace's windows and residuals are bitwise what the solver used."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("case", ["saddle", "bidomain", "constant"])
    def test_windows_and_residuals_are_the_solvers(self, monkeypatch, case, p):
        # saddle-9 pressure + sub-pow restarts its window after fallbacks
        # and filters it on other steps; T(x) = c falls back and restarts at
        # every mixing step. A step's window is the newest columns its least
        # squares kept, all of them after a fallback.
        if case == "constant":
            c = np.array([1.0, 2.0])
            problem = FixedPointProblem(residual=lambda x: c.copy(),
                                        dimension=2,
                                        fields=(("state", (0, 2)),))
            config = SolverConfig(window=3, alternation=p, max_iterations=9)
        else:
            problem = build_problem(case, 9)
            config = SolverConfig(
                alternation=p, rng_seed=3,
                static_mask={"saddle": "pressure",
                             "bidomain": "extracellular"}[case],
                adaptivity="subselect-power" if case == "saddle" else "none",
            )
        seen = []
        original = lsq.WindowFactor.solve

        def spy(self, window, rhs):
            seen.append((window[:, :self.columns].copy(), rhs.copy()))
            return original(self, window, rhs)

        monkeypatch.setattr(lsq.WindowFactor, "solve", spy)
        try:
            report = solve(problem, config, capture_trace=True)
        except NumericalBreakdown as exc:
            report = exc.report
        assert len(seen) == len(report.mask_trace) > 0
        if case != "bidomain":
            assert any(rec.fallback for rec in report.mask_trace)
        if case == "saddle":
            assert any(rec.columns < window.shape[1]
                       for rec, (window, _) in zip(report.mask_trace, seen))
        for rec, (window, f_r) in zip(report.mask_trace, seen, strict=True):
            window = window[:, window.shape[1] - rec.columns:]
            got = report.trace.window(rec)[0]
            assert got.shape == window.shape
            assert got.tobytes() == window.tobytes()
            assert report.trace.residual(rec).tobytes() == f_r.tobytes()


class TestSteppedWorkspace:
    """A new workspace is a started run: stepping it from k = 1 and
    appending each relres to its history is `solve`, bit for bit."""

    @staticmethod
    def run_steps(problem, config, x0=None, capture_trace=False):
        """Step a new workspace until it converges or runs out of
        iterations; returns it, its mixing records and the breakdown that
        ended it, if one did."""
        ws = Workspace(problem, config, x0, capture_trace=capture_trace)
        records = []
        try:
            for k in range(1, config.max_iterations + 1):
                relres, rec = step(ws, k)
                ws.history.append(relres)
                if relres < config.rel_tolerance:
                    break
                if rec is not None:
                    records.append(rec)
        except NumericalBreakdown as exc:
            return ws, records, exc
        return ws, records, None

    @pytest.mark.parametrize("name, size, mask, adaptivity, p, traced", [
        ("saddle", 17, "pressure", "sub-pow", 1, True),
        ("saddle", 17, "pressure", "sub-pow", 2, True),
        ("saddle", 17, None, "none", 2, False),
        ("plaplace", 15, None, "rand-pow", 2, True),
        ("plaplace", 15, None, "sub-pow", 3, False),
        ("linear", 30, None, "none", 3, False),
        ("bidomain", 9, "extracellular", "rand-pow", 1, False),
    ])
    def test_steps_reproduce_solve(self, name, size, mask, adaptivity, p,
                                   traced):
        problem = build_problem(name, size)
        config = SolverConfig(static_mask=mask, adaptivity=adaptivity,
                              alternation=p, rng_seed=1)
        ws, records, broke = self.run_steps(problem, config,
                                            capture_trace=traced)
        try:
            report = solve(problem, config, capture_trace=traced)
        except NumericalBreakdown as exc:
            report = exc.report
            # saddle-17 pressure + sub-pow at p = 2 breaks down at 263.
            assert broke is not None and str(broke) == str(exc)
        else:
            assert broke is None and report.converged
        assert ws.history == report.residual_history
        assert np.array_equal(ws.x, report.final_state)
        assert records == report.mask_trace
        if traced:
            assert_same_trace(ws.trace, report.trace)
        else:
            assert ws.trace is None is report.trace

    def test_start_at_a_root(self):
        # |T(x0)| = 0: no Picard step, x stays x0, and the trace logs only
        # the residual at x0; solve converges at iteration 0.
        b = np.array([1.0, -2.0, 3.0])
        problem = shift_problem(b)
        ws = Workspace(problem, SolverConfig(), b, capture_trace=True)
        assert ws.norm_f0 == 0.0
        np.testing.assert_array_equal(ws.x, b)
        np.testing.assert_array_equal(ws.g, np.zeros(3))
        assert len(ws.trace.residuals) == 1 and ws.trace.dx_norms == []
        report = solve(problem, SolverConfig(), b, capture_trace=True)
        assert report.converged and report.iterations == 0
        assert report.residual_history == [1.0] and report.mask_trace == []
        np.testing.assert_array_equal(report.final_state, b)
        assert_same_trace(report.trace, ws.trace)


    def test_stepping_a_root_is_refused(self):
        # A run started at a root has nothing to step: relres would divide
        # by |T(x0)| = 0.
        b = np.array([1.0, -2.0, 3.0])
        ws = Workspace(shift_problem(b), SolverConfig(), b)
        with pytest.raises(ValueError, match="x0 is a root"):
            step(ws, 1)
        np.testing.assert_array_equal(ws.x, b)


class TestBreakdownRecovery:
    def test_constant_residual_falls_back_every_step(self):
        # T(x) = c gives identically zero increments: every mixing step is
        # rank-deficient, every step must degrade to Picard without error.
        c = np.array([1.0, 2.0])
        problem = FixedPointProblem(
            residual=lambda x: c.copy(),
            dimension=2,
            fields=(("state", (0, 2)),),
        )
        report = solve(problem, SolverConfig(window=3, max_iterations=5))
        assert not report.converged
        assert all(rec.fallback for rec in report.mask_trace)

    def test_window_restarts_after_fallback(self):
        # On the indefinite saddle operator early window columns align and
        # the least squares degenerates; the restart must let mixing resume
        # instead of dragging the fallback across the window span.
        problem = build_problem("saddle", 9)
        config = SolverConfig(
            static_mask="pressure", adaptivity="subselect-power", rng_seed=3
        )
        report = solve(problem, config)
        assert report.converged
        flags = [rec.fallback for rec in report.mask_trace]
        assert any(flags)
        first = flags.index(True)
        assert not all(flags[first + 1 :])
        # bounded consecutive-fallback runs, far below the window size
        longest = run = 0
        for flag in flags:
            run = run + 1 if flag else 0
            longest = max(longest, run)
        assert longest < report.window

    def test_stall_detector_disables_adaptivity(self):
        problem = build_problem("plaplace", 31)
        config = SolverConfig(adaptivity="randomized-power", rng_seed=1)
        report = solve(problem, config)
        assert report.converged
        reasons = [rec.reason for rec in report.mask_trace]
        assert "stalled" in reasons
        first = reasons.index("stalled")
        assert all(r == "stalled" for r in reasons[first:])

    def test_factor_counters_cover_mixing_steps(self):
        # Every mixing step solves the window from its Gram matrix first,
        # sketched or not, and `filtered` counts the steps whose record has
        # fewer columns than the window held. Every fallback restarts the
        # window, so at p = 1 the window after iteration k holds
        # min(m, k - j) columns, j the last fallback before k (0 if none),
        # and the next step mixes over one column.
        problem = build_problem("saddle", 17)
        config = SolverConfig(
            static_mask="pressure", adaptivity="subselect-power", rng_seed=3
        )
        report = solve(problem, config)
        steps = report.mask_trace
        assert any(rec.accepted for rec in steps)
        restart, filtered = 0, 0
        for rec in steps:
            width = min(report.window, rec.iteration - restart)
            if rec.fallback:
                assert rec.columns == width
                restart = rec.iteration
            else:
                assert 1 <= rec.columns <= width
                filtered += rec.columns < width
        assert report.filtered == filtered > 0
        after = [b for a, b in zip(steps, steps[1:]) if a.fallback]
        assert after and all(b.columns == 1 for b in after)

    def test_guard_soundness_on_accepted_steps(self):
        accepted = 0
        for name, mask, adapt in [
            ("saddle", "pressure", "subselect-power"),
            ("plaplace", None, "randomized-constant"),
            ("linear", None, "subselect-constant"),
        ]:
            size = {"saddle": 9, "plaplace": 9, "linear": 30}[name]
            problem = build_problem(name, size)
            config = SolverConfig(static_mask=mask, adaptivity=adapt)
            report = solve(problem, config, capture_trace=True)
            accepted += assert_accepted_steps_hold(report)
        assert accepted > 0


class TestTransparency:
    def test_two_level_solver_matches_plain_loop_bitwise(self):
        for name, size in [("linear", 9), ("saddle", 9)]:
            problem = build_problem(name, size)
            for p in (1, 2):
                config = SolverConfig(
                    alternation=p, rel_tolerance=1e-8, max_iterations=60
                )
                assert matches_plain_loop(problem, config)

    def test_factor_counters_identical(self):
        # At this tolerance bidomain-9 filters its window on 10 steps.
        problem = build_problem("bidomain", 9)
        config = SolverConfig(rel_tolerance=1e-12)
        full = solve(problem, config)
        plain = solve_plain(problem, config)
        assert full.filtered == plain.filtered > 0
        assert ([(r.iteration, r.columns, r.reason) for r in full.mask_trace]
                == [(r.iteration, r.columns, r.reason) for r in plain.mask_trace])

    def test_residual_histories_identical(self):
        problem = build_problem("plaplace", 9)
        config = SolverConfig(rel_tolerance=1e-8)
        full = solve(problem, config)
        plain = solve_plain(problem, config)
        assert full.residual_history == plain.residual_history


# Three sketched solves whose guards reach, between them, every decision
# but "disabled", "no-lipschitz" and "underdetermined": (problem, size,
# mask, adaptivity), each at rng seed 1.
PINNED_CASES = (
    ("saddle", 17, "pressure", "sub-pow"),
    ("plaplace", 15, None, "rand-pow"),
    ("bidomain", 17, None, "sub-pow"),
)
PIN_PATH = os.path.join(os.path.dirname(__file__), "data", "guard-pin.json")


def pin_key(case):
    problem, size, mask, adaptivity = case
    return f"{problem}-{size}-{mask or 'none'}-{adaptivity}"


def _hex(value):
    return None if value is None else float(value).hex()


def _pinned_report(problem, size, mask, adaptivity):
    built = build_problem(problem, size)
    return built, solve(built, SolverConfig(static_mask=mask,
                                            adaptivity=adaptivity, rng_seed=1))


def pinned_facts(report):
    """The pinned facts of one solve: its residual history and every field
    of every MixingStep, floats as exact hex strings."""
    return {
        "iterations": report.iterations,
        "residual_history": [_hex(v) for v in report.residual_history],
        "steps": [[rec.iteration, rec.columns, _hex(rec.lipschitz), rec.reason,
                   _hex(rec.sigma_min), _hex(rec.eps_rhs)]
                  for rec in report.mask_trace],
    }


def pinned_solve(*case):
    return pinned_facts(_pinned_report(*case)[1])


@pytest.mark.parametrize("case", PINNED_CASES, ids=pin_key)
def test_pinned_solves_are_bitwise(case):
    # guard-pin.json was written by `pinned_solve` on an earlier build,
    # before the guard's threshold and the factor's fixed costs were cut.
    # Work on the per-step cost must not move an iterate or a decision.
    with open(PIN_PATH) as fh:
        pin = json.load(fh)[pin_key(case)]
    assert pinned_solve(*case) == pin


BENCHMARK_PIN_PATH = os.path.join(os.path.dirname(__file__), "data",
                                  "benchmark-pin.json")


def benchmark_solve(case):
    """What the tests check of one of criterion 10's solves: the SHA-256 of
    its `pinned_facts` as sorted JSON, its iterations, whether it
    converged, and for a saddle its relative distance to a direct solve of
    the assembled system."""
    problem, report = _pinned_report(*case)
    error = None
    if "system" in problem.data:
        direct = spsolve(problem.data["system"].tocsc(), problem.data["rhs"])
        error = float(np.linalg.norm(report.final_state - direct)
                      / np.linalg.norm(direct))
    doc = json.dumps(pinned_facts(report), sort_keys=True)
    return {"digest": hashlib.sha256(doc.encode()).hexdigest(),
            "iterations": report.iterations, "converged": report.converged,
            "direct_error": error}


def test_benchmark_cases_are_bitwise(benchmark_solves):
    # benchmark-pin.json holds the digest of each of criterion 10's cases
    # (the benchmark's sketched solves), written on an earlier build.
    with open(BENCHMARK_PIN_PATH) as fh:
        pin = json.load(fh)
    assert {key: got["digest"] for key, got in benchmark_solves.items()} == pin


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(1, 6),
    p=st.integers(1, 3),
    mask=st.sampled_from((None, "tail")),
    adaptivity=st.sampled_from(tuple(Adaptivity)),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_contractive_problems(n, m, p, mask, adaptivity, seed):
    # x = B x + c with |B|_2 < 1, windows up to six columns (clamped when
    # wider than the restricted rows, m = 1 included), every alternation
    # period, mask and sketch strategy.
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    b *= rng.uniform(0.1, 0.9) / np.linalg.norm(b, 2)
    c = rng.standard_normal(n)
    half = n // 2
    problem = from_fixed_point_form(
        lambda x: b @ x + c,
        n,
        fields=(("head", (0, half)), ("tail", (half, n))),
    )
    common = dict(window=m, alternation=p, rel_tolerance=1e-10,
                  max_iterations=80)
    config = SolverConfig(static_mask=mask, adaptivity=adaptivity,
                          rng_seed=seed, **common)
    try:
        report = solve(problem, config, capture_trace=True)
    except NumericalBreakdown as exc:
        report = exc.report
    # Every accepted sketch meets the stability hypothesis, recomputed from
    # the trace, and the offline verifier confirms each of them.
    accepted = assert_accepted_steps_hold(report)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        write_trace(report, path)
        doc = load_trace(path)
    verification = verify_theorem_trace(doc)
    assert len(verification.checked) == len(verification.accepted) == accepted
    assert verification.violations == []
    # The trace file gives back every record and every array bit for bit.
    assert doc["steps"] == report.mask_trace
    assert_same_trace(doc["trace"], report.trace)

    assert matches_plain_loop(problem, SolverConfig(sketch_percent=100.0, **common))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(1, 6),
    p=st.integers(1, 3),
    mask=st.sampled_from((None, "head", "tail")),
    adaptivity=st.sampled_from(tuple(Adaptivity)),
    seed=st.integers(0, 2**32 - 1),
)
# Draws that once ran on at relres inf (no sketch) and that raised a raw
# ValueError out of the guard's SVD of an overflowed window.
@example(n=3, m=3, p=3, mask="tail", adaptivity=Adaptivity.NONE,
         seed=394687208)
@example(n=2, m=6, p=2, mask="head",
         adaptivity=Adaptivity.RANDOMIZED_CONSTANT, seed=2992219808)
def test_random_noncontractive_problems(n, m, p, mask, adaptivity, seed):
    # x = B x + c with |B|_2 in [0.5, 1.5]: masked mixing can diverge even
    # below 1, and must then stop in NumericalBreakdown, never run on with
    # a non-finite residual or fail any other way.
    problem = noncontractive_problem(n, seed)
    config = SolverConfig(window=m, alternation=p, rel_tolerance=1e-10,
                          max_iterations=1000, static_mask=mask,
                          adaptivity=adaptivity, rng_seed=seed)
    try:
        report = solve(problem, config)
    except NumericalBreakdown as exc:
        report = exc.report
    assert np.isfinite(report.residual_history).all()


def noncontractive_problem(n, seed):
    """x = B x + c with |B|_2 drawn in [0.5, 1.5], fields head and tail."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    b *= rng.uniform(0.5, 1.5) / np.linalg.norm(b, 2)
    c = rng.standard_normal(n)
    half = n // 2
    return from_fixed_point_form(
        lambda x: b @ x + c,
        n,
        fields=(("head", (0, half)), ("tail", (half, n))),
    )


def test_overflowing_window_column_breaks_down_quietly():
    # A draw whose entering window column overflows its Gram matrix entry
    # while the column and |f| are still finite. It must end in
    # NumericalBreakdown with no numpy RuntimeWarning, which pyproject.toml
    # turns into an error.
    seed = 915436966
    config = SolverConfig(window=5, alternation=3, rel_tolerance=1e-10,
                          max_iterations=3000, static_mask="head",
                          adaptivity=Adaptivity.SUBSELECT_POWER, rng_seed=seed)
    with pytest.raises(NumericalBreakdown) as info:
        solve(noncontractive_problem(5, seed), config)
    assert info.value.report.iterations == 2824


def test_saddle_pressure_converges_under_rounding_noise():
    # T(x) times (1 + 1e-16 z) entry by entry, z standard normal from
    # default_rng(draw): a perturbation of an ulp or none. The pressure
    # windows are near dependent, and with a window restart on every rank
    # loss in place of the filter, draws 7 and 15 break down and draw 9
    # does not converge in 1,000 iterations.
    base = build_problem("saddle", 33)
    config = SolverConfig(static_mask="pressure", adaptivity="sub-pow",
                          rng_seed=1)
    failed = []
    for draw in range(40):
        rng = np.random.default_rng(draw)

        def residual(x, rng=rng):
            v = base.residual(x)
            return v * (1.0 + 1e-16 * rng.standard_normal(v.size))

        try:
            converged = solve(replace(base, residual=residual), config).converged
        except NumericalBreakdown:
            converged = False
        if not converged:
            failed.append(draw)
    assert failed == []


def diagonal_problem(entries):
    """T(x) = diag(entries) x, one field."""
    d = np.asarray(entries, dtype=float)
    return FixedPointProblem(residual=lambda x: d * x, dimension=d.size,
                             fields=(("s", (0, d.size)),))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_overflowing_picard_point_breaks_down_quietly(p):
    # omega * f overflows in the first Picard point g. The update x <- g or
    # x <- g - dG alpha must run inside the step's overflow guard, so the run
    # ends in NumericalBreakdown with no numpy RuntimeWarning.
    problem = diagonal_problem(np.linspace(0.1, 2.0, 6))
    config = SolverConfig(relaxation=1e200, window=3, alternation=p)
    with pytest.raises(NumericalBreakdown, match="non-finite entry") as info:
        solve(problem, config, x0=np.full(6, 1e-90))
    assert info.value.report.iterations == 2


@st.composite
def diagonal_starts(draw):
    """Entries of a diagonal T in +-[0.1, 2] and a start direction u in
    [-1, 1], both of one length n in 2..8."""
    n = draw(st.integers(2, 8))
    entries = [draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
               for _ in range(n)]
    return entries, draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(
    case=diagonal_starts(),
    e=st.floats(-300, 300),
    e_omega=st.floats(-3, 300),
    p=st.integers(1, 3),
    m=st.integers(1, 5),
    adaptivity=st.sampled_from((Adaptivity.NONE, Adaptivity.SUBSELECT_POWER,
                                Adaptivity.RANDOMIZED_POWER)),
)
# The reproduction of test_overflowing_picard_point_breaks_down_quietly.
@example(case=(np.linspace(0.1, 2.0, 6), np.ones(6)), e=-90.0, e_omega=200.0,
         p=1, m=3, adaptivity=Adaptivity.NONE)
def test_no_numpy_warning_escapes_solve(case, e, e_omega, p, m, adaptivity):
    # Diagonal problems started at x0 = 10^e u and relaxed by
    # omega = 10^e_omega: a solve returns a report or raises
    # NumericalBreakdown, and no numpy RuntimeWarning (an error under
    # pyproject.toml) escapes it.
    entries, u = case
    config = SolverConfig(relaxation=10.0 ** e_omega, window=m, alternation=p,
                          max_iterations=50, adaptivity=adaptivity)
    try:
        solve(diagonal_problem(entries), config,
              x0=10.0 ** e * np.asarray(u, dtype=float))
    except NumericalBreakdown:
        pass
