"""Built-in problems against independently assembled dense oracles."""
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from aap import problems
from aap.fixed_point import evaluate_residual
from aap.problems import (
    MAX_SIZE,
    PROBLEM_NAMES,
    ResourceLimit,
    _component_stiffness,
    _slot_matrix,
    build_problem,
    make_bidomain_toy,
    make_linear,
    make_p_laplacian,
    make_saddle_point,
    neumann_laplacian_apply,
    q_laplacian_residual,
    sine_solver,
)
from aap.solver import SolverConfig, solve

from oracles import (
    dense_laplacian_2d,
    dense_saddle_system,
    neumann_laplacian_loops,
)


@pytest.mark.parametrize("builder", [
    make_saddle_point, make_p_laplacian, make_bidomain_toy,
    lambda npts: q_laplacian_residual(npts, 2.0),
], ids=["saddle", "plaplace", "bidomain", "q_laplacian"])
def test_grid_builders_need_three_points(builder):
    with pytest.raises(ValueError, match="points per side must be >= 3"):
        builder(2)


class TestLinear:
    def test_residual_is_the_stored_system(self):
        problem = make_linear(20, seed=3)
        a = problem.data["matrix"]
        b = problem.data["rhs"]
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(20)
            np.testing.assert_array_equal(
                evaluate_residual(problem, x), a @ x - b
            )

    def test_spectrum_spans_declared_interval(self):
        problem = make_linear(30, seed=1)
        ev = np.linalg.eigvalsh(problem.data["matrix"])
        assert ev[0] == pytest.approx(0.1, abs=1e-12)
        assert ev[-1] == pytest.approx(2.0, abs=1e-12)

    def test_matrix_symmetric(self):
        a = make_linear(15).data["matrix"]
        np.testing.assert_allclose(a, a.T, rtol=0, atol=1e-15)

    def test_seed_controls_instance(self):
        a0 = make_linear(10, seed=0).data["matrix"]
        a0_again = make_linear(10, seed=0).data["matrix"]
        a1 = make_linear(10, seed=1).data["matrix"]
        np.testing.assert_array_equal(a0, a0_again)
        assert not np.array_equal(a0, a1)

    def test_size_validated(self):
        with pytest.raises(ValueError):
            make_linear(1)


def _relres(a, x, b):
    return np.linalg.norm(a @ x - b) / np.linalg.norm(b)


class TestSineSolver:
    # Saddle-3's velocity lattices are 1x2 and 2x1, saddle-4's 2x3 and
    # 3x2; 63x64 and 64x63 are saddle-65's.
    @pytest.mark.parametrize(
        "shape", [(1, 2), (2, 1), (2, 3), (3, 2), (63, 64), (64, 63)]
    )
    def test_inverts_component_stiffness(self, shape):
        n = shape[0] * shape[1]
        stiffness = _slot_matrix(*_component_stiffness(*shape), (n, n))
        b = np.random.default_rng(8).standard_normal(n)
        assert _relres(stiffness, sine_solver(shape)(b), b) <= 1e-13

    # The solver calls pocketfft below scipy.fft's dispatch; a scipy that
    # changes what dstn(type=1, norm="ortho") runs must fail here. The
    # shapes are the velocity and interior lattices of saddle-33, -65 and
    # plaplace-31, -63, and their transposes.
    @pytest.mark.parametrize(
        "shape", [(29, 29), (31, 32), (32, 31), (61, 61), (63, 64), (64, 63)]
    )
    def test_bitwise_equal_to_two_dstn(self, shape):
        from scipy.fft import dstn

        scale = 3.0 / 7.0
        solve = sine_solver(shape, scale)
        n1, n2 = shape
        j1, j2 = np.arange(1, n1 + 1), np.arange(1, n2 + 1)
        lam = ((2.0 - 2.0 * np.cos(np.pi * j1 / (n1 + 1)))[:, None]
               + (2.0 - 2.0 * np.cos(np.pi * j2 / (n2 + 1)))[None, :]) * scale
        # The input is a slice of a longer vector, as in the saddle residual.
        rng = np.random.default_rng(11)
        vec = rng.standard_normal(n1 * n2 + 5)
        b = vec[2:2 + n1 * n2]
        kept = vec.copy()
        expected = dstn(dstn(b.reshape(shape), type=1, norm="ortho") / lam,
                        type=1, norm="ortho").ravel()
        got = solve(b)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert vec.tobytes() == kept.tobytes()
        # Calls share no buffer: a second solve leaves the first intact.
        first = got.copy()
        solve(rng.standard_normal(n1 * n2))
        assert got.tobytes() == first.tobytes()

    def test_inverts_p_laplacian(self):
        lap = dense_laplacian_2d(7, 1.0 / 8)
        problem = make_p_laplacian(9, init="poisson")
        ones = np.ones(lap.shape[0])
        assert _relres(lap, problem.initial_state, ones) <= 1e-13
        # At q = 2, beta T(u) solves -Lap w = F(u).
        problem = make_p_laplacian(9, q=2.0, beta=4.0)
        u = np.random.default_rng(9).standard_normal(lap.shape[0])
        raw = problem.data["apply_q_laplacian"](u)
        assert _relres(lap, 4.0 * evaluate_residual(problem, u), raw) <= 1e-13


class TestSaddle:
    def test_system_matches_dense_assembly(self):
        for npts in (5, 9):
            problem = make_saddle_point(npts)
            oracle, rhs, n_u, n_v, n_p = dense_saddle_system(npts)
            np.testing.assert_allclose(
                problem.data["system"].toarray(), oracle, rtol=0, atol=1e-14
            )
            np.testing.assert_allclose(
                problem.data["rhs"], rhs, rtol=0, atol=1e-15
            )
            assert problem.dimension == n_u + n_v + n_p

    def test_system_is_canonical_and_exact(self):
        # The system is assembled from ELLPACK-style row slots and converted
        # to CSR once, each row's entries in column order and with no sort
        # or duplicate pass; it must come out with sorted, unduplicated
        # indices, and its entries (4, -1, +-h and the grounding h^2) must
        # equal the dense assembly's exactly, its velocity block and
        # continuity rows included. The forcing goes through a vectorised
        # sine, which rounds differently from the scalar one at some sizes.
        for npts in (3, 4, 5, 9, 17):
            system = make_saddle_point(npts).data["system"]
            oracle = dense_saddle_system(npts)[0]
            assert system.format == "csr" and system.has_canonical_format
            np.testing.assert_array_equal(system.toarray(), oracle)

    def test_system_stores_no_zero(self):
        # A lattice side of 2 once made the velocity stiffness, and so the
        # system, store explicit zeros (8 of 95 entries at size 4).
        for npts in range(3, 18):
            system = make_saddle_point(npts).data["system"]
            assert np.count_nonzero(system.data == 0) == 0, npts

    # SHA-256 prefixes of the system's indptr and indices (as int64) and
    # data. The benchmark's saddle solves converge or not on the last bit
    # of their arithmetic, so these systems must not change.
    PINNED_SYSTEMS = {
        9: ("4e5761753ab96528", "15cb903fcc97a099", "4c5d8186dc1af5e1"),
        17: ("440fbd8108e900d4", "473185a29d72f437", "22c69604ac8ef24c"),
        33: ("2e4602648c371ffa", "a10e41689dc3a1b1", "1055041284d897fb"),
        65: ("1c988e1315e4893e", "caa6cab8ef3a5a48", "b62e7212b660e464"),
    }

    @pytest.mark.parametrize("npts", sorted(PINNED_SYSTEMS))
    def test_system_bits_pinned(self, npts):
        system = make_saddle_point(npts).data["system"]
        arrays = (system.indptr.astype(np.int64), system.indices.astype(np.int64),
                  system.data)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)
        assert digests == self.PINNED_SYSTEMS[npts]

    def test_residual_applies_block_preconditioner(self):
        npts = 5
        problem = make_saddle_point(npts)
        oracle, rhs, n_u, n_v, _ = dense_saddle_system(npts)
        h = 1.0 / (npts - 1)
        k_dense = oracle[: n_u + n_v, : n_u + n_v]
        rng = np.random.default_rng(2)
        x = rng.standard_normal(problem.dimension)
        raw = oracle @ x - rhs
        expected = np.concatenate(
            [
                np.linalg.solve(k_dense, raw[: n_u + n_v]),
                raw[n_u + n_v :] / (h * h),
            ]
        )
        np.testing.assert_allclose(
            evaluate_residual(problem, x), expected, rtol=1e-10, atol=1e-12
        )

    def test_velocity_block_symmetric_positive_definite(self):
        problem = make_saddle_point(9)
        n_vel = dict(problem.fields)["velocity"][1]
        k = problem.data["system"][:n_vel, :n_vel].toarray()
        np.testing.assert_allclose(k, k.T, rtol=0, atol=0)
        assert np.linalg.eigvalsh(k).min() > 0

    def test_converged_velocity_is_discretely_divergence_free(self):
        problem = make_saddle_point(9)
        report = solve(problem, SolverConfig(rel_tolerance=1e-10))
        assert report.converged
        n_vel = dict(problem.fields)["velocity"][1]
        # The continuity rows but the last, which grounds the pressure.
        div = problem.data["system"][n_vel:-1, :n_vel] @ report.final_state[:n_vel]
        assert np.abs(div).max() < 1e-8

    def test_size_cap(self):
        assert MAX_SIZE["saddle"] == 65
        with pytest.raises(ResourceLimit):
            build_problem("saddle", 66)


class TestPLaplacian:
    def test_quadratic_case_is_poisson(self):
        # q = 2 makes gamma identically one: the raw operator must equal
        # the dense 5-point Laplacian applied to u, minus the unit forcing.
        raw = q_laplacian_residual(7, q=2.0)
        lap = dense_laplacian_2d(5, 1.0 / 6)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(lap.shape[0])
            np.testing.assert_allclose(
                raw(u), lap @ u - 1.0, rtol=1e-12, atol=1e-12
            )

    def test_residual_at_zero_is_preconditioned_forcing(self):
        problem = make_p_laplacian(9, q=2.0, beta=10.0)
        lap = dense_laplacian_2d(7, 1.0 / 8)
        expected = np.linalg.solve(lap, -np.ones(lap.shape[0])) / 10.0
        got = evaluate_residual(problem, np.zeros(problem.dimension))
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-14)

    def test_fixed_point_solves_the_nonlinear_problem(self):
        problem = make_p_laplacian(9, q=1.5)
        report = solve(problem, SolverConfig(rel_tolerance=1e-12))
        assert report.converged
        raw = problem.data["apply_q_laplacian"]
        assert np.abs(raw(report.final_state)).max() < 1e-9

    def test_poisson_init(self):
        # The unit-forcing Poisson solve, by the residual's own sine solver.
        problem = make_p_laplacian(9, init="poisson")
        np.testing.assert_array_equal(
            problem.initial_state, sine_solver((7, 7), 64.0)(np.ones(49))
        )
        assert make_p_laplacian(9).initial_state is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_p_laplacian(9, q=0.5)
        with pytest.raises(ValueError):
            make_p_laplacian(9, beta=0.0)
        with pytest.raises(ValueError):
            make_p_laplacian(9, init="random")


class TestBidomain:
    def test_neumann_apply_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for k in (3, 5, 8):
            field = rng.standard_normal((k, k))
            h = 1.0 / (k - 1)
            np.testing.assert_allclose(
                neumann_laplacian_apply(field, h),
                neumann_laplacian_loops(field, h),
                rtol=1e-13,
                atol=1e-13,
            )

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 5), (65, 65)])
    def test_neumann_apply_equals_pad_form(self, shape):
        rng = np.random.default_rng(6)
        field = rng.standard_normal(shape)
        padded = np.pad(field, 1, mode="edge")
        expected = (
            padded[:-2, 1:-1]
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
            - 4.0 * field
        ) / (0.3 * 0.3)
        got = neumann_laplacian_apply(field, 0.3)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_stacked_residual_sums_to_zero(self):
        # Rate, ionic, and stimulus terms cancel pairwise between the two
        # equations and each zero-flux Laplacian telescopes to zero, so the
        # residual has zero total mass whatever the state.
        problem = make_bidomain_toy(7)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(problem.dimension)
            out = evaluate_residual(problem, x)
            assert abs(out.sum()) < 1e-10

    def test_common_shift_invariance(self):
        # Shifting both potentials by the same constant changes neither v
        # nor any Laplacian, so the residual is unchanged.
        problem = make_bidomain_toy(7)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(problem.dimension)
        shifted = x + 3.7
        np.testing.assert_allclose(
            evaluate_residual(problem, x),
            evaluate_residual(problem, shifted),
            rtol=1e-12,
            atol=1e-11,
        )

    def test_rest_state_leaves_only_the_stimulus(self):
        # At v = 0 the rate, ionic and Laplacian terms vanish exactly, so
        # T(0) is the stimulus with its two signs.
        problem = make_bidomain_toy(7)
        coords = np.arange(7) * (1.0 / 6)
        box = ((coords[:, None] <= 0.25) & (coords[None, :] <= 0.25)).ravel()
        out = evaluate_residual(problem, np.zeros(problem.dimension))
        np.testing.assert_array_equal(out, np.concatenate([-1.0 * box, 1.0 * box]))

    def test_residual_matches_componentwise_oracle(self):
        npts = 6
        problem = make_bidomain_toy(npts)
        h = 1.0 / (npts - 1)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(problem.dimension)
        ue = x[: npts * npts].reshape(npts, npts)
        ui = x[npts * npts :].reshape(npts, npts)
        v = ue - ui
        ion = 1.0 * v * (v - 0.1) * (v - 1.0)
        coords = np.arange(npts) * h
        box = (coords[:, None] <= 0.25) & (coords[None, :] <= 0.25)
        fe = (
            v / 0.5
            - 0.1 * neumann_laplacian_loops(ue, h)
            + ion
            - 1.0 * box
        )
        fi = (
            -v / 0.5
            - 0.1 * neumann_laplacian_loops(ui, h)
            - ion
            + 1.0 * box
        )
        expected = np.concatenate([fe.ravel(), fi.ravel()])
        np.testing.assert_allclose(
            evaluate_residual(problem, x), expected, rtol=1e-12, atol=1e-12
        )


# SHA-256 prefixes of T(x) at x = default_rng(5).standard_normal(n). The
# benchmark's solves converge or not on the last bit of their residuals,
# so a rewrite of a builder must leave these bits alone. No path here goes
# through BLAS, so the digests do not depend on its build or threads.
PINNED_RESIDUALS = {
    ("saddle", 17): "71cf21451b7a",
    ("saddle", 33): "d7956ea20d85",
    ("saddle", 65): "83a483ba5e0d",
    ("plaplace", 31): "7a7309dac6f3",
    ("plaplace", 63): "8e7efa9c4186",
    ("bidomain", 17): "1d2ce4d09f89",
    ("bidomain", 33): "b7c1d66c8cbd",
}


@pytest.mark.parametrize("name, npts", sorted(PINNED_RESIDUALS))
def test_residual_bits_pinned(name, npts):
    problem = build_problem(name, npts)
    x = np.random.default_rng(5).standard_normal(problem.dimension)
    out = evaluate_residual(problem, x)
    digest = hashlib.sha256(out.tobytes()).hexdigest()[:12]
    assert digest == PINNED_RESIDUALS[name, npts]


class TestBuildProblem:
    def test_registered_names(self):
        for name, size in [
            ("linear", 12),
            ("saddle", 5),
            ("plaplace", 7),
            ("bidomain", 5),
        ]:
            problem = build_problem(name, size)
            assert problem.name == name

    def test_layouts_cover_dimension(self):
        for name, size in [
            ("linear", 12),
            ("saddle", 5),
            ("plaplace", 7),
            ("bidomain", 5),
        ]:
            problem = build_problem(name, size)
            covered = []
            for _, (start, stop) in problem.fields:
                covered.extend(range(start, stop))
            assert covered == list(range(problem.dimension))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_problem("heat", 9)

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_size_above_cap_refused_before_building(self, name, monkeypatch):
        # The builders are replaced, so a size past the cap fails here
        # without allocating; the cap itself must still build.
        built = []
        for builder in ("make_linear", "make_saddle_point", "make_p_laplacian",
                        "make_bidomain_toy"):
            monkeypatch.setattr(problems, builder,
                                lambda size, **kw: built.append(size))
        cap = MAX_SIZE[name]
        with pytest.raises(ResourceLimit, match=f"{name} size limited to {cap}"):
            build_problem(name, cap + 1)
        build_problem(name, cap)
        assert built == [cap]

    def test_init_only_for_plaplace(self):
        assert build_problem("plaplace", 7, init="poisson").initial_state is not None
        with pytest.raises(ValueError):
            build_problem("linear", 7, init="poisson")


def test_readme_lists_each_problems_fields():
    # The README's problem table names the fields a --mask may select.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\|[^|]*\|([^|]*)\|", readme, re.MULTILINE)
    listed = {name: tuple(re.findall(r"`(\w+)`", cell)) for name, cell in rows}
    assert listed == {name: build_problem(name, 9).field_names()
                      for name in PROBLEM_NAMES}
