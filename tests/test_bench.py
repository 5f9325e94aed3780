import itertools

import numpy as np
import pytest

import rsmp
from rsmp import LQSpec, NonPSD, UnknownBenchmark
from rsmp.forward import pathwise_cost
from rsmp.problem import _atom_view


class TestRiccatiOracle:
    def test_zero_costs_give_zero_solution(self):
        spec = LQSpec(A=[[0.3]], B=[[1.0]], Sigma0=[[0.2]], R_x=[[0.0]], R_u=[[1.0]],
                      G=[[0.0]], T=1.0, x0=np.array([1.0]))
        sol = rsmp.lq_riccati_oracle(spec, 200)
        assert np.allclose(sol.P, 0.0, atol=0)
        assert sol.optimal_cost == 0.0
        assert np.allclose(sol.feedback(0.5, np.array([[2.0]])), 0.0, atol=0)

    def test_scalar_closed_form(self):
        # A=0, B=1, R_u=1, R_x=0, G=g gives P(t) = g / (1 + g (T - t))
        g = 0.8
        spec = LQSpec(A=[[0.0]], B=[[1.0]], Sigma0=[[0.0]], R_x=[[0.0]], R_u=[[1.0]],
                      G=[[g]], T=1.0, x0=np.array([1.0]))
        sol = rsmp.lq_riccati_oracle(spec, 400)
        exact = g / (1.0 + g * (1.0 - sol.ts))
        assert np.abs(sol.P[:, 0, 0] - exact).max() <= 1e-10

    def test_doubling_resolution_is_converged(self):
        spec = rsmp.benchmark_lq_spec("lq1d")
        a = rsmp.lq_riccati_oracle(spec, 640)
        b = rsmp.lq_riccati_oracle(spec, 1280)
        assert abs(a.optimal_cost - b.optimal_cost) <= 1e-8 * abs(b.optimal_cost)

    def test_rejects_asymmetric_cost(self):
        with pytest.raises(NonPSD):
            LQSpec(A=[[0.0]], B=[[1.0]], Sigma0=[[0.1]], R_x=[[1.0]], R_u=[[-1.0]],
                   G=[[0.0]], T=1.0, x0=np.array([1.0]))

    def test_feedback_simulation_reproduces_optimal_cost(self):
        # closing the loop with the oracle feedback must recover its cost
        # prediction within Monte Carlo noise once the grid is fine enough
        p = rsmp.make_benchmark("lq1d")
        spec = rsmp.benchmark_lq_spec("lq1d")
        ric = rsmp.lq_riccati_oracle(spec, 10240)
        M, N = 50_000, 1024
        noise = rsmp.sample_noise(p, M, N, seed=101)
        costs = pathwise_cost(p, rsmp.simulate(p, ric.feedback, noise))
        se = costs.std(ddof=1) / np.sqrt(M)
        assert abs(costs.mean() - ric.optimal_cost) <= 3 * se

    def test_two_dimensional_instance(self):
        spec = rsmp.benchmark_lq_spec("lq2d")
        sol = rsmp.lq_riccati_oracle(spec, 500)
        assert sol.P.shape == (500 + 1, 2, 2)
        assert np.all(np.linalg.eigvalsh(sol.P[0]) >= -1e-12)

    def test_time_may_be_any_real_scalar(self):
        # a time is read through float(): numbers and 0-d arrays give the same gain
        sol = rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq2d"), 50)
        for t in (np.array(0.5), np.float64(0.5), np.array(0.5, dtype=np.float32)):
            assert sol.gain_at(t).tobytes() == sol.gain_at(0.5).tobytes()
        assert sol.P_at(np.int64(1)).tobytes() == sol.P_at(1.0).tobytes()


class TestLQCoefficients:
    # b, l_x and phi_x are 2-D np.dot products of the (-1, n) rows; they must
    # keep the bits of the stacked @ they replace
    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq"])
    @pytest.mark.parametrize("x_lead, xi_lead", [((5, 300), (5, 300)), ((300,), (300,)), ((1, 300), (5, 1))])
    def test_products_equal_their_matmul_forms(self, name, x_lead, xi_lead):
        spec, p = rsmp.benchmark_lq_spec(name), rsmp.make_benchmark(name)
        rng = np.random.default_rng(4)
        x, xi = rng.standard_normal(x_lead + (p.n,)), rng.standard_normal(xi_lead + (p.d,))
        assert p.b(0.2, x, xi).tobytes() == (x @ spec.A.T + xi @ spec.B.T).tobytes()
        assert p.ell_x(0.2, x, xi).tobytes() == (2.0 * x @ spec.R_x.T).tobytes()
        assert p.phi_x(x).tobytes() == (2.0 * x @ spec.G.T).tobytes()

    @pytest.mark.parametrize("name, jacobians", [
        ("lq1d", ("b_x", "sigma", "sigma_x")),
        ("lq2d", ("b_x", "sigma", "sigma_x")),
        ("jump-lq", ("b_x", "sigma", "sigma_x", "C_x")),
        ("nonconvex-mix", ("b_x", "sigma", "sigma_x")),
    ])
    def test_constant_values_are_broadcast_views_kept_as_one_row(self, name, jacobians):
        p, grid = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 5)
        x = np.random.default_rng(5).standard_normal((40, p.n))
        for what in jacobians:
            f = p.jump.C_x if what == "C_x" else getattr(p, what)
            extra = (p.jump.marks[0],) if what == "C_x" else ()
            value = f(0.0, x, *extra, np.zeros((40, p.d)))
            assert value.strides[0] == 0, what
            view = _atom_view(f, grid, 0.0, x, value.shape[1:], extra)
            assert view.shape[:2] == (1, 1), what


class TestMakeBenchmark:
    def test_lq1d_dimensions(self):
        p = rsmp.make_benchmark("lq1d")
        assert (p.n, p.m, p.d) == (1, 1, 1)
        assert p.T == 1.0
        assert p.jump.J == 0

    def test_nonconvex_grid_has_two_atoms(self):
        grid = rsmp.benchmark_grid("nonconvex-mix")
        assert grid.K == 2
        assert set(grid.points[:, 0]) == {-1.0, 1.0}

    def test_jump_lq_has_two_marks(self):
        p = rsmp.make_benchmark("jump-lq")
        assert p.jump is not None
        assert p.jump.J == 2
        assert p.jump.intensities.sum() > 0

    @pytest.mark.parametrize("name, dim", [("lq1d", 1), ("lq2d", 2), ("jump-lq", 1), ("nonconvex-mix", 1)])
    def test_observation_partition_has_the_observation_width(self, name, dim):
        # lq2d observes its whole state
        part = rsmp.benchmark_partition(name, rsmp.OBSERVATION_FEEDBACK, cells=3)
        assert part.cells_per_dim == (3,) * dim
        assert np.array_equal(part.bounds, [[-1.0, 1.0]] * dim)

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownBenchmark):
            rsmp.make_benchmark("not-a-benchmark")

    def test_describe_lists_constants(self):
        doc = rsmp.describe("lq1d")
        assert doc["lq"]["A"] == [[-0.2]]
        doc2 = rsmp.describe("nonconvex-mix")
        assert doc2["sigma"] == 0.3


def enumerated_optimum(N, res, sigma, T):
    """The least expected discrete cost over every open-loop profile of N
    weight levels 0, res, ..., 1 on nonconvex-mix."""
    dt = T / N
    best = np.inf
    for prof in itertools.product(np.arange(round(1.0 / res) + 1) * res, repeat=N):
        m = 0.0
        acc = 0.0
        for k in range(N):
            acc += (m * m + sigma * sigma * k * dt) * dt
            m += (2 * prof[k] - 1.0) * dt
        best = min(best, acc)
    return best


class TestNonconvexOracle:
    def test_optimal_profile_is_balanced(self):
        cost, profile = rsmp.nonconvex_weight_oracle(N=8)
        # all steps before the last drive the mean; the last is cost-free
        assert np.allclose(profile[:-1], 0.5, atol=1e-12)
        sigma = 0.3
        dt = 1.0 / 8
        assert cost == pytest.approx(sigma**2 * dt**2 * 28, rel=1e-12)

    def test_oracle_matches_direct_enumeration_small(self):
        # exhaustive check at a coarse resolution on a short horizon
        N, res, sigma, T = 3, 0.5, 0.3, 1.0
        cost, _ = rsmp.nonconvex_weight_oracle(N=N, resolution=res, sigma=sigma, T=T)
        assert cost == pytest.approx(enumerated_optimum(N, res, sigma, T), rel=1e-12)

    @pytest.mark.parametrize("res", [0.5, 0.25, 0.1])
    def test_oracle_matches_enumeration_on_four_steps(self, res):
        cost, _ = rsmp.nonconvex_weight_oracle(N=4, resolution=res, sigma=0.3)
        assert cost == pytest.approx(enumerated_optimum(4, res, 0.3, 1.0), rel=1e-12)


class TestBruteForceRegular:
    def test_single_atom_grid_trivial(self):
        p = rsmp.make_benchmark("nonconvex-mix")
        grid = rsmp.ControlGrid([[1.0]], p.control_box)
        noise = rsmp.sample_noise(p, 200, 4, seed=3)
        costs, profile = rsmp.best_regular_open_loop(p, grid, noise)
        assert profile.tolist() == [0, 0, 0, 0]
        u = rsmp.constant_control(grid, 4)
        direct = pathwise_cost(p, rsmp.simulate(p, u, noise))
        assert np.allclose(costs, direct, atol=0)
