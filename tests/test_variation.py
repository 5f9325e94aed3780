import dataclasses
import zlib

import numpy as np
import pytest

import rsmp
from rsmp import ControlGrid, NonFiniteCoefficient, Problem, RelaxedControl, ShapeMismatch
from rsmp.forward import pathwise_cost
from rsmp.problem import averaged_coefficients, averaged_running_cost_x
from rsmp.variation import response_functional
from conftest import plain_twin


def drift_only_problem():
    # dx = xi dt: state-independent drift equals the mean control
    def b(t, x, xi):
        return np.broadcast_to(xi, np.broadcast_shapes(np.shape(xi), np.shape(x)))

    def b_x(t, x, xi):
        return np.zeros(np.shape(x)[:-1] + (1, 1))

    def sigma(t, x, xi):
        return np.zeros(np.shape(x)[:-1] + (1, 1))

    def sigma_x(t, x, xi):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1))

    def ell(t, x, xi):
        return np.zeros(np.shape(x)[:-1])

    def ell_x(t, x, xi):
        return np.zeros(np.shape(x))

    def phi(x):
        return np.zeros(np.shape(x)[:-1])

    def phi_x(x):
        return np.zeros(np.shape(x))

    return Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.0]), b=b, sigma=sigma, ell=ell, phi=phi,
                   control_box=[[-1.0, 1.0]], b_x=b_x, sigma_x=sigma_x, ell_x=ell_x, phi_x=phi_x)


def two_atom_grid():
    return ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])


def random_controls(grid, N, seed, count=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.uniform(0.1, 1.0, (N, 1, grid.K))
        w /= w.sum(axis=-1, keepdims=True)
        out.append(RelaxedControl(grid, w))
    return out


class TestSimulateVariational:
    def test_zero_direction_gives_zero(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        (u0,) = random_controls(grid, 8, 1, count=1)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 8, seed=2))
        var = rsmp.simulate_variational(p, base, u0, u0)
        assert np.array_equal(var.y, np.zeros_like(var.y))

    def test_initial_condition_zero(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u0, u1 = random_controls(grid, 8, 3)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 8, seed=4))
        var = rsmp.simulate_variational(p, base, u1, u0)
        assert np.array_equal(var.y[:, 0], np.zeros((100, 1)))

    def test_direction_scaling_is_exact(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u0, u1 = random_controls(grid, 8, 5)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 200, 8, seed=6))
        full = rsmp.simulate_variational(p, base, u1, u0)
        half = rsmp.simulate_variational(p, base, rsmp.mix(u0, u1, 0.5), u0)
        assert np.allclose(half.y, 0.5 * full.y, atol=1e-14)

    def test_mean_control_difference_integrates(self):
        # dx = xi dt with b_x = 0: y(T) is the time integral of the mean
        # weight difference, computable by hand on the grid
        p = drift_only_problem()
        grid = two_atom_grid()
        N = 8
        u0, u1 = random_controls(grid, N, 7)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 10, N, seed=8))
        var = rsmp.simulate_variational(p, base, u1, u0)
        atoms = grid.points[:, 0]
        dt = p.T / N
        expected = sum(dt * float((u1.weights[k, 0] - u0.weights[k, 0]) @ atoms) for k in range(N))
        assert np.allclose(var.y[:, -1, 0], expected, atol=1e-14)

    def test_no_cell_assignment(self, monkeypatch):
        # u shares u0's partition, so the sweep reads the cells simulate recorded and assigns none
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=4)
        rng = np.random.default_rng(3)
        u0, u = (RelaxedControl(grid, rng.dirichlet(np.ones(grid.K), (6, 4)), rsmp.STATE_FEEDBACK, part)
                 for _ in range(2))
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 50, 6, seed=2))
        calls = []
        assign = rsmp.CellPartition.assign
        monkeypatch.setattr(rsmp.CellPartition, "assign", lambda self, s: calls.append(1) or assign(self, s))
        rsmp.simulate_variational(p, base, u, u0)
        assert calls == []

    def test_wrong_base_control_rejected(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u0, u1 = random_controls(grid, 8, 9)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 50, 8, seed=10))
        with pytest.raises(ShapeMismatch):
            rsmp.simulate_variational(p, base, u0, u1)


class TestNonFiniteGuards:
    def setup_method(self):
        self.p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        self.u0, self.u1 = random_controls(grid, 8, 30)
        self.base = rsmp.simulate(self.p, self.u0, rsmp.sample_noise(self.p, 200, 8, seed=31))

    def test_nan_terminal_gradient_raises(self):
        def phi_x(x):
            return np.full(np.shape(x), np.nan)

        p = dataclasses.replace(self.p, phi_x=phi_x)
        base = rsmp.simulate(p, self.u0, self.base.noise)
        var = rsmp.simulate_variational(p, base, self.u1, self.u0)
        with pytest.raises(NonFiniteCoefficient):
            response_functional(p, base, self.u0, var)
        with pytest.raises(NonFiniteCoefficient):
            rsmp.gateaux(p, base, var, self.u1, self.u0)

    def test_nan_noise_raises_in_variational_sweep(self):
        # NaN fails the blow-up comparison, so only the finiteness check sees it
        noise = self.base.noise
        dW = noise.dW.copy()
        dW[3, 2] = np.nan
        base = dataclasses.replace(self.base, noise=dataclasses.replace(noise, dW=dW))
        with pytest.raises(NonFiniteCoefficient):
            rsmp.simulate_variational(self.p, base, self.u1, self.u0)


@pytest.fixture
def case(request):
    """(name, problem, grid) of a benchmark by its name, or of the sigma_x case."""
    name = request.param
    if name == "sigma-x":
        sigma_x_case = request.getfixturevalue("sigma_x_case")
        return name, sigma_x_case.p, sigma_x_case.grid
    return name, rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 5 if name != "nonconvex-mix" else 2)


class TestGateaux:
    def test_zero_direction_zero_derivative(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        (u0,) = random_controls(grid, 8, 11, count=1)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 8, seed=12))
        var = rsmp.simulate_variational(p, base, u0, u0)
        assert rsmp.gateaux(p, base, var, u0, u0) == 0.0

    def test_zero_costs_zero_derivative(self):
        p = drift_only_problem()
        grid = two_atom_grid()
        u0, u1 = random_controls(grid, 8, 13)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 8, seed=14))
        var = rsmp.simulate_variational(p, base, u1, u0)
        assert rsmp.gateaux(p, base, var, u1, u0) == 0.0

    def test_linearity_in_direction(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u0, u1 = random_controls(grid, 16, 15)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 500, 16, seed=16))
        full = rsmp.gateaux(p, base, rsmp.simulate_variational(p, base, u1, u0), u1, u0)
        for c in (0.25, 0.5):
            scaled = rsmp.mix(u0, u1, c)
            got = rsmp.gateaux(p, base, rsmp.simulate_variational(p, base, scaled, u0), scaled, u0)
            assert abs(got - c * full) <= 1e-10 * max(1.0, abs(full))

    def test_matches_finite_difference_on_lq(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        N, M = 32, 4000
        u0, u1 = random_controls(grid, N, 17)
        noise = rsmp.sample_noise(p, M, N, seed=18)
        base = rsmp.simulate(p, u0, noise)
        var = rsmp.simulate_variational(p, base, u1, u0)
        got = rsmp.gateaux(p, base, var, u1, u0)
        eps = 1e-3
        up = RelaxedControl(grid, u0.weights + eps * (u1.weights - u0.weights))
        dn = RelaxedControl(grid, u0.weights - eps * (u1.weights - u0.weights))
        fd = (pathwise_cost(p, rsmp.simulate(p, up, noise)).mean()
              - pathwise_cost(p, rsmp.simulate(p, dn, noise)).mean()) / (2 * eps)
        assert abs(got - fd) / (abs(fd) + 1e-8) <= 1e-3

    @pytest.mark.parametrize("case", ["lq1d", "lq2d", "nonconvex-mix", "jump-lq", "sigma-x"], indirect=True)
    def test_matches_finite_difference_all_benchmarks(self, case):
        name, p, grid = case
        N, M = 16, 2000
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        noise = rsmp.sample_noise(p, M, N, seed=23)
        w0 = rng.uniform(0.2, 1.0, (N, 1, grid.K))
        w0 /= w0.sum(-1, keepdims=True)
        u0 = RelaxedControl(grid, w0)
        base = rsmp.simulate(p, u0, noise)
        eps = 1e-3
        for _ in range(3):
            w1 = rng.uniform(0.2, 1.0, (N, 1, grid.K))
            w1 /= w1.sum(-1, keepdims=True)
            u1 = RelaxedControl(grid, w1)
            var = rsmp.simulate_variational(p, base, u1, u0)
            got = rsmp.gateaux(p, base, var, u1, u0)
            up = RelaxedControl(grid, w0 + eps * (w1 - w0))
            dn = RelaxedControl(grid, w0 - eps * (w1 - w0))
            fd = (pathwise_cost(p, rsmp.simulate(p, up, noise)).mean()
                  - pathwise_cost(p, rsmp.simulate(p, dn, noise)).mean()) / (2 * eps)
            assert abs(got - fd) / (abs(fd) + 1e-8) <= 5e-3

    def test_nonnegative_at_pointwise_minimizer(self):
        # at a converged control every admissible direction has derivative
        # above minus a few standard errors of its Monte Carlo estimate
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=8)
        N, M = 16, 4000
        w = np.full((N, part.n_cells, grid.K), 1.0 / grid.K)
        u_init = RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, part)
        res = rsmp.optimize(p, u_init, rsmp.OptimizeParams(M=M, N=N, max_iters=10, tol=1e-5, seed=19))
        u_star = res.final_control
        noise = rsmp.sample_noise(p, M, N, seed=20)
        base = rsmp.simulate(p, u_star, noise)
        rng = np.random.default_rng(21)
        for _ in range(5):
            w_dir = rng.uniform(0.05, 1.0, u_star.weights.shape)
            w_dir /= w_dir.sum(axis=-1, keepdims=True)
            u_dir = RelaxedControl(grid, w_dir, rsmp.STATE_FEEDBACK, part)
            var = rsmp.simulate_variational(p, base, u_dir, u_star)
            # pathwise derivative contributions, for a standard error
            dt = p.T / N
            per_path = np.zeros(M)
            for k in range(N):
                x = base.states[:, k]
                signal = base.feedback_signal(k, u_star.feedback_mode)
                w0 = u_star.weights_at(k, signal)
                dw = u_dir.weights_at(k, signal) - w0
                lx = averaged_running_cost_x(p, grid, k * dt, x, w0)
                per_path += dt * np.einsum("qi,qi->q", lx, var.y[:, k])
                per_path += dt * averaged_coefficients(p, grid, k * dt, x, dw, mass=0.0)[2]
            per_path += np.einsum("qi,qi->q", p.phi_x(base.states[:, N]), var.y[:, N])
            se = per_path.std(ddof=1) / np.sqrt(M)
            assert per_path.mean() >= -3 * se


def walked_derivative(p, base, u0, u, var):
    """Response functional and Gateaux derivative as left-endpoint walks
    over the base paths, in step order."""
    N, dt, grid = base.n_steps, base.dt, u0.grid
    response = 0.0
    for k in range(N):
        w0 = u0.weights_at(k, base.feedback_signal(k, u0.feedback_mode))
        lx = averaged_running_cost_x(p, grid, k * dt, base.states[:, k], w0)
        response += dt * float(np.mean(np.einsum("qi,qi->q", lx, var.y[:, k])))
    phix = np.asarray(p.phi_x(base.states[:, N]), dtype=float)
    response += float(np.mean(np.einsum("qi,qi->q", phix, var.y[:, N])))
    derivative = response
    for k in range(N):
        signal = base.feedback_signal(k, u0.feedback_mode)
        dw = u.weights_at(k, signal) - u0.weights_at(k, signal)
        derivative += dt * float(np.mean(averaged_coefficients(p, grid, k * dt, base.states[:, k], dw, mass=0.0)[2]))
    return response, derivative


@pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq"])
def test_separable_one_row_averages_agree_with_the_per_atom_ones(name):
    # open loop resolves one weight row, which a `Separable` averages as
    # state + w . table in simulate and, for a direction (of total mass 0),
    # as w . table in the variational sweep: states, costs and y agree with
    # the plain twin's per-atom contraction within 1e-12 (about 4500 eps) of
    # their largest entry
    grid = rsmp.benchmark_grid(name, 9)
    u0, u1 = random_controls(grid, 8, 70)
    assert u0.feedback is None
    out = []
    for p in (rsmp.make_benchmark(name), plain_twin(rsmp.make_benchmark(name))):
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 2000, 8, seed=71))
        var = rsmp.simulate_variational(p, base, u1, u0)
        out.append((base.states, rsmp.pathwise_cost(p, base), var.y))
    for split, plain in zip(*out):
        assert not np.array_equal(split, plain)
        assert np.abs(split - plain).max() <= 1e-12 * np.abs(plain).max()


class TestRecordedDerivative:
    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq"])
    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    def test_read_equals_walk_bit_for_bit(self, name, mode):
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        part = None if mode == rsmp.OPEN_LOOP else rsmp.benchmark_partition(name, mode, cells=4)
        C = 1 if part is None else part.n_cells
        N = 8
        w = np.random.default_rng(60).dirichlet(np.ones(grid.K), size=(2, N, C))
        u0, u1 = (RelaxedControl(grid, wi, mode, part) for wi in w)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 1500, N, seed=61))
        var = rsmp.simulate_variational(p, base, u1, u0)
        response, derivative = walked_derivative(p, base, u0, u1, var)
        assert response_functional(p, base, u0, var) == response
        assert rsmp.gateaux(p, base, var, u1, u0) == derivative

    def test_record_is_read_only(self):
        p = rsmp.make_benchmark("lq1d")
        u0, u1 = random_controls(rsmp.benchmark_grid("lq1d"), 6, 62)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 6, seed=63))
        var = rsmp.simulate_variational(p, base, u1, u0)
        assert var.response_terms.shape == var.direct_terms.shape == (6,)
        assert not var.response_terms.flags.writeable and not var.direct_terms.flags.writeable

    def test_record_of_another_direction_rejected(self):
        p = rsmp.make_benchmark("lq1d")
        u0, u1, u2 = random_controls(rsmp.benchmark_grid("lq1d"), 6, 64, count=3)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 6, seed=65))
        var = rsmp.simulate_variational(p, base, u1, u0)
        with pytest.raises(ShapeMismatch):
            rsmp.gateaux(p, base, var, u2, u0)

    def test_record_of_another_base_rejected(self):
        p = rsmp.make_benchmark("lq1d")
        u0, u1 = random_controls(rsmp.benchmark_grid("lq1d"), 6, 66)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 6, seed=67))
        other = rsmp.simulate(p, u0, rsmp.sample_noise(p, 100, 6, seed=68))
        var = rsmp.simulate_variational(p, base, u1, u0)
        with pytest.raises(ShapeMismatch):
            response_functional(p, other, u0, var)
        with pytest.raises(ShapeMismatch):
            response_functional(p, base, u1, var)
