import dataclasses

import numpy as np
import pytest

import rsmp
from rsmp import (
    ControlGrid,
    GaussianInitial,
    NonFiniteCoefficient,
    Problem,
    RelaxedControl,
    Semimartingale,
    ShapeMismatch,
)
from rsmp.adjoint import BasisSpec


def linear_terminal_problem(a=0.6, c=0.0, drift_slope=0.0, noise=0.4):
    """b = drift_slope * x, sigma constant, ell = c * x, phi = a * x."""

    def b(t, x, xi):
        return drift_slope * np.asarray(x)

    def b_x(t, x, xi):
        return np.full(np.shape(x)[:-1] + (1, 1), drift_slope)

    def sigma(t, x, xi):
        return np.full(np.shape(x)[:-1] + (1, 1), noise)

    def sigma_x(t, x, xi):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1))

    def ell(t, x, xi):
        return c * np.asarray(x)[..., 0]

    def ell_x(t, x, xi):
        return np.full(np.shape(x), c)

    def phi(x):
        return a * np.asarray(x)[..., 0]

    def phi_x(x):
        return np.full(np.shape(x), a)

    return Problem(n=1, m=1, d=1, T=1.0, x0=GaussianInitial([0.5], [[0.09]]), b=b, sigma=sigma,
                   ell=ell, phi=phi, control_box=[[-1.0, 1.0]],
                   b_x=b_x, sigma_x=sigma_x, ell_x=ell_x, phi_x=phi_x)


def unit_grid():
    return ControlGrid([[0.0]], [[-1.0, 1.0]])


class TestSolveBsde:
    def test_constant_terminal_gradient_propagates(self):
        p = linear_terminal_problem(a=0.6)
        M, N = 4000, 8
        u = rsmp.constant_control(unit_grid(), N)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=1))
        adj = rsmp.solve_bsde(p, base, u)
        assert np.allclose(adj.psi, 0.6, atol=1e-10)
        # Q is exactly zero in the limit; the regression leaves sampling
        # noise of order value * sqrt(P * N / M) per coefficient
        noise_scale = 0.6 * np.sqrt(3 * N / M)
        assert np.abs(adj.Q).mean() <= noise_scale

    def test_linear_running_cost_gradient(self):
        # closed-form backward ODE: psi(t) = a + c (T - t)
        a, c = 0.6, 0.8
        p = linear_terminal_problem(a=a, c=c)
        N = 16
        u = rsmp.constant_control(unit_grid(), N)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 4000, N, seed=2))
        adj = rsmp.solve_bsde(p, base, u)
        dt = p.T / N
        for k in range(N + 1):
            expected = a + c * (p.T - k * dt)
            assert np.abs(adj.psi[:, k] - expected).max() <= 1e-6

    def test_terminal_condition_exact(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 8)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 500, 8, seed=3))
        adj = rsmp.solve_bsde(p, base, u)
        assert np.abs(adj.psi[:, -1] - p.phi_x(base.states[:, -1])).max() == 0.0

    def test_regression_orthogonality(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 12)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 3000, 12, seed=4))
        adj = rsmp.solve_bsde(p, base, u)
        assert max(d.orthogonality for d in adj.conditioning if not d.ridge) <= 1e-10

    def test_deterministic_initial_state_ridge_free_mean(self):
        # point-mass state at step 0 collapses the regression to the mean
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 8)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 1000, 8, seed=5))
        adj = rsmp.solve_bsde(p, base, u)
        assert np.allclose(adj.psi[:, 0], adj.psi[0, 0], atol=0)

    def test_zero_diffusion_derivative_matches_backward_ode(self):
        # with sigma_x = 0, no jumps, and state-independent gradients the
        # adjoint is the deterministic backward ODE -psi' = b_x psi + ell_x
        a, c, slope = 0.5, 0.7, -0.4
        p = linear_terminal_problem(a=a, c=c, drift_slope=slope)
        N = 4096
        u = rsmp.constant_control(unit_grid(), N)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 64, N, seed=6))
        adj = rsmp.solve_bsde(p, base, u, BasisSpec(degree=1))
        # exact solution of -psi' = slope patches + c with psi(T) = a
        dt = p.T / N
        ts = dt * np.arange(N + 1)
        exact = (a + c / slope) * np.exp(slope * (p.T - ts)) - c / slope
        err = np.abs(adj.psi[:, :, 0] - exact[None, :]).max()
        assert err <= 1e-4

    def test_riccati_agreement_small(self):
        # quick version of the adjoint / Riccati comparison
        p = rsmp.make_benchmark("lq1d")
        spec = rsmp.benchmark_lq_spec("lq1d")
        ric = rsmp.lq_riccati_oracle(spec, 1000)
        grid = rsmp.benchmark_grid("lq1d")
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=8)
        N, M = 32, 5000
        res = rsmp.optimize(
            p,
            RelaxedControl(grid, np.full((N, part.n_cells, grid.K), 1.0 / grid.K), rsmp.STATE_FEEDBACK, part),
            rsmp.OptimizeParams(M=M, N=N, max_iters=6, tol=1e-5, seed=7),
        )
        u = res.final_control
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=8))
        adj = rsmp.solve_bsde(p, base, u)
        dt = p.T / N
        err2 = ref2 = 0.0
        for k in range(N + 1):
            target = 2.0 * ric.P_at(k * dt)[0, 0] * base.states[:, k, 0]
            err2 += float(((adj.psi[:, k, 0] - target) ** 2).sum())
            ref2 += float((target**2).sum())
        assert np.sqrt(err2 / ref2) <= 0.05

    def test_nan_terminal_gradient_raises(self):
        base = rsmp.make_benchmark("lq1d")
        p = dataclasses.replace(base, phi_x=lambda x: np.full(np.shape(x), np.nan))
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 16)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 500, 16, seed=9))
        with pytest.raises(NonFiniteCoefficient):
            rsmp.solve_bsde(p, paths, u)

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_one_design_per_step(self, name, monkeypatch):
        # both fits of a step share one normal matrix, so its condition
        # number is computed once per step
        calls = []
        cond = np.linalg.cond

        def counted(G, *args):
            calls.append(G.shape)
            return cond(G, *args)

        p = rsmp.make_benchmark(name)
        N = 6
        u = rsmp.constant_control(rsmp.benchmark_grid(name), N)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 400, N, seed=10))
        monkeypatch.setattr(np.linalg, "cond", counted)
        rsmp.solve_bsde(p, base, u)
        assert len(calls) == N


class TestVQ:
    def test_zero_diffusion_derivative(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        out = rsmp.v_q(p, grid, np.ones((1, 1)), 0.0, np.array([[1.0]]), np.array([1.0] + [0.0] * (grid.K - 1)))
        assert np.array_equal(out, np.zeros((1, 1)))

    def test_scalar_multiplicative_noise(self):
        # sigma = beta * x gives V = beta * Q in one dimension
        beta = 0.7

        def sigma(t, x, xi):
            return beta * np.asarray(x)[..., None]

        def sigma_x(t, x, xi):
            return np.full(np.shape(x)[:-1] + (1, 1, 1), beta)

        def b(t, x, xi):
            return np.zeros(np.shape(x))

        def zero_s(t, x, xi):
            return np.zeros(np.shape(x)[:-1])

        def zero_phi(x):
            return np.zeros(np.shape(x)[:-1])

        p = Problem(n=1, m=1, d=1, T=1.0, x0=np.array([1.0]), b=b, sigma=sigma, ell=zero_s,
                    phi=zero_phi, control_box=[[-1.0, 1.0]], sigma_x=sigma_x)
        grid = unit_grid()
        Q = np.array([[2.5]])
        out = rsmp.v_q(p, grid, Q, 0.0, np.array([[3.0]]), np.array([1.0]))
        assert out[0, 0] == pytest.approx(beta * 2.5, abs=1e-14)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(9)
        n, m = 3, 2
        T_tensor = rng.standard_normal((n, m, n))

        def sigma(t, x, xi):
            base = np.einsum("abl,...l->...ab", T_tensor, np.asarray(x))
            return base

        def sigma_x(t, x, xi):
            return np.broadcast_to(T_tensor, np.shape(x)[:-1] + T_tensor.shape)

        def b(t, x, xi):
            return np.zeros(np.shape(x))

        def zl(t, x, xi):
            return np.zeros(np.shape(x)[:-1])

        def zp(x):
            return np.zeros(np.shape(x)[:-1])

        p = Problem(n=n, m=m, d=1, T=1.0, x0=np.zeros(n), b=b, sigma=sigma, ell=zl, phi=zp,
                    control_box=[[-1.0, 1.0]], sigma_x=sigma_x)
        grid = unit_grid()
        Q = rng.standard_normal((n, m))
        x = rng.standard_normal((1, n))
        V = rsmp.v_q(p, grid, Q, 0.0, x, np.array([1.0]))[0]
        for _ in range(20):
            y = rng.standard_normal(n)
            direct = float(np.einsum("ab,ab->", Q, np.einsum("abl,l->ab", T_tensor, y)))
            assert abs(float(V @ y) - direct) <= 1e-12


class TestSemimartingaleInner:
    def rand_sm(self, rng, M=6, N=5, n=2, m=3, dt=0.2, jumps=False):
        phi = rng.standard_normal((M, N, 2, n)) if jumps else None
        lam = np.array([0.5, 1.5]) if jumps else None
        return Semimartingale(rng.standard_normal((M, N, n)), rng.standard_normal((M, N, n, m)), dt, phi, lam)

    def test_norm_positive_and_zero_only_at_zero(self):
        rng = np.random.default_rng(10)
        a = self.rand_sm(rng)
        assert rsmp.sm_inner(a, a) > 0
        zero = Semimartingale(np.zeros_like(a.v), np.zeros_like(a.Sigma), a.dt)
        assert rsmp.sm_inner(zero, zero) == 0.0

    def test_orthogonal_supports(self):
        rng = np.random.default_rng(11)
        M, N, n, m = 4, 6, 2, 2
        v1 = rng.standard_normal((M, N, n))
        v2 = rng.standard_normal((M, N, n))
        v1[:, : N // 2] = 0.0
        v2[:, N // 2 :] = 0.0
        s1 = np.zeros((M, N, n, m))
        s2 = np.zeros((M, N, n, m))
        a = Semimartingale(v1, s1, 0.1)
        b = Semimartingale(v2, s2, 0.1)
        assert rsmp.sm_inner(a, b) == 0.0

    def test_unit_drift_gives_horizon(self):
        M, N = 7, 10
        dt = 0.3
        a = Semimartingale(np.ones((M, N, 1)), np.zeros((M, N, 1, 1)), dt)
        assert rsmp.sm_inner(a, a) == pytest.approx(N * dt, abs=1e-12)

    def test_symmetry_bilinearity_cauchy_schwarz(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = self.rand_sm(rng, jumps=True)
            b = self.rand_sm(rng, jumps=True)
            ab = rsmp.sm_inner(a, b)
            assert abs(ab - rsmp.sm_inner(b, a)) <= 1e-12
            assert ab * ab <= rsmp.sm_inner(a, a) * rsmp.sm_inner(b, b) * (1 + 1e-12)
        # bilinearity in the first argument
        a1 = self.rand_sm(rng)
        a2 = self.rand_sm(rng)
        b = self.rand_sm(rng)
        combo = Semimartingale(2.0 * a1.v + 3.0 * a2.v, 2.0 * a1.Sigma + 3.0 * a2.Sigma, a1.dt)
        lhs = rsmp.sm_inner(combo, b)
        rhs = 2.0 * rsmp.sm_inner(a1, b) + 3.0 * rsmp.sm_inner(a2, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(13)
        a = self.rand_sm(rng)
        b = self.rand_sm(rng, N=7)
        with pytest.raises(ShapeMismatch):
            rsmp.sm_inner(a, b)


class TestDualityGap:
    def test_zero_direction_zero_gap(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 8)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 300, 8, seed=14))
        adj = rsmp.solve_bsde(p, base, u)
        var = rsmp.simulate_variational(p, base, u, u)
        assert rsmp.duality_gap(adj, var) == 0.0

    def test_non_finite_adjoint_pairing_raises(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 8)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 300, 8, seed=14))
        adj = rsmp.solve_bsde(p, base, u)
        # the pairing reads only the cell sums solve_bsde formed
        sums = adj.pairing_sums.copy()
        sums[4, 0, 2] = np.nan
        bad = dataclasses.replace(adj, pairing_sums=sums)
        u1 = rsmp.constant_control(grid, 8, np.eye(grid.K)[0])
        with pytest.raises(NonFiniteCoefficient):
            rsmp.adjoint_pairing(p, base, u, u1, bad)

    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq"])
    def test_small_gap_on_benchmarks(self, name):
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        N, M = 32, 5000
        rng = np.random.default_rng(15)
        w0 = rng.uniform(0.2, 1.0, (N, 1, grid.K))
        w0 /= w0.sum(-1, keepdims=True)
        w1 = rng.uniform(0.2, 1.0, (N, 1, grid.K))
        w1 /= w1.sum(-1, keepdims=True)
        u0, u1 = RelaxedControl(grid, w0), RelaxedControl(grid, w1)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, M, N, seed=16))
        adj = rsmp.solve_bsde(p, base, u0)
        var = rsmp.simulate_variational(p, base, u1, u0)
        from rsmp.variation import response_functional

        L = response_functional(p, base, u0, var)
        gap = rsmp.duality_gap(adj, var)
        assert gap <= 5e-3 * (abs(L) + 1e-6)


COEFFICIENTS = ("b", "sigma", "ell", "phi", "b_x", "sigma_x", "ell_x", "phi_x")


def counting_problem(p):
    """p with every coefficient callable counting its calls into a dict."""
    calls = {}

    def counted(key, f):
        def wrapper(*args):
            calls[key] = calls.get(key, 0) + 1
            return f(*args)
        return wrapper

    changes = {key: counted(key, getattr(p, key)) for key in COEFFICIENTS}
    if p.jump is not None:
        changes["jump"] = dataclasses.replace(p.jump, C=counted("C", p.jump.C), C_x=counted("C_x", p.jump.C_x))
    return dataclasses.replace(p, **changes), calls


def seeded_controls(name, mode, N, count, seed):
    grid = rsmp.benchmark_grid(name, 5)
    part = None if mode == rsmp.OPEN_LOOP else rsmp.benchmark_partition(name, mode, cells=4)
    C = 1 if part is None else part.n_cells
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.uniform(0.1, 1.0, (N, C, grid.K))
        w /= w.sum(axis=-1, keepdims=True)
        out.append(RelaxedControl(grid, w, mode, part))
    return out


class TestStepCoefficientCalls:
    """Per step, a sweep evaluates each coefficient it needs once, for all
    atoms of the control grid or under a point control, and each jump
    coefficient once per mark."""

    N = 4

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_relaxed_simulate(self, name):
        p = rsmp.make_benchmark(name)
        (u,) = seeded_controls(name, rsmp.STATE_FEEDBACK, self.N, 1, seed=70)
        counted, calls = counting_problem(p)
        rsmp.simulate(counted, u, rsmp.sample_noise(p, 300, self.N, seed=71))
        per_step = {"b": 1, "sigma": 1, "ell": 1}
        if p.jump.J:
            per_step["C"] = p.jump.J
        assert calls == {key: count * self.N for key, count in per_step.items()}

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    @pytest.mark.parametrize("kind", ["regular", "policy"])
    def test_regular_simulate(self, name, kind):
        p = rsmp.make_benchmark(name)
        if kind == "regular":
            (u,) = seeded_controls(name, rsmp.STATE_FEEDBACK, self.N, 1, seed=72)
            control, steps = rsmp.realize_regular(u, 2), 2 * self.N
        else:
            control, steps = rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec(name), 64).feedback, self.N
        counted, calls = counting_problem(p)
        rsmp.simulate(counted, control, rsmp.sample_noise(p, 300, steps, seed=73))
        per_step = {"b": 1, "sigma": 1, "ell": 1}
        if p.jump.J:
            per_step["C"] = p.jump.J
        assert calls == {key: count * steps for key, count in per_step.items()}

    def test_jump_variational_sweep(self):
        # l_x, b_x, sigma_x and C_x under u0; l, b, sigma and C under u - u0
        p = rsmp.make_benchmark("jump-lq")
        grid = rsmp.benchmark_grid("jump-lq", 9)
        u0 = rsmp.constant_control(grid, self.N)
        u = rsmp.constant_control(grid, self.N, np.eye(grid.K)[0])
        counted, calls = counting_problem(p)
        base = rsmp.simulate(counted, u0, rsmp.sample_noise(p, 300, self.N, seed=74))
        calls.clear()
        rsmp.simulate_variational(counted, base, u, u0)
        per_step = {key: 1 for key in ("b", "sigma", "ell", "b_x", "sigma_x", "ell_x")}
        per_step.update(C=2, C_x=2)
        assert sum(per_step.values()) == 10
        assert calls == {key: count * self.N for key, count in per_step.items()}


def walked_pairing(p, base, u0, u, adj):
    """The pairing as a per-step walk: the coefficient differences at every
    path's own weights, paired with the adjoint triple and averaged."""
    from rsmp.forward import step_weights
    from rsmp.problem import averaged_diffusion, averaged_drift, averaged_jump

    grid, dt = u0.grid, base.dt
    total = 0.0
    for k in range(base.n_steps):
        x = base.states[:, k]
        dw = step_weights(base, u, k) - step_weights(base, u0, k)
        term = np.einsum("qi,qi->q", adj.psi_cont[:, k], averaged_drift(p, grid, k * dt, x, dw))
        term += np.einsum("qab,qab->q", adj.Q[:, k], averaged_diffusion(p, grid, k * dt, x, dw))
        if p.jump is not None:
            for j in range(p.jump.J):
                c_diff = averaged_jump(p, grid, k * dt, x, p.jump.marks[j], dw)
                term += p.jump.intensities[j] * np.einsum("qi,qi->q", adj.phi[:, k, j], c_diff)
        total += dt * float(term.mean())
    return total


MODES = (rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK)


class TestPairingContraction:
    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq"])
    @pytest.mark.parametrize("mode", MODES)
    def test_pairing_matches_per_step_walk(self, name, mode):
        p = rsmp.make_benchmark(name)
        N = 8
        u0, *directions = seeded_controls(name, mode, N, 4, seed=50)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 3000, N, seed=51))
        adj = rsmp.solve_bsde(p, base, u0)
        for u in directions:
            walked = walked_pairing(p, base, u0, u, adj)
            got = rsmp.adjoint_pairing(p, base, u0, u, adj)
            assert abs(got - walked) <= 1e-12 * abs(walked)

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_derivative_reads_evaluate_no_coefficient(self, name):
        # the backward and variational sweeps evaluate every coefficient the
        # derivatives need; reading them costs one terminal gradient at most
        p = rsmp.make_benchmark(name)
        N = 6
        u0, u = seeded_controls(name, rsmp.STATE_FEEDBACK, N, 2, seed=52)
        counted, calls = counting_problem(p)
        base = rsmp.simulate(counted, u0, rsmp.sample_noise(p, 400, N, seed=53))
        adj = rsmp.solve_bsde(counted, base, u0)
        var = rsmp.simulate_variational(counted, base, u, u0)
        calls.clear()
        rsmp.adjoint_pairing(counted, base, u0, u, adj)
        rsmp.hamiltonian_field(adj)
        assert calls == {}
        rsmp.response_functional(counted, base, u0, var)
        assert calls == {"phi_x": 1}
        calls.clear()
        rsmp.gateaux(counted, base, var, u, u0)
        assert calls == {"phi_x": 1}

    def test_direction_on_other_partition_rejected(self):
        p = rsmp.make_benchmark("lq1d")
        N = 4
        (u0,) = seeded_controls("lq1d", rsmp.STATE_FEEDBACK, N, 1, seed=54)
        wide = rsmp.CellPartition(u0.feedback.bounds * 3.0, u0.feedback.cells_per_dim)
        u = RelaxedControl(u0.grid, u0.weights[::-1], rsmp.STATE_FEEDBACK, wide)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 200, N, seed=55))
        adj = rsmp.solve_bsde(p, base, u0)
        with pytest.raises(ShapeMismatch):
            rsmp.adjoint_pairing(p, base, u0, u, adj)

    def test_adjoint_of_another_base_rejected(self):
        # an adjoint solved on u0's ensemble paired along an ensemble simulated
        # under u1 (or along its own ensemble but named under u1) is refused
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)
        N = 4
        u0 = rsmp.constant_control(grid, N)
        u1 = rsmp.constant_control(grid, N, np.eye(grid.K)[0])
        noise = rsmp.sample_noise(p, 200, N, seed=60)
        base_u0, base_u1 = rsmp.simulate(p, u0, noise), rsmp.simulate(p, u1, noise)
        adj_u0 = rsmp.solve_bsde(p, base_u0, u0)
        assert adj_u0.base is base_u0
        with pytest.raises(ShapeMismatch):
            rsmp.adjoint_pairing(p, base_u1, u1, u0, adj_u0)
        with pytest.raises(ShapeMismatch):
            rsmp.adjoint_pairing(p, base_u0, u1, u0, adj_u0)
        assert np.isfinite(rsmp.adjoint_pairing(p, base_u0, u0, u1, adj_u0))

    def test_sums_are_read_only_cell_tensors(self):
        p = rsmp.make_benchmark("jump-lq")
        N = 5
        (u0,) = seeded_controls("jump-lq", rsmp.STATE_FEEDBACK, N, 1, seed=56)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 300, N, seed=57))
        adj = rsmp.solve_bsde(p, base, u0)
        shape = u0.weights.shape
        assert adj.hamiltonian_sums.shape == shape and adj.pairing_sums.shape == shape
        assert np.array_equal(adj.occupancy.sum(axis=1), np.full(N, base.M))
        for arr in (adj.hamiltonian_sums, adj.pairing_sums, adj.occupancy):
            assert not arr.flags.writeable
