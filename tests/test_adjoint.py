import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import rsmp
from rsmp import (
    ControlGrid,
    GaussianInitial,
    NonFiniteCoefficient,
    Problem,
    RelaxedControl,
    Separable,
    ShapeMismatch,
)
from rsmp.adjoint import COND_LIMIT, DEGENERATE_STD, RIDGE_SCALE, SUM_BLOCKS, BasisSpec, _cell_sums, _design, _fit
from rsmp.adjoint import _sweep
from rsmp.forward import _BLOCK
from conftest import per_path_hamiltonians, plain_twin


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

    def test_fit_of_targets_whose_products_overflow(self):
        # Zt @ Y overflows for these finite targets: they are fit scaled by
        # 1 / max|Y| and scaled back; a target that is Inf names the step
        rng = np.random.default_rng(5)
        Zt, G, _, _ = _design(BasisSpec(2).features(rng.standard_normal((200, 1))))
        Y = rng.standard_normal((200, 2))
        with np.errstate(all="raise"):
            assert np.allclose(_fit(Zt, G, Y * 1e307, 0) / 1e307, _fit(Zt, G, Y, 0), rtol=1e-12, atol=0.0)
            Y[7, 1] = np.inf
            with pytest.raises(NonFiniteCoefficient, match="^adjoint state at step 5 produced NaN/Inf$"):
                _fit(Zt, G, Y, 5)

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

    # (case, coefficients raised by 1e308 at the zero-weight atom, phi, phi_x, error)
    OVERFLOWS = [
        # the drift's pairing with psi = 20 x overflows
        ("drift-pairing", ("b",), lambda x: 10.0 * np.asarray(x)[..., 0] ** 2, lambda x: 20.0 * np.asarray(x),
         "^drift produced NaN/Inf$"),
        # every term is finite at psi = 1, but drift plus running cost is not
        ("finite-terms-sum", ("b", "ell"), lambda x: np.asarray(x)[..., 0], np.ones_like,
         "^Hamiltonian produced NaN/Inf$"),
    ]

    @pytest.mark.parametrize("case, raised, phi, phi_x, error", OVERFLOWS, ids=[c[0] for c in OVERFLOWS])
    def test_overflowing_hamiltonian_raises(self, case, raised, phi, phi_x, error):
        # the raised atom has zero weight, so the forward sweep is unchanged;
        # unchecked, the Hamiltonian sums were Inf and smp_gap NaN
        base = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)
        bad_atom = grid.points[2]

        def raise_at_bad_atom(f):
            def g(t, x, xi):
                out = f(t, x, xi)
                add = np.where(np.all(xi == bad_atom, axis=-1), 1e308, 0.0)
                return out + add.reshape(add.shape + (1,) * (np.ndim(out) - add.ndim))
            return g

        p = dataclasses.replace(base, phi=phi, phi_x=phi_x,
                                **{key: raise_at_bad_atom(getattr(base, key)) for key in raised})
        u = rsmp.constant_control(grid, 8, [0.25, 0.25, 0.0, 0.25, 0.25])
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 500, 8, seed=3))
        with pytest.raises(NonFiniteCoefficient, match=error):
            rsmp.solve_bsde(p, paths, u)

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_one_design_per_step(self, name, monkeypatch):
        # both fits of a step share one normal matrix, so it is conditioned
        # (eigvalsh) and factored (Cholesky) once per step
        calls = []

        def counted(f):
            def g(G, *args):
                calls.append(f.__name__)
                return f(G, *args)
            return g

        p = rsmp.make_benchmark(name)
        N = 6
        u = rsmp.constant_control(rsmp.benchmark_grid(name), N)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 400, N, seed=10))
        for f in (np.linalg.eigvalsh, np.linalg.cholesky):
            monkeypatch.setattr(np.linalg, f.__name__, counted(f))
        rsmp.solve_bsde(p, base, u)
        assert sorted(calls) == ["cholesky"] * N + ["eigvalsh"] * N

    def test_interpolating_drift_is_the_hamiltonian_state_gradient(self, sigma_x_case):
        # with M = 3 paths the degree-1 basis (P = 3) interpolates, so per path
        # and step (psi_k - psi_{k+1}) / dt is the backward drift
        # b_x^T psi + V_Q + l_x + sum_j lam_j C_x^T phi_j exactly: the state
        # gradient of the Hamiltonian at (psi_{k+1}, Q_k, phi_k), with V_Q =
        # tr(Q^T sigma_x) nonzero here
        p, grid, u0 = sigma_x_case.p, sigma_x_case.grid, sigma_x_case.u0
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 3, u0.time_steps, seed=2))
        adj = rsmp.solve_bsde(p, base, u0, BasisSpec(degree=1))
        assert not any(d.ridge for d in adj.conditioning)
        dt, h = base.dt, 1e-6
        for k in range(base.n_steps):
            x = base.states[:, k]

            def ham(y):
                return rsmp.hamiltonian(p, grid, k * dt, y, adj.psi[:, k + 1], adj.Q[:, k], adj.phi[:, k],
                                        u0.weights[k, 0])

            fd = np.stack([(ham(x + h * e) - ham(x - h * e)) / (2 * h) for e in np.eye(p.n)], axis=1)
            assert np.abs((adj.psi[:, k] - adj.psi[:, k + 1]) / dt - fd).max() <= 1e-6


def path_major_design(X):
    """The standardized design Z (M, 1 + kept) and normal matrix of X (M, P),
    reduced column by column along the path axis, with `_design`'s rules."""
    mu, sd = X.mean(axis=0), X.std(axis=0)
    keep = sd > DEGENERATE_STD * (1.0 + np.abs(mu))
    Z = np.ones((X.shape[0], 1 + int(keep.sum())))
    Z[:, 1:] = (X[:, keep] - mu[keep]) / sd[keep]
    G = Z.T @ Z
    ridge = np.linalg.cond(G) > COND_LIMIT
    if ridge:
        G = G + (RIDGE_SCALE * np.trace(G) / G.shape[0]) * np.eye(G.shape[0])
    return Z, G, ridge


class TestDesign:
    """The regression design is feature-major: `BasisSpec.features` builds
    contiguous (P, M) monomial rows and `_design` reduces each row."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_features_equal_the_per_column_construction(self, n):
        spec = BasisSpec(degree=2)
        x = np.random.default_rng(41).standard_normal((300, n))
        cols = []
        for alpha in spec.exponents(n):
            col = np.ones(300)
            for dim, e in enumerate(alpha):
                if e:
                    col = col * x[:, dim] ** e
            cols.append(col)
        got = spec.features(x)
        assert got.shape == (300, len(cols)) and got.T.flags.c_contiguous
        assert np.array_equal(got, np.stack(cols, axis=1))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_exponents_keep_the_order_of_the_combinations(self, n):
        # the order the regression columns had when each total degree was
        # enumerated by itertools.combinations_with_replacement
        for degree in range(6):
            ref = [(0,) * n]
            for total in range(1, degree + 1):
                for combo in itertools.combinations_with_replacement(range(n), total):
                    ref.append(tuple(combo.count(i) for i in range(n)))
            assert BasisSpec(degree).exponents(n) == ref, degree

    @pytest.mark.parametrize("n, degree", [(1, 10**5), (2, 400), (3, 60)])
    def test_high_degree_exponents_take_linear_time(self, n, degree):
        # each is about 1e5 monomials, counted once each, not once per degree
        start = time.perf_counter()
        exps = BasisSpec(degree).exponents(n)
        assert time.perf_counter() - start < 5.0
        assert len(exps) == math.comb(n + degree, degree) and len(set(exps)) == len(exps)
        assert all(sum(alpha) <= degree for alpha in exps[-100:])

    @staticmethod
    def states(case):
        rng = np.random.default_rng(42)
        if case == "n=1":
            return rng.standard_normal((2000, 1))
        if case == "n=2":
            return rng.standard_normal((2000, 2)) * [1.0, 3.0] + [0.5, -2.0]
        if case == "deterministic x0":  # step 0 of lq1d: every non-constant column is degenerate
            p = rsmp.make_benchmark("lq1d")
            u = rsmp.constant_control(rsmp.benchmark_grid("lq1d", 3), 2)
            return rsmp.simulate(p, u, rsmp.sample_noise(p, 2000, 2, seed=4)).states[:, 0]
        x = rng.standard_normal(2000)  # "ridge": two nearly collinear coordinates
        return np.stack([x, x + 1e-9 * rng.standard_normal(2000)], axis=1)

    @pytest.mark.parametrize("case", ["n=1", "n=2", "deterministic x0", "ridge"])
    def test_design_matches_the_path_major_reference(self, case):
        X = BasisSpec(degree=2).features(self.states(case))
        Zt, G, cond, ridge = _design(X)
        Z_ref, G_ref, ridge_ref = path_major_design(X)
        assert Zt.shape == Z_ref.T.shape and ridge == ridge_ref
        assert np.all(np.abs(Zt.T - Z_ref) <= 1e-13 * np.abs(Z_ref).max())
        assert np.all(np.abs(G - G_ref) <= 1e-13 * np.abs(G_ref).max())
        if case == "deterministic x0":
            assert Zt.shape[0] == 1 and not ridge
        if case == "ridge":
            assert ridge and cond > COND_LIMIT


class TestFit:
    @pytest.mark.parametrize("case", ["n=1", "n=2", "ridge"])
    def test_fit_equals_lstsq_on_the_standardized_design(self, case):
        # the normal-equation fit through G's Cholesky factor is the least
        # squares fit of np.linalg.lstsq on the standardized design, with the
        # ridge as sqrt(r) I rows below it, to 1e-13 of the largest fitted
        # value (measured: at most 2.4e-15)
        X = BasisSpec(degree=2).features(TestDesign.states(case))
        Zt, G, _, ridge = _design(X)
        Y = np.random.default_rng(7).standard_normal((len(X), 3)) + X[:, -1:]
        A, B = Zt.T, Y
        assert ridge == (case == "ridge")
        if ridge:
            G0 = Zt @ Zt.T
            r = RIDGE_SCALE * np.trace(G0) / len(G0)
            assert np.abs(G - G0 - r * np.eye(len(G0))).max() <= 1e-13 * np.abs(G0).max()
            A, B = np.vstack([A, np.sqrt(r) * np.eye(len(G0))]), np.vstack([Y, np.zeros((len(G0), 3))])
        ref = Zt.T @ np.linalg.lstsq(A, B, rcond=None)[0]
        assert np.abs(_fit(Zt, G, Y, 0) - ref).max() <= 1e-13 * np.abs(ref).max()


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
    """p with every coefficient callable counting its calls into a dict; a
    `Separable` stays one, its parts counted as "<key>.state" and
    "<key>.control"."""
    calls = {}

    def counted(key, f):
        if isinstance(f, Separable):
            return Separable(counted(f"{key}.state", f.state), counted(f"{key}.control", f.control))

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


def mixed_problem(key):
    """lq1d with b or ell replaced by the plain x . xi, which couples state
    and control, and the other still a `Separable`."""

    def coupled(t, x, xi):
        value = np.asarray(x) * np.asarray(xi)
        return value.sum(axis=-1) if key == "ell" else value

    p = dataclasses.replace(rsmp.make_benchmark("lq1d"), **{key: coupled})
    assert isinstance(p.ell if key == "b" else p.b, Separable)
    return p


def nan_at(f, bad_atom, armed):
    """f with NaN at the control value bad_atom once armed (a non-empty list)."""

    def poisoned(*args):
        # xi holds the atoms on its leading axis; once armed, poison atom 3 only
        value = np.asarray(f(*args))
        hit = np.all(args[-1] == bad_atom, axis=-1)
        return np.where(hit.reshape(hit.shape + (1,) * (value.ndim - hit.ndim)), np.nan, value) if armed else value

    return poisoned


def poisoned_problem(name, key, armed, part=False):
    """The benchmark with coefficient key NaN at atom 3 of its 5-atom grid
    once armed (a non-empty list); with part, the `Separable` key keeps its
    state part and only its control part is poisoned."""
    p = rsmp.make_benchmark(name)
    bad_atom = rsmp.benchmark_grid(name, 5).points[3]
    f = p.jump.C if key == "C" else getattr(p, key)
    poisoned = Separable(f.state, nan_at(f.control, bad_atom, armed)) if part else nan_at(f, bad_atom, armed)
    if key == "C":
        return dataclasses.replace(p, jump=dataclasses.replace(p.jump, C=poisoned))
    return dataclasses.replace(p, **{key: poisoned})


POISONED = [("lq1d", "b", "drift"), ("lq1d", "sigma", "diffusion"), ("lq1d", "ell", "running cost"),
            ("jump-lq", "C", "jump coefficient")]
# the `Separable` coefficients of the benchmarks: each control part poisoned alone
POISONED_PARTS = [("lq1d", "b", "drift"), ("lq1d", "ell", "running cost"), ("jump-lq", "C", "jump coefficient")]


class TestSeparableGuard:
    """A problem that mixes plain and `Separable` coefficients sweeps as its
    plain twin to rounding, and a NaN at one atom, of a plain coefficient or
    of a `Separable`'s control part, raises NonFiniteCoefficient naming the
    coefficient in every sweep."""

    ROUNDING = 1e-12  # of the largest entry, about 4500 eps: the tables move the sums by rounding only

    @staticmethod
    def solved(p, name="lq1d"):
        (u0,) = seeded_controls(name, rsmp.STATE_FEEDBACK, 4, 1, seed=30)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 200, 4, seed=31))
        return rsmp.solve_bsde(p, base, u0)

    @staticmethod
    def simulated_open_loop(p, name="lq1d"):
        (u,) = seeded_controls(name, rsmp.OPEN_LOOP, 4, 1, seed=30)
        return rsmp.simulate(p, u, rsmp.sample_noise(p, 200, 4, seed=31))

    @staticmethod
    def simulated_feedback(p, name="lq1d"):
        (u,) = seeded_controls(name, rsmp.STATE_FEEDBACK, 4, 1, seed=30)
        return rsmp.simulate(p, u, rsmp.sample_noise(p, 200, 4, seed=31))

    @staticmethod
    def varied_feedback(p, name="lq1d", armed=None):
        """A feedback direction's variational sweep along a Dirac base, whose
        steps evaluate no average: only the direction's averages see p."""
        (u,) = seeded_controls(name, rsmp.STATE_FEEDBACK, 4, 1, seed=30)
        u0 = RelaxedControl(u.grid, np.eye(u.grid.K)[np.arange(u.n_cells) % u.grid.K][None].repeat(4, 0),
                            u.feedback_mode, u.feedback)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 200, 4, seed=31))
        if armed is not None:
            armed.append(True)
        return rsmp.simulate_variational(p, base, u, u0)

    def assert_rounding(self, got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= self.ROUNDING * np.abs(ref).max()

    @pytest.mark.parametrize("key", ["ell", "b"])
    def test_mixed_problem_solves_as_its_plain_twin(self, key):
        p = mixed_problem(key)
        adj = self.solved(p)
        twin = plain_twin(p)
        ref = rsmp.solve_bsde(twin, dataclasses.replace(adj.base, problem=twin), adj.base.control_used)
        for name in ("hamiltonian_sums", "pairing_sums", "psi"):
            self.assert_rounding(getattr(adj, name), getattr(ref, name))
        assert not np.array_equal(adj.hamiltonian_sums, ref.hamiltonian_sums)  # the tables were taken
        assert np.array_equal(adj.occupancy, ref.occupancy)

    @pytest.mark.parametrize("key", ["ell", "b"])
    @pytest.mark.parametrize("sweep", ["open-loop", "feedback"])
    def test_mixed_problem_simulates_as_its_plain_twin(self, key, sweep):
        p = mixed_problem(key)
        run = self.simulated_open_loop if sweep == "open-loop" else self.simulated_feedback
        got, ref = run(p), run(plain_twin(p))
        self.assert_rounding(got.states, ref.states)
        self.assert_rounding(got.running_cost, ref.running_cost)
        assert not np.array_equal(got.running_cost, ref.running_cost)  # ell, or b through the states

    @pytest.mark.parametrize("key", ["ell", "b"])
    def test_mixed_problem_direction_as_its_plain_twin(self, key):
        p = mixed_problem(key)
        got, ref = self.varied_feedback(p), self.varied_feedback(plain_twin(p))
        assert np.array_equal(got.base.states, ref.base.states)  # a Dirac base evaluates f as a sum
        for name in ("y", "direct_terms", "response_terms"):
            self.assert_rounding(getattr(got, name), getattr(ref, name))

    @pytest.mark.parametrize("name, key, what", POISONED)
    @pytest.mark.parametrize("sweep", ["simulate", "direction"])
    def test_nan_at_one_atom_is_named_by_a_feedback_sweep(self, name, key, what, sweep):
        armed = []
        p = poisoned_problem(name, key, armed)
        with pytest.raises(NonFiniteCoefficient, match=what):
            if sweep == "simulate":
                armed.append(True)
                self.simulated_feedback(p, name)
            else:
                self.varied_feedback(p, name, armed)

    @pytest.mark.parametrize("name, key, what", POISONED)
    def test_nan_at_one_atom_names_the_coefficient(self, name, key, what):
        armed = []
        p = poisoned_problem(name, key, armed)
        (u0,) = seeded_controls(name, rsmp.STATE_FEEDBACK, 4, 1, seed=30)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 200, 4, seed=31))
        armed.append(True)
        with pytest.raises(NonFiniteCoefficient, match=what):
            rsmp.solve_bsde(p, base, u0)

    @pytest.mark.parametrize("name, key, what", POISONED)
    def test_nan_at_one_atom_is_named_by_an_open_loop_simulate(self, name, key, what):
        # the identity's result is not finite: the per-atom contraction names it
        with pytest.raises(NonFiniteCoefficient, match=what):
            self.simulated_open_loop(poisoned_problem(name, key, [True]), name)

    @pytest.mark.parametrize("name, key, what", POISONED_PARTS)
    @pytest.mark.parametrize("sweep", ["open-loop", "feedback", "direction", "backward"])
    def test_nan_in_a_control_part_is_named(self, name, key, what, sweep):
        # the table's atom 3 is NaN: every average or cell sum it enters is
        armed = []
        p = poisoned_problem(name, key, armed, part=True)
        if sweep == "backward":
            (u0,) = seeded_controls(name, rsmp.STATE_FEEDBACK, 4, 1, seed=30)
            base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 200, 4, seed=31))
        with pytest.raises(NonFiniteCoefficient, match=what):
            if sweep == "direction":
                self.varied_feedback(p, name, armed)
            else:
                armed.append(True)
                if sweep == "backward":
                    rsmp.solve_bsde(p, base, u0)
                else:
                    (self.simulated_open_loop if sweep == "open-loop" else self.simulated_feedback)(p, name)

    @pytest.mark.parametrize("sweep", ["solve_bsde", "optimize"])
    def test_overflow_of_a_finite_table_with_its_dual_sums_is_named(self, sweep):
        # b's control part is 1.5e308 at xi = 0.5, a finite table whose
        # product with the cell sums of psi (phi scaled by 100) overflows; the
        # control gives that atom no weight, so simulate never meets it
        base = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 9)
        b = Separable(base.b.state, lambda t, xi: np.where(xi == 0.5, 1.5e308, base.b.control(t, xi)))
        p = dataclasses.replace(base, b=b, phi=lambda x: 100 * base.phi(x), phi_x=lambda x: 100 * base.phi_x(x))
        w = np.where(grid.points[:, 0] == 0.5, 0.0, 1.0 / (grid.K - 1))
        u = rsmp.constant_control(grid, 8, w)
        with pytest.raises(NonFiniteCoefficient, match="^drift produced NaN/Inf$"):
            if sweep == "solve_bsde":
                rsmp.solve_bsde(p, rsmp.simulate(p, u, rsmp.sample_noise(p, 500, 8, seed=3)), u)
            else:
                rsmp.optimize(p, u, rsmp.OptimizeParams(M=500, N=8, seed=3))

    def test_nan_away_from_the_mean_of_x0_is_named_by_an_open_loop_simulate(self):
        # NaN at atom 3 only for x > 1.3: the table at x0 = 1 is finite, the
        # check at the extreme states is not, and the step falls back per atom
        p = rsmp.make_benchmark("lq1d")
        bad_atom, ell = rsmp.benchmark_grid("lq1d", 5).points[3], p.ell

        def far_nan(t, x, xi):
            hit = np.all(xi == bad_atom, axis=-1) & (np.asarray(x)[..., 0] > 1.3)
            return np.where(hit, np.nan, ell(t, x, xi))

        with pytest.raises(NonFiniteCoefficient, match="running cost"):
            self.simulated_open_loop(dataclasses.replace(p, ell=far_nan))


class TestStepCoefficientCalls:
    """Per step, a sweep evaluates each coefficient it needs once, for all
    atoms of the control grid or under a point control, and each jump
    coefficient once per mark, however many paths share the step; a
    `Separable` calls each of its parts once: the state part on the paths
    and the control part on the K atoms, or both at a point control."""

    N = 4
    PATHS = (300, _BLOCK + 1)

    @staticmethod
    def per_step(p, keys=("b", "sigma", "ell")):
        """Each coefficient of keys, and C once per mark, called once per
        step: a `Separable` as its two parts."""
        found = {}
        for key in keys + (("C",) if p.jump.J else ()):
            f, count = (p.jump.C, p.jump.J) if key == "C" else (getattr(p, key), 1)
            found.update({f"{key}.{part}": count for part in ("state", "control")} if isinstance(f, Separable)
                         else {key: count})
        return found

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_relaxed_simulate(self, name):
        p = rsmp.make_benchmark(name)
        (u,) = seeded_controls(name, rsmp.STATE_FEEDBACK, self.N, 1, seed=70)
        counted, calls = counting_problem(p)
        per_step = self.per_step(p)
        assert per_step["b.control"] == per_step["ell.state"] == per_step["sigma"] == 1
        for M in self.PATHS:
            calls.clear()
            rsmp.simulate(counted, u, rsmp.sample_noise(p, M, self.N, seed=71))
            assert calls == {key: count * self.N for key, count in per_step.items()}, M

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
        per_step = self.per_step(p)
        for M in self.PATHS:
            calls.clear()
            rsmp.simulate(counted, control, rsmp.sample_noise(p, M, steps, seed=73))
            assert calls == {key: count * steps for key, count in per_step.items()}, M

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_dirac_steps_of_relaxed_simulate(self, name):
        # steps 1 and 3 are one-hot in every cell: there each coefficient is
        # called once with every path's own atom, (M, ...) arguments and no
        # atom axis; at the other steps once for all atoms (the recording
        # wrappers are plain callables)
        p = rsmp.make_benchmark(name)
        (u,) = seeded_controls(name, rsmp.STATE_FEEDBACK, self.N, 1, seed=75)
        K, C = u.grid.K, u.n_cells
        w = u.weights.copy()
        w[1::2] = np.eye(K)[np.random.default_rng(76).integers(0, K, (self.N // 2, C))]
        u = RelaxedControl(u.grid, w, u.feedback_mode, u.feedback)
        seen = []

        def recorded(key, f):
            def wrapper(t, x, *rest):
                seen.append((key, t, np.shape(x), np.shape(rest[-1])))
                return f(t, x, *rest)
            return wrapper

        changes = {key: recorded(key, getattr(p, key)) for key in ("b", "sigma", "ell")}
        if p.jump.J:
            changes["jump"] = dataclasses.replace(p.jump, C=recorded("C", p.jump.C))
        keys = sorted(["b", "sigma", "ell"] + ["C"] * p.jump.J)
        for M in self.PATHS:
            seen.clear()
            noise = rsmp.sample_noise(p, M, self.N, seed=77)
            rsmp.simulate(dataclasses.replace(p, **changes), u, noise)
            for k in range(self.N):
                at_k = [call for call in seen if call[1] == k * noise.dt]
                assert sorted(key for key, *_ in at_k) == keys, (M, k)
                shapes = {(x_shape, xi_shape) for *_, x_shape, xi_shape in at_k}
                assert shapes == ({((M, p.n), (M, p.d))} if k % 2 else {((1, M, p.n), (K, 1, p.d))}), (M, k)

    def test_jump_variational_sweep(self):
        # l_x, b_x, sigma_x and C_x under u0; l, b, sigma and C under u - u0
        # (plain: a `Separable`'s direction averages count below)
        p = plain_twin(rsmp.make_benchmark("jump-lq"))
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

    # the calls per step of jump-lq's b, sigma, ell and C: a direction's
    # average (mass 0) of a `Separable` is its table alone, so its state part
    # is not called; each Jacobian is one evaluation for all atoms
    JACOBIANS = {"b_x": 1, "sigma_x": 1, "ell_x": 1, "C_x": 2}
    DIRECTION = {"b.control": 1, "sigma": 1, "ell.control": 1, "C.control": 2, **JACOBIANS}

    def part_calls(self, u0, u):
        p = rsmp.make_benchmark("jump-lq")
        assert p.jump.J == 2
        counted, calls = counting_problem(p)
        averages = self.per_step(p)
        for M in self.PATHS:
            calls.clear()
            base = rsmp.simulate(counted, u0, rsmp.sample_noise(p, M, self.N, seed=74))
            assert calls == {key: count * self.N for key, count in averages.items()}, M
            calls.clear()
            rsmp.simulate_variational(counted, base, u, u0)
            assert calls == {key: count * self.N for key, count in self.DIRECTION.items()}, M
            calls.clear()
            rsmp.solve_bsde(counted, base, u0)
            swept = {key: count * self.N for key, count in {**averages, **self.JACOBIANS}.items()}
            assert calls == {**swept, "phi_x": 1}, M

    def test_declared_one_row_steps(self):
        grid = rsmp.benchmark_grid("jump-lq", 9)
        self.part_calls(rsmp.constant_control(grid, self.N), rsmp.constant_control(grid, self.N, np.eye(grid.K)[0]))

    def test_declared_per_path_steps(self):
        self.part_calls(*seeded_controls("jump-lq", rsmp.STATE_FEEDBACK, self.N, 2, seed=73))

    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK])
    def test_one_table_call_per_step(self, mode):
        # each `Separable`'s control part is called once per step in each
        # sweep, under any weights, on the K atoms (K, d) and no state
        p = rsmp.make_benchmark("jump-lq")
        u0, u = seeded_controls("jump-lq", mode, self.N, 2, seed=78)
        steps = []

        def tabled(f):
            def control(t, *rest):
                steps.append((t, np.shape(rest[-1])))
                return f.control(t, *rest)
            return Separable(f.state, control)

        jump = dataclasses.replace(p.jump, C=tabled(p.jump.C))
        p = dataclasses.replace(p, b=tabled(p.b), ell=tabled(p.ell), jump=jump)
        tables = 2 + p.jump.J
        for M in self.PATHS:
            noise = rsmp.sample_noise(p, M, self.N, seed=79)
            times = [(k * noise.dt, (u0.grid.K, p.d)) for k in range(self.N) for _ in range(tables)]
            steps.clear()
            base = rsmp.simulate(p, u0, noise)
            assert steps == times, M
            steps.clear()
            rsmp.simulate_variational(p, base, u, u0)
            assert steps == times, M
            steps.clear()
            rsmp.solve_bsde(p, base, u0)
            assert steps == times[::-1], M


def walked_pairing(p, base, u0, u, adj):
    """The pairing as a per-step walk: the coefficient differences at every
    path's own weights (a direction's, of mass 0), paired with the adjoint
    triple and averaged."""
    from rsmp.problem import averaged_coefficients

    grid, dt = u0.grid, base.dt
    total = 0.0
    for k in range(base.n_steps):
        x = base.states[:, k]
        signal = base.feedback_signal(k, u0.feedback_mode)
        dw = u.weights_at(k, signal) - u0.weights_at(k, signal)
        b_diff, sigma_diff, _, c_diffs = averaged_coefficients(p, grid, k * dt, x, dw, mass=0.0)
        term = np.einsum("qi,qi->q", adj.psi_cont[:, k], b_diff)
        term += np.einsum("qab,qab->q", adj.Q[:, k], sigma_diff)
        for j, c_diff in enumerate(c_diffs):
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


class TestCellSums:
    """Every cell sum of the backward sweep adds within blocks of
    consecutive paths and then block by block, each row on its own."""

    def test_a_row_binned_alone_keeps_its_bits_among_others(self):
        rng = np.random.default_rng(70)
        for C, M, R in ((1, 1, 2), (1, 300, 3), (7, 1000, 5), (16, 20000, 9), (3, 10, 0)):  # R = 0: no rows
            cells = rng.integers(0, C, M)
            bins = cells * SUM_BLOCKS + np.arange(M) * SUM_BLOCKS // M
            rows = rng.standard_normal((R, M)) * rng.uniform(1e-3, 1e3, (R, 1))
            together = _cell_sums(bins, C, rows)
            assert together.shape == (C, R)
            for r in range(R):
                assert together[:, r].tobytes() == _cell_sums(bins, C, [rows[r]])[:, 0].tobytes(), (C, M, r)
                assert together[:, r].tobytes() == _cell_sums(bins, C, rows[r:])[:, 0].tobytes(), (C, M, r)

    @pytest.mark.parametrize("cells", [16, 300])
    def test_narrow_cells_bin_as_int64_cells(self, cells):
        # simulate records the cells in the narrowest type, uint8 up to 256
        # cells (where cell 4 * SUM_BLOCKS wraps to 0 in uint8 arithmetic)
        # and uint16 beyond: the sweep bins them in int64, so its sums and
        # occupancy are those of the same cells given as int64
        p, grid, N = rsmp.make_benchmark("lq1d"), rsmp.benchmark_grid("lq1d"), 4
        part = rsmp.CellPartition([[-1.0, 1.2]], (cells,))  # the paths start at x = 1, in cell 14 or 272
        w = np.random.default_rng(71).dirichlet(np.ones(grid.K), (N, cells))
        u = RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, part)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 2000, N, seed=72))
        assert base.cells.dtype == (np.uint8 if cells <= 256 else np.uint16)
        assert base.cells.min() >= 4 and (cells <= 256 or base.cells.max() > 255)
        wide = dataclasses.replace(base, cells=base.cells.astype(np.int64))
        for record in (True, False):
            sums, occupancy, _, _ = _sweep(base, BasisSpec(), record)
            wide_sums, wide_occupancy, _, _ = _sweep(wide, BasisSpec(), record)
            assert sums.tobytes() == wide_sums.tobytes()
            assert np.array_equal(occupancy, wide_occupancy)

    @pytest.mark.parametrize("name, mode", [("lq1d", rsmp.STATE_FEEDBACK), ("jump-lq", rsmp.OPEN_LOOP)])
    def test_hamiltonian_sums_are_close_to_the_exact_sums(self, name, mode):
        # blocked sums err by about the block length in ulps: within 2e-14 of
        # the largest sum at M = 20000, where adding the paths one by one
        # errs by about 1e-13 to 4e-13
        p = plain_twin(rsmp.make_benchmark(name))
        grid, M, N = rsmp.benchmark_grid(name), 20000, 4
        part = None if mode == rsmp.OPEN_LOOP else rsmp.benchmark_partition(name, mode, cells=16)
        C = 1 if part is None else part.n_cells
        u = RelaxedControl(grid, np.full((N, C, grid.K), 1.0 / grid.K), mode, part)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=30))
        adj = rsmp.solve_bsde(p, base, u)
        worst = 0.0
        for k in range(N):
            signal = base.feedback_signal(k, mode)
            cells = np.zeros(M, dtype=np.int64) if signal is None else part.assign(signal)
            phik = adj.phi[:, k] if p.jump.J else None
            x, t = base.states[:, k], k * base.dt
            ham = per_path_hamiltonians(p, grid, t, x, adj.psi_cont[:, k], adj.Q[:, k], phik).T  # per atom (K, M)
            exact = np.array([[math.fsum(row[cells == c]) for row in ham] for c in range(C)])
            worst = max(worst, np.abs(adj.hamiltonian_sums[k] - exact).max())
        assert worst <= 2e-14 * np.abs(adj.hamiltonian_sums).max()


class TestBackwardDrift:
    """The psi target drift of each backward step is the state gradient of
    the Hamiltonian, b_x^T psi + Q : sigma_x + l_x + sum_j lam_j C_x^T phi_j,
    formed by the one pairing rule (`problem._hamiltonian_rows`) on
    `averaged_linearization`'s values: byte for byte the einsum block each
    step used to form it with."""

    CASES = ["lq1d", "lq2d", "jump-lq", "nonconvex-mix", "sigma_x_case"]

    @staticmethod
    def reference_drift(p, bx, sx, lx, cxs, psi_next, Qk, phik):
        lam = p.jump.intensities
        with np.errstate(over="ignore", invalid="ignore"):
            drift = np.einsum("qij,qi->qj", bx, psi_next)
            drift += np.einsum("qab,qabl->ql", Qk, sx)
            drift += lx
            for j, cx in enumerate(cxs):
                drift += lam[j] * np.einsum("qij,qi->qj", cx, phik[:, j])
        return drift

    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK])
    @pytest.mark.parametrize("name", CASES)
    def test_drift_equals_the_einsum_block_byte_for_byte(self, name, mode, request, monkeypatch):
        N = 4
        if name == "sigma_x_case":
            case = request.getfixturevalue("sigma_x_case")
            p, grid = case.p, case.grid
            part = None if mode == rsmp.OPEN_LOOP else rsmp.CellPartition([[-2.0, 2.0]] * p.n, (3,) * p.n)
            C = 1 if part is None else part.n_cells
            u0 = RelaxedControl(grid, np.random.default_rng(50).dirichlet(np.ones(grid.K), (N, C)), mode, part)
        else:
            p = rsmp.make_benchmark(name)
            (u0,) = seeded_controls(name, mode, N, 1, seed=50)
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 300, N, seed=51))
        pairing_rule = rsmp.adjoint._hamiltonian_rows
        drifts = []

        def spy(p, values, psi, Q, phi_row, pairing, checked):
            values = list(values)
            rows = pairing_rule(p, values, psi, Q, phi_row, pairing, checked)
            drifts.append(([v[0] for v in values], psi.copy(), Q.copy(), phi_row.copy(), rows[0][0].copy()))
            return rows

        monkeypatch.setattr(rsmp.adjoint, "_hamiltonian_rows", spy)
        rsmp.solve_bsde(p, base, u0)
        assert len(drifts) == N
        for (bx, sx, lx, *cxs), psi_next, Qk, phik, got in drifts:
            assert len(cxs) == p.jump.J
            ref = self.reference_drift(p, bx, sx, lx, cxs, psi_next, Qk, phik)
            assert got.shape == ref.shape == (base.M, p.n) and got.tobytes() == ref.tobytes()
