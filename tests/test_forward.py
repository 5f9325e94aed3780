import dataclasses
import hashlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

import rsmp
from rsmp import BlowUp, ControlGrid, DomainError, GaussianInitial, JumpSpec, NonFiniteCoefficient, Problem
from rsmp import CellPartition, ShapeMismatch
from rsmp.container import TAG_ADJOINT, TAG_PATHS, adjoint_to_binary, paths_to_binary, read_section
from rsmp.forward import _BLOCK, BLOWUP_GUARD, STREAM_VERSION, _mean_and_error, euler_step, guard_step, pathwise_cost
from rsmp.adjoint import _sweep
from rsmp.forward import _step_weights
from rsmp.problem import averaged_coefficients


def scalar_problem(b=None, sigma=None, ell=None, phi=None, x0=0.0, jump=None, T=1.0):
    def zero_b(t, x, xi):
        return np.zeros(np.shape(x))

    def zero_mat(t, x, xi):
        return np.zeros(np.shape(x)[:-1] + (1, 1))

    def zero_scalar(t, x, xi):
        return np.zeros(np.shape(x)[:-1])

    def zero_phi(x):
        return np.zeros(np.shape(x)[:-1])

    return Problem(
        n=1, m=1, d=1, T=T, x0=np.array([x0]),
        b=b or zero_b,
        sigma=sigma or zero_mat,
        ell=ell or zero_scalar,
        phi=phi or zero_phi,
        control_box=[[-1.0, 1.0]],
        jump=jump,
    )


def unit_grid():
    return ControlGrid([[0.0]], [[-1.0, 1.0]])


def gaussian_jump_problem():
    """Two-dimensional problem drawing all three noise kinds: a Gaussian
    initial state, two Brownian components and two jump marks."""
    jump = JumpSpec(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([2.0, 0.5]),
                    C=lambda t, x, v, xi: np.broadcast_to(v, np.shape(x)))
    return Problem(
        n=2, m=2, d=1, T=1.0, x0=GaussianInitial([0.0, 1.0], [[1.0, 0.2], [0.2, 0.5]]),
        b=lambda t, x, xi: np.zeros(np.shape(x)),
        sigma=lambda t, x, xi: np.zeros(np.shape(x)[:-1] + (2, 2)),
        ell=lambda t, x, xi: np.zeros(np.shape(x)[:-1]), phi=lambda x: np.zeros(np.shape(x)[:-1]),
        control_box=[[-1.0, 1.0]], jump=jump,
    )


NOISE_KINDS = ("dW", "jump_counts", "initial_normals")


class TestSampleNoise:
    def test_no_jump_spec_no_counts(self):
        p = scalar_problem()
        noise = rsmp.sample_noise(p, 10, 4, seed=1)
        assert noise.jump_counts.shape == (10, 4, 0)

    def test_same_seed_bit_identical(self):
        p = scalar_problem()
        a = rsmp.sample_noise(p, 50, 8, seed=42)
        b = rsmp.sample_noise(p, 50, 8, seed=42)
        assert np.array_equal(a.dW, b.dW)

    def test_different_seed_differs(self):
        p = scalar_problem()
        a = rsmp.sample_noise(p, 50, 8, seed=42)
        b = rsmp.sample_noise(p, 50, 8, seed=43)
        assert not np.array_equal(a.dW, b.dW)

    def test_moments_at_scale(self):
        # standard normal moment oracle: mean in the 4-sigma band, variance within 1%
        p = scalar_problem()
        M, N = 100_000, 1
        noise = rsmp.sample_noise(p, M, N, seed=7)
        dt = p.T / N
        draws = noise.dW.ravel()
        assert abs(draws.mean()) <= 4 * np.sqrt(dt / (M * N))
        assert 0.99 <= draws.var() / dt <= 1.01

    def test_mean_band_invariant_small(self):
        p = scalar_problem()
        M, N = 2000, 16
        noise = rsmp.sample_noise(p, M, N, seed=3)
        dt = p.T / N
        assert abs(noise.dW.mean()) <= 4 * np.sqrt(dt / (M * N))

    def test_jump_counts_poisson_mean(self):
        jump = JumpSpec(np.array([[1.0]]), np.array([2.0]), C=lambda t, x, v, xi: np.broadcast_to(v, np.shape(x)))
        p = scalar_problem(jump=jump)
        noise = rsmp.sample_noise(p, 20_000, 8, seed=5)
        lam_dt = 2.0 / 8
        mean = noise.jump_counts.mean()
        assert abs(mean - lam_dt) <= 4 * np.sqrt(lam_dt / (20_000 * 8))

    def test_coarsen_sums_increments(self):
        p = scalar_problem()
        fine = rsmp.sample_noise(p, 30, 8, seed=9)
        coarse = fine.coarsen(4)
        assert coarse.N == 2
        assert np.allclose(coarse.dW[:, 0, 0], fine.dW[:, :4, 0].sum(axis=1), atol=0)
        assert coarse.dt == pytest.approx(4 * fine.dt)

    def test_coarsened_noise_is_read_only(self):
        # like the noise it sums, so no caller can change the driving paths in place
        coarse = rsmp.sample_noise(rsmp.make_benchmark("jump-lq"), 100, 8, 1).coarsen(2)
        for arr in (coarse.dW, coarse.jump_counts):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0


class TestNoiseLayout:
    """Blocks of _BLOCK paths draw each noise kind from their own substream,
    path-major; these guard the layout beyond what moment tests can see."""

    @pytest.mark.parametrize("make", [lambda: rsmp.make_benchmark("jump-lq"), gaussian_jump_problem],
                             ids=["jump-lq", "gaussian-x0"])
    @pytest.mark.parametrize("M", [100, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_smaller_ensemble_is_row_prefix(self, make, M):
        p = make()
        small = rsmp.sample_noise(p, M, 6, seed=4)
        large = rsmp.sample_noise(p, 3 * _BLOCK + 5, 6, seed=4)
        for kind in NOISE_KINDS:
            a, b = getattr(small, kind), getattr(large, kind)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b[:M]), kind

    def test_all_kinds_bit_identical_on_rerun(self):
        p = gaussian_jump_problem()
        a = rsmp.sample_noise(p, _BLOCK + 7, 4, seed=12)
        b = rsmp.sample_noise(p, _BLOCK + 7, 4, seed=12)
        for kind in NOISE_KINDS:
            assert np.array_equal(getattr(a, kind), getattr(b, kind)), kind
        assert a.stream_version == STREAM_VERSION

    def test_blocks_and_kinds_draw_distinct_streams(self):
        p = gaussian_jump_problem()
        noise = rsmp.sample_noise(p, 2 * _BLOCK, 4, seed=3)
        # each block draws its own substream, not a copy of block 0's
        assert not np.array_equal(noise.dW[0], noise.dW[_BLOCK])
        for kind in NOISE_KINDS:
            arr = getattr(noise, kind)
            assert not np.array_equal(arr[:_BLOCK], arr[_BLOCK:]), kind
        # initial normals are not the head of the Brownian stream
        head = (noise.dW[0] / np.sqrt(noise.dt)).ravel()
        assert not np.allclose(noise.initial_normals[:2].ravel(), head[:4])

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_key_range_is_domain_error(self, seed):
        with pytest.raises(rsmp.DomainError):
            rsmp.sample_noise(scalar_problem(), 4, 2, seed=seed)

    def test_pinned_stream_digest(self):
        # any change of draws must come with a new STREAM_VERSION (and a new digest)
        noise = rsmp.sample_noise(rsmp.make_benchmark("jump-lq"), _BLOCK + 3, 4, seed=1)
        digest = hashlib.sha256(noise.dW.astype("<f8").tobytes() + noise.jump_counts.astype("<i8").tobytes())
        assert STREAM_VERSION == 2
        assert digest.hexdigest() == "5efd120109d21bb25133b47e44bd096e487ce57cf5601873c132e119c9277f66"

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("lq1d", "3decd625d50d1698a7884dc4a1c29698b702ca40270028d3e90af839eebbaac5"),
            ("lq2d", "94b25b734f0ba672c51e054f56f077fa792f4c6365723b1b379eebc77d432a2f"),
        ],
    )
    def test_pinned_diffusion_stream_digest(self, name, expected):
        # a diffusion (J = 0) makes no Poisson draw; a zero-size draw took no
        # Philox state, so the increments are the ones pinned with one per chunk
        noise = rsmp.sample_noise(rsmp.make_benchmark(name), _BLOCK + 3, 4, seed=1)
        assert noise.jump_counts.shape == (_BLOCK + 3, 4, 0)
        assert hashlib.sha256(noise.dW.astype("<f8").tobytes()).hexdigest() == expected


class TestSimulate:
    def test_zero_dynamics_constant_paths(self):
        p = scalar_problem(x0=1.5)
        u = rsmp.constant_control(unit_grid(), 8)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 20, 8, seed=1))
        assert np.array_equal(paths.states, np.full((20, 9, 1), 1.5))

    def test_pure_brownian_variance(self):
        def sigma(t, x, xi):
            return np.ones(np.shape(x)[:-1] + (1, 1))

        p = scalar_problem(sigma=sigma)
        M = 20_000
        u = rsmp.constant_control(unit_grid(), 16)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, M, 16, seed=2))
        increments = paths.states[:, -1, 0] - paths.states[:, 0, 0]
        assert np.allclose(increments, paths.noise.dW.sum(axis=1)[:, 0], atol=1e-12)
        assert abs(increments.var() - p.T) <= 3 * np.sqrt(2.0 / M) * p.T

    def test_compensated_jump_mean_zero(self):
        c, lam = 0.7, 3.0
        jump = JumpSpec(np.array([[1.0]]), np.array([lam]),
                        C=lambda t, x, v, xi: np.full(np.shape(x), c))
        p = scalar_problem(jump=jump)
        M = 20_000
        u = rsmp.constant_control(unit_grid(), 16)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, M, 16, seed=4))
        drift = paths.states[:, -1, 0] - paths.states[:, 0, 0]
        assert abs(drift.mean()) <= 4 * c * np.sqrt(lam * p.T / M)

    def test_blow_up_guard(self):
        def huge(t, x, xi):
            return np.full(np.shape(x), 1e12)

        p = scalar_problem(b=huge)
        u = rsmp.constant_control(unit_grid(), 4)
        with pytest.raises(BlowUp) as exc:
            rsmp.simulate(p, u, rsmp.sample_noise(p, 5, 4, seed=1))
        assert exc.value.step == 0

    def test_blow_up_reports_the_ensemble_first_step(self):
        # on seed 3 a path of the second noise block crosses the guard at
        # step 5, a step before any path of the first block does
        p = Problem(
            n=1, m=1, d=1, T=1.0, x0=GaussianInitial(np.zeros(1), np.eye(1)),
            b=lambda t, x, xi: x**3,
            sigma=lambda t, x, xi: np.full(np.shape(x)[:-1] + (1, 1), 0.1),
            ell=lambda t, x, xi: np.zeros(np.shape(x)[:-1]), phi=lambda x: np.zeros(np.shape(x)[:-1]),
            control_box=[[-1.0, 1.0]],
        )
        u = rsmp.constant_control(unit_grid(), 64)
        noise = rsmp.sample_noise(p, 2 * _BLOCK, 64, seed=3)
        with pytest.raises(BlowUp) as exc:
            rsmp.simulate(p, u, noise)
        assert exc.value.step == 5
        with pytest.raises(BlowUp) as first_block:
            rsmp.simulate(p, u, rsmp.sample_noise(p, _BLOCK, 64, seed=3))
        assert first_block.value.step == 6

    def test_step_count_mismatch(self):
        p = scalar_problem()
        u = rsmp.constant_control(unit_grid(), 8)
        with pytest.raises(ShapeMismatch):
            rsmp.simulate(p, u, rsmp.sample_noise(p, 5, 4, seed=1))

    @pytest.mark.parametrize("kind", ["relaxed", "regular", "policy"])
    def test_control_of_another_dimension_is_shape_mismatch(self, kind):
        # two-dimensional controls on the scalar lq1d
        p = rsmp.make_benchmark("lq1d")
        box = [[-1.0, 1.0], [-1.0, 1.0]]
        if kind == "relaxed":
            u = rsmp.constant_control(ControlGrid([[0.0, 0.0], [0.5, 0.5]], box), 4)
        elif kind == "regular":
            u = rsmp.RegularControl(np.zeros((4, 1, 2)), box)
        else:
            def u(t, x):
                return np.zeros((len(x), 2))
        with pytest.raises(ShapeMismatch):
            rsmp.simulate(p, u, rsmp.sample_noise(p, 5, 4, seed=1))

    def test_bit_identical_across_threads(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 8)
        noise = rsmp.sample_noise(p, 20_000, 8, seed=11)
        a = rsmp.simulate(p, u, noise, threads=1)
        b = rsmp.simulate(p, u, noise, threads=4)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.running_cost, b.running_cost)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_worker_cap_is_domain_error(self, threads):
        p = rsmp.make_benchmark("lq1d")
        u = rsmp.constant_control(rsmp.benchmark_grid("lq1d"), 4)
        with pytest.raises(rsmp.DomainError):
            rsmp.simulate(p, u, rsmp.sample_noise(p, 10, 4, seed=1), threads=threads)

    def test_bit_identical_rerun(self):
        p = rsmp.make_benchmark("lq1d")
        u = rsmp.constant_control(rsmp.benchmark_grid("lq1d"), 8)
        a = rsmp.simulate(p, u, rsmp.sample_noise(p, 200, 8, seed=13))
        b = rsmp.simulate(p, u, rsmp.sample_noise(p, 200, 8, seed=13))
        assert np.array_equal(a.states, b.states)


class TestStepGuard:
    """One max |x| per step decides both guards; a NaN wins over a blow-up."""

    def test_within_guard_passes(self):
        guard_step(np.array([[BLOWUP_GUARD], [-BLOWUP_GUARD]]), 3, "state")

    def test_nan_only_is_non_finite(self):
        with pytest.raises(NonFiniteCoefficient, match="state at step 3"):
            guard_step(np.array([[0.5], [np.nan]]), 3, "state")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_only_is_blow_up(self, bad):
        with pytest.raises(BlowUp) as exc:
            guard_step(np.array([[0.5, bad]]), 2, "state")
        assert exc.value.step == 2 and exc.value.max_norm == np.inf

    def test_finite_over_guard_reports_largest(self):
        with pytest.raises(BlowUp) as exc:
            guard_step(np.array([[2e9, 0.0], [0.0, -3e9]]), 1, "state")
        assert exc.value.max_norm == 3e9

    def test_nan_and_over_guard_in_one_step_is_non_finite(self):
        with pytest.raises(NonFiniteCoefficient):
            guard_step(np.array([[3e9], [np.nan], [np.inf]]), 0, "state")

    def test_all_negative_over_guard_reports_largest(self):
        with pytest.raises(BlowUp) as exc:
            guard_step(np.array([[-3e9], [-2e9]]), 4, "state")
        assert exc.value.step == 4 and exc.value.max_norm == 3e9

    def test_nan_next_to_minus_inf_is_non_finite(self):
        with pytest.raises(NonFiniteCoefficient, match="non-finite state at step 1"):
            guard_step(np.array([[np.nan], [-np.inf]]), 1, "state")

    @pytest.mark.parametrize("coefficients", ["per path", "same on every path"])
    def test_step_writes_its_row_and_names_its_step(self, coefficients):
        # the step is formed in the row it is given, with the bits of
        # x + drift dt + diff dW + sum_j C_j (counts - lam dt), also from a
        # drift and diffusion read as one row; a blow-up there names the step
        p = gaussian_jump_problem()
        M, k = 50, 2
        noise = rsmp.sample_noise(p, M, 4, seed=9)
        rng = np.random.default_rng(10)
        x, drift, diff = rng.standard_normal((M, 2)), rng.standard_normal((M, 2)), rng.standard_normal((M, 2, 2))
        if coefficients == "same on every path":
            drift, diff = np.broadcast_to(drift[0], drift.shape), np.broadcast_to(diff[0], diff.shape)
        jumps = [rng.standard_normal((M, 2)) for _ in range(p.jump.J)]
        ref = x + np.ascontiguousarray(drift) * noise.dt
        ref = ref + np.einsum("qnm,qm->qn", np.ascontiguousarray(diff), noise.dW[:, k])
        for j, cj in enumerate(jumps):
            ref = ref + (noise.jump_counts[:, k, j] - p.jump.intensities[j] * noise.dt)[:, None] * cj
        rows = np.zeros((3, M, 2))
        x_before = x.copy()
        euler_step(p, noise, k, x, drift, diff, jumps, rows[1], "state")
        assert rows[1].tobytes() == ref.tobytes()
        assert not rows[0].any() and not rows[2].any() and np.array_equal(x, x_before)
        jumps[0][7] = 1e12
        with pytest.raises(BlowUp) as exc:
            euler_step(p, noise, k, x, drift, diff, jumps, rows[2], "state")
        assert exc.value.step == k and exc.value.max_norm == np.abs(rows[2]).max()

    def test_sweep_with_nan_and_over_guard_paths_is_non_finite(self):
        def b(t, x, xi):
            out = np.zeros(np.shape(x))
            out[0], out[1] = np.nan, 1e12
            return out

        p = scalar_problem(b=b)
        with pytest.raises(NonFiniteCoefficient, match="non-finite state at step 0"):
            rsmp.simulate(p, lambda t, x: np.zeros(1), rsmp.sample_noise(p, 4, 3, seed=1))

    def test_variational_sweep_blow_up(self):
        # the base control averages the drift to zero, the direction does not
        def b(t, x, xi):
            return np.broadcast_to(1e12 * xi, np.broadcast_shapes(np.shape(xi), np.shape(x)))

        p = scalar_problem(b=b)
        grid = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        u0 = rsmp.constant_control(grid, 4)
        u1 = rsmp.constant_control(grid, 4, [1.0, 0.0])
        base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 5, 4, seed=2))
        with pytest.raises(BlowUp) as exc:
            rsmp.simulate_variational(p, base, u1, u0)
        assert exc.value.step == 0


class TestCommonRandomNumbers:
    def test_variance_reduction_on_nearby_controls(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        N, M = 16, 4000
        u1 = rsmp.constant_control(grid, N)
        w = np.full((N, 1, grid.K), 1.0 / grid.K)
        w[:, 0, 0] += 0.05
        w[:, 0, -1] -= 0.05
        u2 = rsmp.RelaxedControl(grid, w)
        common = rsmp.sample_noise(p, M, N, seed=17)
        other = rsmp.sample_noise(p, M, N, seed=18)
        c1 = pathwise_cost(p, rsmp.simulate(p, u1, common))
        c2_common = pathwise_cost(p, rsmp.simulate(p, u2, common))
        c2_other = pathwise_cost(p, rsmp.simulate(p, u2, other))
        var_common = (c1 - c2_common).var()
        var_independent = (c1 - c2_other).var()
        assert var_common < 0.5 * var_independent


class TestWeakConvergence:
    def test_first_order_cost_bias(self):
        # same Brownian paths on N, 2N, 4N grids via coarsening; the cost
        # differences between successive refinements shrink about 2x
        p = rsmp.make_benchmark("lq1d")
        spec = rsmp.benchmark_lq_spec("lq1d")
        ric = rsmp.lq_riccati_oracle(spec, 1000)
        M, N4 = 200_000, 32
        fine = rsmp.sample_noise(p, M, N4, seed=23)
        costs = {}
        for noise in (fine, fine.coarsen(2), fine.coarsen(4)):
            paths = rsmp.simulate(p, ric.feedback, noise)
            costs[noise.N] = pathwise_cost(p, paths).mean()
        d_coarse = abs(costs[8] - costs[16])
        d_fine = abs(costs[16] - costs[32])
        assert 1.6 <= d_coarse / d_fine <= 2.6


class TestCost:
    def test_zero_costs(self):
        p = scalar_problem()
        u = rsmp.constant_control(unit_grid(), 4)
        est, se = rsmp.cost(p, rsmp.simulate(p, u, rsmp.sample_noise(p, 50, 4, seed=1)))
        assert est == 0.0 and se == 0.0

    def test_unit_running_cost_gives_horizon(self):
        def one(t, x, xi):
            return np.ones(np.shape(x)[:-1])

        p = scalar_problem(ell=one, T=2.0)
        u = rsmp.constant_control(unit_grid(), 8)
        est, se = rsmp.cost(p, rsmp.simulate(p, u, rsmp.sample_noise(p, 50, 8, seed=1)))
        assert est == pytest.approx(2.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_terminal_second_moment_matches_brownian(self):
        def sigma(t, x, xi):
            return np.ones(np.shape(x)[:-1] + (1, 1))

        def phi(x):
            x = np.asarray(x)
            return np.einsum("...i,...i->...", x, x)

        p = scalar_problem(sigma=sigma, phi=phi)
        u = rsmp.constant_control(unit_grid(), 32)
        est, se = rsmp.cost(p, rsmp.simulate(p, u, rsmp.sample_noise(p, 20_000, 32, seed=3)))
        assert abs(est - p.T) <= 4 * se

    @pytest.mark.parametrize("scale", [1e300, 1e308])
    def test_costs_near_the_float_limit_have_finite_statistics(self, scaled_cost_lq1d, scale):
        # the squares of these finite costs overflow, and at 1e308 their sum
        case = scaled_cost_lq1d
        unit = case.problem(1.0)
        noise = rsmp.sample_noise(unit, 400, 8, seed=3)
        unit_est, unit_se = rsmp.cost(unit, rsmp.simulate(unit, case.u, noise))
        p = case.problem(scale)
        est, se = rsmp.cost(p, rsmp.simulate(p, case.u, noise))
        assert est / scale == pytest.approx(unit_est, rel=1e-12)
        assert se / scale == pytest.approx(unit_se, rel=1e-12)

    def test_statistics_of_finite_samples_keep_their_bits(self):
        x = np.random.default_rng(4).standard_normal(1000)
        assert _mean_and_error(x, "cost") == (float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size)))
        assert _mean_and_error(np.array([2.5]), "cost") == (2.5, 0.0)
        assert _mean_and_error(np.array([1e300, -1e300]), "cost") == (0.0, 1e300)

    def test_statistics_of_a_non_finite_sample_name_it(self):
        with pytest.raises(NonFiniteCoefficient, match="^mean of cost difference produced NaN/Inf$"):
            _mean_and_error(np.array([np.inf, 1.0]), "cost difference")


def rewalked_cost(p, paths):
    """Reference cost that walks the ensemble a second time: left-endpoint
    running cost at the control resolved on the recorded states, plus the
    terminal cost."""
    u = paths.control_used
    N, dt = paths.n_steps, paths.dt
    total = np.zeros(paths.M)
    for k in range(N):
        t, x = k * dt, paths.states[:, k]
        if isinstance(u, rsmp.RelaxedControl):
            w = u.weights_at(k, paths.feedback_signal(k, u.feedback_mode))
            total += averaged_coefficients(p, u.grid, t, x, w)[2] * dt
            continue
        if isinstance(u, rsmp.RegularControl):
            xi = u.values_at(k, N, paths.feedback_signal(k, u.feedback_mode))
        else:
            xi = np.asarray(u(t, x), dtype=float)
        total += np.asarray(p.ell(t, x, np.broadcast_to(xi, (paths.M, p.d))), dtype=float) * dt
    total += np.asarray(p.phi(paths.states[:, N]), dtype=float)
    return total


def relaxed_control(name, mode, N, seed=0):
    """Random interior relaxed control on a benchmark's grid, with 4 cells
    per feedback dimension."""
    grid = rsmp.benchmark_grid(name)
    part = None if mode == rsmp.OPEN_LOOP else rsmp.benchmark_partition(name, mode, cells=4)
    C = 1 if part is None else part.n_cells
    w = np.random.default_rng(seed).dirichlet(np.ones(grid.K), size=(N, C))
    return rsmp.RelaxedControl(grid, w, mode, part)


@pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
def test_step_weights_resolve_open_loop_to_one_row(mode):
    # the rule of weights_at: open loop reads its single (K,) row on cell 0;
    # feedback reads the cells simulate recorded and keeps the weights per
    # cell, gathering the rows of its cells once; a direction's weight
    # difference is kept the same way
    p = rsmp.make_benchmark("lq1d")
    u = relaxed_control("lq1d", mode, 4)
    direction = relaxed_control("lq1d", mode, 4, seed=1)
    paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 50, 4, seed=3))
    for k in range(4):
        cells, w, dw = _step_weights(paths, k, direction)
        assert cells.shape == (50,) and cells.dtype == np.min_scalar_type(u.n_cells - 1)
        diff = direction.weights[k] - u.weights[k]
        if mode == rsmp.OPEN_LOOP:
            assert not cells.any() and np.array_equal(w, u.weights[k, 0])
            assert np.array_equal(w, u.weights_at(k, paths.feedback_signal(k, mode)))
            assert np.array_equal(dw, diff[0])
        else:
            rows = w.rows
            assert np.array_equal(rows, u.weights_at(k, paths.feedback_signal(k, mode)))
            assert np.array_equal(rows, u.weights[k][cells]) and w.rows is rows
            assert np.array_equal(dw.rows, diff[cells]) and dw.cells is cells
        assert _step_weights(paths, k)[2] is None


@pytest.mark.parametrize("name", ["lq1d", "jump-lq", "nonconvex-mix"])
@pytest.mark.parametrize("mode", [rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
def test_feedback_whose_cells_agree_keeps_the_gather_bits(name, mode):
    # the bits of a control that puts every path in cell 0 and other rows in
    # cells no path reaches: a shortcut for cells that agree must keep the
    # bits of the gathered per-path rows; open loop reads its one row, so it
    # agrees to rounding
    p, grid = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 9)
    weights = np.full((6, 1, grid.K), 1.0 / grid.K)  # nine 1/9, whose sum in atom order is one ulp above 1.0
    weights[1::2] = np.random.default_rng(8).dirichlet(np.ones(grid.K), size=(3, 1))
    open_loop = rsmp.RelaxedControl(grid, weights)
    near = rsmp.benchmark_partition(name, mode, cells=4)
    part = CellPartition(near.bounds + 1e6, near.cells_per_dim)  # every signal below: cell 0
    rows = np.repeat(open_loop.weights, part.n_cells, axis=1)
    agree = rsmp.RelaxedControl(open_loop.grid, rows, mode, part)
    other = rows.copy()
    other[:, 1:] = np.random.default_rng(9).dirichlet(np.ones(grid.K), size=other[:, 1:].shape[:2])
    gather = rsmp.RelaxedControl(open_loop.grid, other, mode, part)
    noise = rsmp.sample_noise(p, 400, 6, seed=2)
    a, b, c = (rsmp.simulate(p, u, noise) for u in (agree, gather, open_loop))
    assert a.states.tobytes() == b.states.tobytes()
    assert a.running_cost.tobytes() == b.running_cost.tobytes()
    np.testing.assert_allclose(a.states, c.states, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.running_cost, c.running_cost, rtol=1e-12, atol=1e-12)
    with pytest.raises(DomainError, match="must be finite"):
        agree.weights_at(3, np.full((400, len(part.cells_per_dim)), np.nan))


@pytest.mark.parametrize(
    "kind",
    ["relaxed", "regular", "policy", "feedback-rows", "open-loop-separable", "feedback-separable-jump-lq",
     "feedback-separable-lq2d"],
)
def test_simulation_of_fewer_paths_is_row_prefix(kind):
    """Each path's row depends on its own noise alone, so how many paths
    share a step never shows in the bits."""
    sizes, large, seed = (100, _BLOCK + 1), 2 * _BLOCK + 5, 6
    if kind == "policy":
        p = rsmp.make_benchmark("lq1d")
        u, N = rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 64).feedback, 8
    elif kind == "feedback-rows":  # per-path weight rows, each summed on its own
        p, grid = rsmp.make_benchmark("lq1d"), rsmp.benchmark_grid("lq1d", 9)
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=4)
        w = np.random.default_rng(10).dirichlet(np.ones(9), (8, 4))
        u, N = rsmp.RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, part), 8
        sizes, large, seed = (2, 7), 64, 1
    elif kind == "open-loop-separable":  # one weight row: each `Separable` as state + w . table
        p = rsmp.make_benchmark("jump-lq")
        assert isinstance(p.jump.C, rsmp.Separable)
        u, N = relaxed_control("jump-lq", rsmp.OPEN_LOOP, 4), 4
    elif kind.startswith("feedback-separable-"):  # per-path rows: each row's product with a table its own
        name = kind.removeprefix("feedback-separable-")
        p = rsmp.make_benchmark(name)
        assert isinstance(p.b, rsmp.Separable)
        u, N = relaxed_control(name, rsmp.OBSERVATION_FEEDBACK, 4, seed=4), 4
        sizes, seed = (1, 3, 7), 5  # sizes whose rows a BLAS product with the tables sums otherwise
    else:
        p = rsmp.make_benchmark("jump-lq")
        u, N = relaxed_control("jump-lq", rsmp.STATE_FEEDBACK, 4), 4
        if kind == "regular":
            u, N = rsmp.realize_regular(u, 2), 8
    ref = rsmp.simulate(p, u, rsmp.sample_noise(p, large, N, seed=seed))
    for M in sizes:
        small = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=seed))
        assert np.array_equal(small.states, ref.states[:M])
        assert np.array_equal(small.running_cost, ref.running_cost[:M])


class TestDiracSteps:
    """A relaxed step whose weight row is one-hot in every cell steps as a
    regular control: each path's coefficients at the atom of its cell."""

    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq", "nonconvex-mix"])
    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    def test_dirac_embedding_simulates_as_the_regular_control(self, name, mode):
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        part = None if mode == rsmp.OPEN_LOOP else rsmp.benchmark_partition(name, mode, cells=4)
        C, N = 1 if part is None else part.n_cells, 8
        atoms = np.random.default_rng(11).integers(0, grid.K, (N, C))
        regular = rsmp.RegularControl(grid.points[atoms], grid.box, mode, part)  # one slot per step
        noise = rsmp.sample_noise(p, 600, N, seed=12)
        relaxed = rsmp.simulate(p, rsmp.dirac_embed(regular, grid), noise)
        reference = rsmp.simulate(p, regular, noise)
        assert np.array_equal(relaxed.states, reference.states)
        assert np.array_equal(relaxed.running_cost, reference.running_cost)

    def test_nan_at_an_atom_without_weight_is_not_evaluated(self):
        # as for a regular control; a relaxed step that weighs the atom at
        # all evaluates it and raises
        base = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)

        def b(t, x, xi):
            return np.where(np.asarray(xi) == grid.points[0], np.nan, base.b(t, x, xi))

        p = dataclasses.replace(base, b=b)
        noise = rsmp.sample_noise(p, 300, 4, seed=13)
        paths = rsmp.simulate(p, rsmp.constant_control(grid, 4, np.eye(grid.K)[2]), noise)
        assert np.all(np.isfinite(paths.states))
        with pytest.raises(NonFiniteCoefficient, match="^drift produced NaN/Inf$"):
            rsmp.simulate(p, rsmp.constant_control(grid, 4, [0.0, 0.0, 0.5, 0.5, 0.0]), noise)


class TestCellRecord:
    """simulate resolves each relaxed feedback step once: it assigns the
    step's cells one time and records them, read-only and in the narrowest
    type that holds the cell count; the sweeps along the ensemble read that
    record and assign no cell again."""

    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq"])
    @pytest.mark.parametrize("mode", [rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    @pytest.mark.parametrize("dirac", [False, True], ids=["relaxed", "dirac"])
    def test_cells_are_each_step_s_assigned_cells(self, name, mode, dirac):
        p, N = rsmp.make_benchmark(name), 6
        u = relaxed_control(name, mode, N)
        if dirac:  # every step one-hot in every cell: simulate steps as a regular control
            atoms = np.random.default_rng(5).integers(0, u.grid.K, u.weights.shape[:2])
            u = rsmp.RelaxedControl(u.grid, np.eye(u.grid.K)[atoms], mode, u.feedback)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 300, N, seed=4))
        assert paths.cells.shape == (300, N) and paths.cells.dtype == np.uint8
        assert not paths.cells.flags.writeable
        for k in range(N):
            assert np.array_equal(paths.cells[:, k], u.feedback.assign(paths.feedback_signal(k, mode)))

    def test_more_than_256_cells_are_stored_in_two_bytes(self):
        p, grid, N = rsmp.make_benchmark("lq1d"), rsmp.benchmark_grid("lq1d"), 4
        part = CellPartition([[-1.0, 1.2]], (300,))  # the paths start at x = 1, in cell 272
        u = rsmp.RelaxedControl(grid, np.full((N, 300, grid.K), 1.0 / grid.K), rsmp.STATE_FEEDBACK, part)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 500, N, seed=4))
        assert paths.cells.dtype == np.uint16 and paths.cells.max() > 255
        for k in range(N):
            assert np.array_equal(paths.cells[:, k], part.assign(paths.states[:, k]))

    @pytest.mark.parametrize("kind", ["open-loop", "regular", "regular-feedback", "policy"])
    def test_no_record_without_relaxed_feedback(self, kind):
        p, grid, N = rsmp.make_benchmark("lq1d"), rsmp.benchmark_grid("lq1d"), 4
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=4)
        u = {
            "open-loop": relaxed_control("lq1d", rsmp.OPEN_LOOP, N),
            "regular": rsmp.RegularControl(np.full((N, 1), 0.25), grid.box),
            "regular-feedback": rsmp.RegularControl(np.full((N, 4, 1), 0.25), grid.box, rsmp.STATE_FEEDBACK, part),
            "policy": lambda t, x: -0.5 * x,
        }[kind]
        assert rsmp.simulate(p, u, rsmp.sample_noise(p, 100, N, seed=4)).cells is None

    def test_only_simulate_assigns_cells(self, monkeypatch):
        # one assignment per step in simulate; the recording and the descent
        # sweeps and the variational sweep read the record
        p, N = rsmp.make_benchmark("lq1d"), 6
        u0, u = (relaxed_control("lq1d", rsmp.STATE_FEEDBACK, N, seed) for seed in (0, 1))
        noise = rsmp.sample_noise(p, 200, N, seed=4)
        calls = []
        assign = CellPartition.assign
        monkeypatch.setattr(CellPartition, "assign", lambda self, s: calls.append(1) or assign(self, s))
        base = rsmp.simulate(p, u0, noise)
        assert len(calls) == N
        calls.clear()
        rsmp.solve_bsde(p, base, u0)
        rsmp.simulate_variational(p, base, u, u0)
        _sweep(base, rsmp.BasisSpec(), record=False)
        assert calls == []


class TestRecordedRunningCost:
    M = _BLOCK + 37  # two noise blocks, the second one short

    @pytest.mark.parametrize("name, mode", [
        ("lq1d", rsmp.OPEN_LOOP),
        ("lq1d", rsmp.STATE_FEEDBACK),
        ("lq1d", rsmp.OBSERVATION_FEEDBACK),
        ("jump-lq", rsmp.OPEN_LOOP),
        ("jump-lq", rsmp.STATE_FEEDBACK),
        ("jump-lq", rsmp.OBSERVATION_FEEDBACK),
    ])
    def test_relaxed_equals_rewalked_cost(self, name, mode):
        p = rsmp.make_benchmark(name)
        u = relaxed_control(name, mode, 8)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, self.M, 8, seed=3))
        assert np.array_equal(pathwise_cost(p, paths), rewalked_cost(p, paths))

    def test_realized_regular_equals_rewalked_cost(self):
        p = rsmp.make_benchmark("lq1d")
        regular = rsmp.realize_regular(relaxed_control("lq1d", rsmp.STATE_FEEDBACK, 4), 3)
        paths = rsmp.simulate(p, regular, rsmp.sample_noise(p, self.M, 12, seed=4))
        assert np.array_equal(pathwise_cost(p, paths), rewalked_cost(p, paths))

    def test_riccati_policy_equals_rewalked_cost(self):
        p = rsmp.make_benchmark("lq1d")
        ric = rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 64)
        paths = rsmp.simulate(p, ric.feedback, rsmp.sample_noise(p, self.M, 8, seed=5))
        assert np.array_equal(pathwise_cost(p, paths), rewalked_cost(p, paths))

    def test_cost_evaluates_no_running_cost(self):
        base = rsmp.make_benchmark("lq1d")
        calls = []

        def ell(t, x, xi):
            calls.append(t)
            return base.ell(t, x, xi)

        p = dataclasses.replace(base, ell=ell)
        paths = rsmp.simulate(p, relaxed_control("lq1d", rsmp.STATE_FEEDBACK, 8), rsmp.sample_noise(p, 300, 8, seed=6))
        calls.clear()
        pathwise_cost(p, paths)
        assert calls == []

    def test_other_problem_is_shape_mismatch(self):
        p = rsmp.make_benchmark("lq1d")
        paths = rsmp.simulate(p, relaxed_control("lq1d", rsmp.OPEN_LOOP, 4), rsmp.sample_noise(p, 50, 4, seed=7))
        with pytest.raises(ShapeMismatch):
            pathwise_cost(dataclasses.replace(p), paths)

    def test_running_cost_is_read_only(self):
        p = rsmp.make_benchmark("lq1d")
        paths = rsmp.simulate(p, relaxed_control("lq1d", rsmp.OPEN_LOOP, 4), rsmp.sample_noise(p, 50, 4, seed=8))
        with pytest.raises(ValueError):
            paths.running_cost[0] = 0.0


class TestNonFiniteCost:
    def test_nan_terminal_cost_fails_optimize(self):
        # phi is NaN on the paths that end above 1.1; the optimizer used to
        # return "stalled" with cost nan
        base = rsmp.make_benchmark("lq1d")

        def phi(x):
            return np.where(np.asarray(x)[..., 0] > 1.1, np.nan, base.phi(x))

        p = dataclasses.replace(base, phi=phi)
        grid = rsmp.benchmark_grid("lq1d", 5)
        with pytest.raises(NonFiniteCoefficient):
            rsmp.optimize(p, rsmp.constant_control(grid, 16), rsmp.OptimizeParams(M=2000, N=16, seed=1))

    def test_nan_running_cost_under_regular_control(self):
        base = rsmp.make_benchmark("lq1d")

        def ell(t, x, xi):
            return np.where(np.asarray(x)[..., 0] > 0.5, np.nan, base.ell(t, x, xi))

        p = dataclasses.replace(base, ell=ell)
        regular = rsmp.realize_regular(relaxed_control("lq1d", rsmp.OPEN_LOOP, 4), 2)
        paths = rsmp.simulate(p, regular, rsmp.sample_noise(p, 2000, 8, seed=2))
        with pytest.raises(NonFiniteCoefficient):
            pathwise_cost(p, paths)


def csv_text(paths):
    buf = io.StringIO()
    rsmp.paths_to_csv(paths, buf)
    return buf.getvalue()


class TestExports:
    def test_csv_shape_and_determinism(self):
        p = rsmp.make_benchmark("lq1d")
        u = rsmp.constant_control(rsmp.benchmark_grid("lq1d"), 4)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 3, 4, seed=7))
        text = csv_text(paths)
        lines = text.strip().split("\n")
        assert lines[0] == "path,step,t,x0"
        assert len(lines) == 1 + 3 * 5
        assert text == csv_text(paths)
        assert "\r" not in text

    def test_binary_round_trip(self):
        p = rsmp.make_benchmark("jump-lq")
        u = rsmp.constant_control(rsmp.benchmark_grid("jump-lq"), 4)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 5, 4, seed=9))
        buf = io.BytesIO()
        paths_to_binary(paths, buf)
        buf.seek(0)
        tag, meta, arrays = read_section(buf)
        assert tag == TAG_PATHS
        assert meta["M"] == 5 and meta["N"] == 4
        assert meta["stream_version"] == STREAM_VERSION
        assert np.array_equal(arrays["states"], paths.states)
        assert np.array_equal(arrays["dW"], paths.noise.dW)
        assert np.array_equal(arrays["jump_counts"], paths.noise.jump_counts)

    @pytest.mark.parametrize("kind", [Path, str, os.fsencode])
    def test_every_file_function_takes_a_path(self, tmp_path, kind):
        # a pathlib.Path, a str or a bytes path writes the bytes a file object
        # receives, and reads back what was written
        p = rsmp.make_benchmark("jump-lq")
        u = rsmp.constant_control(rsmp.benchmark_grid("jump-lq"), 4)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 40, 4, seed=9))
        adj = rsmp.solve_bsde(p, paths, u)
        rsmp.paths_to_csv(paths, kind(tmp_path / "paths.csv"))
        assert (tmp_path / "paths.csv").read_bytes() == csv_text(paths).encode("utf-8")
        for name, write, record, tag, key in (
            ("paths.bin", paths_to_binary, paths, TAG_PATHS, "states"),
            ("adjoint.bin", adjoint_to_binary, adj, TAG_ADJOINT, "psi"),
        ):
            buf = io.BytesIO()
            write(record, buf)
            write(record, kind(tmp_path / name))
            assert (tmp_path / name).read_bytes() == buf.getvalue()
            read_tag, _, arrays = read_section(kind(tmp_path / name))
            assert read_tag == tag and np.array_equal(arrays[key], getattr(record, key))

    def test_truncated_binary_is_a_domain_error(self):
        # a file cut anywhere, inside the header, a key, a shape or the data
        p = rsmp.make_benchmark("jump-lq")
        u = rsmp.constant_control(rsmp.benchmark_grid("jump-lq"), 4)
        buf = io.BytesIO()
        paths_to_binary(rsmp.simulate(p, u, rsmp.sample_noise(p, 5, 4, seed=9)), buf)
        data = buf.getvalue()
        for cut in range(len(data)):
            with pytest.raises(DomainError, match="truncated container file"):
                read_section(io.BytesIO(data[:cut]))
