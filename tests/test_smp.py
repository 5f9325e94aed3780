import dataclasses

import numpy as np
import pytest

import rsmp
from rsmp import CellPartition, ControlGrid, DomainError, RelaxedControl
from rsmp.adjoint import _sweep
from rsmp.smp import HamiltonianField, _field, _largest_remainder


def toy_field(cell_values, dt=1.0, grid=None, feedback_mode=rsmp.OPEN_LOOP, feedback=None,
              occupancy=None):
    cell_values = np.asarray(cell_values, dtype=float)
    N, C, K = cell_values.shape
    if grid is None:
        grid = ControlGrid(np.arange(K, dtype=float)[:, None], [[0.0, float(K)]])
    occupancy = occupancy if occupancy is not None else np.ones((N, C), dtype=np.int64)
    return HamiltonianField(
        cell_values=cell_values,
        occupancy=occupancy,
        control=RelaxedControl(grid, np.full((N, C, K), 1.0 / K), feedback_mode, feedback),
        dt=dt,
    )


class TestHamiltonian:
    def test_drift_only_reduces_to_inner_product(self):
        p = rsmp.make_benchmark("nonconvex-mix")  # b = xi, sigma const
        grid = rsmp.benchmark_grid("nonconvex-mix")
        x = np.array([[0.3], [-0.2]])
        psi = np.array([[2.0], [1.0]])
        Q = np.zeros((2, 1, 1))
        w = np.array([0.25, 0.75])
        got = rsmp.hamiltonian(p, grid, 0.0, x, psi, Q, None, w)
        mean_xi = 0.25 * -1.0 + 0.75 * 1.0
        expected = psi[:, 0] * mean_xi + x[:, 0] ** 2  # ell = x^2 rides along
        assert np.allclose(got, expected, atol=1e-14)

    def test_costs_only_reduces_to_running_cost(self):
        p = rsmp.make_benchmark("nonconvex-mix")
        grid = rsmp.benchmark_grid("nonconvex-mix")
        x = np.array([[0.5]])
        got = rsmp.hamiltonian(p, grid, 0.0, x, np.zeros((1, 1)), np.zeros((1, 1, 1)), None, np.array([0.5, 0.5]))
        assert got[0] == pytest.approx(0.25, abs=1e-14)

    def test_affine_in_measure(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 1))
        psi = rng.standard_normal((10, 1))
        Q = rng.standard_normal((10, 1, 1))
        for _ in range(25):
            w1 = rng.uniform(0.01, 1, grid.K)
            w1 /= w1.sum()
            w2 = rng.uniform(0.01, 1, grid.K)
            w2 /= w2.sum()
            eps = float(rng.uniform())
            mixed = rsmp.hamiltonian(p, grid, 0.3, x, psi, Q, None, (1 - eps) * w1 + eps * w2)
            split = (1 - eps) * rsmp.hamiltonian(p, grid, 0.3, x, psi, Q, None, w1) \
                + eps * rsmp.hamiltonian(p, grid, 0.3, x, psi, Q, None, w2)
            assert np.abs(mixed - split).max() <= 1e-12


class TestPointwiseArgmin:
    def test_picks_minimizer(self):
        field = toy_field([[[3.0, 1.0, 2.0]]])
        u = rsmp.pointwise_argmin(field)
        assert np.array_equal(u.weights[0, 0], [0.0, 1.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        field = toy_field([[[1.0, 1.0, 5.0]]])
        u = rsmp.pointwise_argmin(field)
        assert np.array_equal(u.weights[0, 0], [1.0, 0.0, 0.0])

    def test_constant_field_gives_first_atom(self):
        field = toy_field(np.zeros((4, 1, 3)))
        u = rsmp.pointwise_argmin(field)
        assert np.array_equal(u.weights, np.tile([1.0, 0.0, 0.0], (4, 1, 1)))

    def test_always_extreme_point(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            field = toy_field(rng.standard_normal((5, 1, 4)))
            w = rsmp.pointwise_argmin(field).weights
            assert np.all(w.max(axis=-1) == 1.0)
            assert np.all(w.sum(axis=-1) == 1.0)
            assert np.all((w == 0.0) | (w == 1.0))


class TestSmpGap:
    def test_zero_at_argmin_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            field = toy_field(rng.standard_normal((6, 1, 5)))
            cand = rsmp.pointwise_argmin(field)
            gap, per_step = rsmp.smp_gap(field, cand)
            assert gap == 0.0
            assert np.all(per_step == 0.0)

    def test_single_step_arithmetic(self):
        field = toy_field([[[0.0, 1.0]]], dt=1.0)
        grid = field.control.grid
        u = RelaxedControl(grid, np.array([[[0.0, 1.0]]]))
        gap, _ = rsmp.smp_gap(field, u)
        assert gap == pytest.approx(1.0, abs=0)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            field = toy_field(rng.standard_normal((4, 1, 3)))
            w = rng.uniform(0.01, 1.0, (4, 1, 3))
            w /= w.sum(axis=-1, keepdims=True)
            gap, per_step = rsmp.smp_gap(field, RelaxedControl(field.control.grid, w))
            assert gap >= 0.0
            assert np.all(per_step >= 0.0)

    def test_mismatched_partition_rejected(self):
        import pytest as _pytest

        grid = ControlGrid([[0.0], [1.0]], [[0.0, 1.0]])
        part_a = CellPartition([[-1.0, 1.0]], (2,))
        part_b = CellPartition([[-2.0, 2.0]], (2,))
        field = toy_field(np.zeros((3, 2, 2)), grid=grid,
                          feedback_mode=rsmp.STATE_FEEDBACK, feedback=part_a)
        u = RelaxedControl(grid, np.full((3, 2, 2), 0.5), rsmp.STATE_FEEDBACK, part_b)
        with _pytest.raises(rsmp.ShapeMismatch):
            rsmp.smp_gap(field, u)

    def test_open_loop_control_on_feedback_field_rejected(self):
        grid = ControlGrid([[0.0], [1.0]], [[0.0, 1.0]])
        part = CellPartition([[-1.0, 1.0]], (2,))
        field = toy_field(np.zeros((3, 2, 2)), grid=grid, feedback_mode=rsmp.STATE_FEEDBACK, feedback=part)
        with pytest.raises(rsmp.ShapeMismatch):
            rsmp.smp_gap(field, RelaxedControl(grid, np.full((3, 1, 2), 0.5)))


class TestHamiltonianField:
    def test_single_cell_partial_equals_path_average(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        part = CellPartition([[-1.0, 1.0]], (1,))
        N = 8
        w = np.full((N, 1, grid.K), 1.0 / grid.K)
        u = RelaxedControl(grid, w, rsmp.OBSERVATION_FEEDBACK, part)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 500, N, seed=5))
        adj = rsmp.solve_bsde(p, base, u)
        fld = rsmp.hamiltonian_field(adj)
        one_hot = np.eye(grid.K)
        for k in range(N):
            for i in range(grid.K):
                direct = rsmp.hamiltonian(p, grid, k * base.dt, base.states[:, k],
                                          adj.psi_cont[:, k], adj.Q[:, k], None, one_hot[i])
                assert abs(fld.cell_values[k, 0, i] - direct.mean()) <= 1e-12

    def test_field_control_is_the_adjoint_control(self):
        p = rsmp.make_benchmark("lq1d")
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=4)
        grid = rsmp.benchmark_grid("lq1d", 5)
        u = RelaxedControl(grid, np.full((4, part.n_cells, grid.K), 1.0 / grid.K), rsmp.STATE_FEEDBACK, part)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 200, 4, seed=7))
        fld = rsmp.hamiltonian_field(rsmp.solve_bsde(p, base, u))
        assert fld.control is base.control_used
        assert fld.dt == base.dt
        cand = rsmp.pointwise_argmin(fld)
        assert cand.same_structure(u) and cand.feedback is part

    def test_single_atom_field_is_pathwise_hamiltonian(self):
        p = rsmp.make_benchmark("lq1d")
        grid = ControlGrid([[0.2]], p.control_box)
        u = rsmp.constant_control(grid, 6)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 200, 6, seed=6))
        adj = rsmp.solve_bsde(p, base, u)
        fld = rsmp.hamiltonian_field(adj)
        assert fld.cell_values.shape == (6, 1, 1)
        assert np.array_equal(fld.occupancy, np.full((6, 1), 200))
        k = 3
        direct = rsmp.hamiltonian(p, grid, k * base.dt, base.states[:, k],
                                  adj.psi_cont[:, k], adj.Q[:, k], None, np.array([1.0]))
        cells = np.zeros(200, dtype=np.int64)
        assert np.array_equal(np.bincount(cells, weights=direct, minlength=1) / 200, fld.cell_values[k, :, 0])

    @staticmethod
    def seeded_field_inputs(name, mode):
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        N = 6
        if mode == rsmp.OPEN_LOOP:
            part, C = None, 1
        else:
            part = rsmp.benchmark_partition(name, mode, cells=4)
            C = part.n_cells
        rng = np.random.default_rng(20)
        w = rng.uniform(0.1, 1.0, (N, C, grid.K))
        w /= w.sum(axis=-1, keepdims=True)
        u = RelaxedControl(grid, w, mode, part)
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, 300, N, seed=21))
        return p, grid, base, rsmp.solve_bsde(p, base, u)

    @pytest.mark.parametrize(
        "name,mode",
        [("lq1d", rsmp.STATE_FEEDBACK), ("jump-lq", rsmp.OPEN_LOOP), ("lq2d", rsmp.OBSERVATION_FEEDBACK)],
    )
    def test_field_values_equal_one_hot_hamiltonian(self, name, mode):
        p, grid, base, adj = self.seeded_field_inputs(name, mode)
        fld = rsmp.hamiltonian_field(adj)
        u = base.control_used
        C = u.n_cells
        one_hot = np.eye(grid.K)
        for k in range(base.n_steps):
            phik = adj.phi[:, k] if adj.phi is not None else None
            sig = base.feedback_signal(k, mode)
            cells = np.zeros(base.M, dtype=np.int64) if sig is None else u.feedback.assign(sig)
            counts = np.bincount(cells, minlength=C)
            assert np.array_equal(fld.occupancy[k], counts)
            occupied = counts > 0
            for i in range(grid.K):
                direct = rsmp.hamiltonian(p, grid, k * base.dt, base.states[:, k],
                                          adj.psi_cont[:, k], adj.Q[:, k], phik, one_hot[i])
                means = np.bincount(cells, weights=direct, minlength=C)[occupied] / counts[occupied]
                assert np.array_equal(means, fld.cell_values[k, occupied, i])

    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq", "nonconvex-mix"])
    def test_optimize_sweep_field_equals_the_public_field(self, name, mode):
        # optimize bins its field in a sweep that keeps no adjoint process and
        # forms no pairing sums; the field must be the public one, bit for bit
        p, _, base, adj = self.seeded_field_inputs(name, mode)
        u = base.control_used
        sums, occupancy, kept, _ = _sweep(p, base, u, rsmp.BasisSpec(), record=False)
        assert kept == ()
        for arr in (sums, occupancy):
            assert not arr.flags.writeable
        assert np.array_equal(sums, adj.hamiltonian_sums)
        fld, ref = _field(sums, occupancy, u, base.dt), rsmp.hamiltonian_field(adj)
        assert np.array_equal(fld.cell_values, ref.cell_values)
        assert np.array_equal(fld.occupancy, ref.occupancy)
        assert fld.control is ref.control and fld.dt == ref.dt

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_field_evaluates_each_coefficient_once_per_step(self, name):
        # the backward sweep evaluates b, sigma and ell once per step, and C
        # once per mark and step, for all atoms at once; the field itself
        # evaluates nothing
        p, grid, base, _ = self.seeded_field_inputs(name, rsmp.STATE_FEEDBACK)
        calls = {}

        def counted(key, f):
            def wrapper(*args):
                calls[key] = calls.get(key, 0) + 1
                return f(*args)
            return wrapper

        changes = {key: counted(key, getattr(p, key)) for key in ("b", "sigma", "ell")}
        if p.jump.J:
            changes["jump"] = dataclasses.replace(p.jump, C=counted("C", p.jump.C))
        wrapped = dataclasses.replace(p, **changes)
        base = rsmp.simulate(wrapped, base.control_used, base.noise)
        calls.clear()
        adj = rsmp.solve_bsde(wrapped, base, base.control_used)
        expected = {key: base.n_steps for key in ("b", "sigma", "ell")}
        if p.jump.J:
            expected["C"] = p.jump.J * base.n_steps
        assert calls == expected
        calls.clear()
        fld = rsmp.hamiltonian_field(adj)
        assert calls == {}
        assert fld.cell_values.shape == (base.n_steps, base.control_used.n_cells, grid.K)

    def test_nan_at_one_atom_raises(self):
        # the field's coefficients are evaluated in the backward sweep
        p, grid, base, _ = self.seeded_field_inputs("lq1d", rsmp.STATE_FEEDBACK)
        bad_atom = grid.points[3]
        armed = []

        def ell(t, x, xi):
            # xi holds the atoms on its leading axis; once armed, poison atom 3 only
            value = p.ell(t, x, xi)
            return np.where(np.all(xi == bad_atom, axis=-1), np.nan, value) if armed else value

        poisoned = dataclasses.replace(p, ell=ell)
        base = rsmp.simulate(poisoned, base.control_used, base.noise)
        armed.append(True)
        with pytest.raises(rsmp.NonFiniteCoefficient):
            rsmp.solve_bsde(poisoned, base, base.control_used)

    def test_lq_argmin_tracks_riccati_feedback_sign(self):
        p = rsmp.make_benchmark("lq1d")
        spec = rsmp.benchmark_lq_spec("lq1d")
        ric = rsmp.lq_riccati_oracle(spec, 1000)
        grid = rsmp.benchmark_grid("lq1d")
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=8)
        N, M = 32, 8000
        res = rsmp.optimize(
            p,
            RelaxedControl(grid, np.full((N, part.n_cells, grid.K), 1.0 / grid.K), rsmp.STATE_FEEDBACK, part),
            rsmp.OptimizeParams(M=M, N=N, max_iters=5, tol=1e-6, seed=7),
        )
        u = res.final_control
        base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=8))
        adj = rsmp.solve_bsde(p, base, u)
        fld = rsmp.hamiltonian_field(adj)
        cand = rsmp.pointwise_argmin(fld)
        atoms = grid.points[:, 0]
        centers = part.centers()[:, 0]
        dt = p.T / N
        checked = 0
        for k in range(0, N, 4):
            gain = ric.gain_at(k * dt)[0, 0]
            for c, xc in enumerate(centers):
                if fld.occupancy[k, c] < M * 0.02:
                    continue  # rarely visited cell: argmin dominated by noise
                target = -gain * xc
                chosen = atoms[int(np.argmax(cand.weights[k, c]))]
                assert abs(chosen - np.clip(target, atoms[0], atoms[-1])) <= 0.13
                checked += 1
        assert checked >= 10


class TestOptimize:
    def test_immediate_convergence_when_tolerance_is_loose(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        u = rsmp.constant_control(grid, 8)
        res = rsmp.optimize(p, u, rsmp.OptimizeParams(M=200, N=8, max_iters=10, tol=1e9, seed=9))
        assert res.status == "converged"
        assert len(res.iterates) == 1
        assert res.final_control is u

    def test_max_iters_records_the_last_accepted_state(self):
        p = rsmp.make_benchmark("lq1d")
        u = rsmp.constant_control(rsmp.benchmark_grid("lq1d"), 8)
        res = rsmp.optimize(p, u, rsmp.OptimizeParams(M=1000, N=8, max_iters=1, tol=0.0, seed=12))
        assert res.status == "max_iters"
        assert len(res.iterates) == 2
        assert res.iterates[0].step_size is not None
        assert res.iterates[-1].step_size is None
        assert res.iterates[-1].control is res.final_control

    def test_last_allowed_evaluation_can_converge(self):
        # the evaluation after the last allowed step is tested against tol too
        p = rsmp.make_benchmark("lq1d")
        u = rsmp.constant_control(rsmp.benchmark_grid("lq1d"), 8)
        res = rsmp.optimize(p, u, rsmp.OptimizeParams(M=1000, N=8, max_iters=2, tol=0.0, seed=12))
        assert res.status == "converged"
        assert len(res.iterates) == 3
        assert res.iterates[-1].smp_gap == 0.0
        assert res.iterates[-1].step_size is None

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            rsmp.OptimizeParams(M=50, N=4, tol=tol)

    def test_cost_sequence_contract(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=8)
        N = 16
        u = RelaxedControl(grid, np.full((N, part.n_cells, grid.K), 1.0 / grid.K),
                           rsmp.STATE_FEEDBACK, part)
        res = rsmp.optimize(p, u, rsmp.OptimizeParams(M=2000, N=N, max_iters=8, tol=1e-6, seed=10))
        for prev, nxt in zip(res.iterates, res.iterates[1:]):
            assert nxt.cost <= prev.cost + 2 * prev.std_error
        assert res.status in ("converged", "stalled", "max_iters")

    def test_result_serializes(self):
        import json

        p = rsmp.make_benchmark("nonconvex-mix")
        grid = rsmp.benchmark_grid("nonconvex-mix")
        u = rsmp.constant_control(grid, 4)
        res = rsmp.optimize(p, u, rsmp.OptimizeParams(M=500, N=4, max_iters=3, tol=1e-6, seed=11))
        doc = json.loads(res.to_json())
        assert doc["status"] == res.status
        assert len(doc["iterates"]) == len(res.iterates)
        restored = RelaxedControl.from_json(json.dumps(doc["final_control"]))
        assert np.array_equal(restored.weights, res.final_control.weights)


class TestRealizeRegular:
    def test_one_hot_becomes_constant(self):
        grid = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        w = np.zeros((4, 1, 2))
        w[:, 0, 1] = 1.0
        u = RelaxedControl(grid, w)
        for R in (1, 2, 5):
            reg = rsmp.realize_regular(u, R)
            assert np.all(reg.values == 1.0)

    def test_half_half_alternates(self):
        grid = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        u = RelaxedControl(grid, np.full((1, 1, 2), 0.5))
        reg = rsmp.realize_regular(u, 2)
        assert reg.values[:, 0, 0].tolist() == [-1.0, 1.0]

    def test_apportionment_error_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            K = int(rng.integers(2, 6))
            w = rng.uniform(0.01, 1.0, K)
            w /= w.sum()
            R = int(rng.integers(1, 33))
            counts = _largest_remainder(w, R)
            assert counts.sum() == R
            assert np.all(np.abs(counts / R - w) <= 1.0 / R + 1e-15)

    def test_refinement_below_one_rejected(self):
        grid = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        u = RelaxedControl(grid, np.full((2, 1, 2), 0.5))
        with pytest.raises(DomainError):
            rsmp.realize_regular(u, 0)

    def test_seeded_shuffle_is_reproducible(self):
        grid = ControlGrid([[-1.0], [0.0], [1.0]], [[-1.0, 1.0]])
        w = np.tile([0.25, 0.5, 0.25], (3, 1, 1))
        u = RelaxedControl(grid, w)
        a = rsmp.realize_regular(u, 8, seed=5)
        b = rsmp.realize_regular(u, 8, seed=5)
        c = rsmp.realize_regular(u, 8, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        # the shuffle preserves the apportionment
        for k in range(3):
            vals, counts = np.unique(a.values[8 * k : 8 * (k + 1), 0, 0], return_counts=True)
            assert dict(zip(vals, counts)) == {-1.0: 2, 0.0: 4, 1.0: 2}
