import dataclasses
import warnings

import numpy as np
import pytest

import rsmp
from rsmp import CellPartition, ControlGrid, DomainError, NonFiniteCoefficient, RelaxedControl
from rsmp.adjoint import SUM_BLOCKS, _cell_sums, _sweep
from rsmp.forward import _mean_and_error
from rsmp.problem import _coefficients, contract_atoms
from rsmp.smp import HamiltonianField, _decrease_clears, _field, _largest_remainder
from conftest import per_path_hamiltonians, plain_twin


def blocked_sums(cells, C, rows):
    """`_cell_sums` of rows on the bins the backward sweep gives M paths in
    cells: each path's cell and block of consecutive paths."""
    M = len(cells)
    return _cell_sums(cells * SUM_BLOCKS + np.arange(M) * SUM_BLOCKS // M, C, rows)


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

    @pytest.mark.parametrize("weights", ["one row", "per path"])
    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq"])
    def test_separable_hamiltonian_is_the_plain_twins_contraction_to_rounding(self, name, weights):
        # a `Separable` averages as state + w . table, so the Hamiltonian of
        # the averages agrees with the contraction of the plain twin's per-atom
        # rows (one cell per path) within 1e-12 of the largest |term|
        p, grid = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 5)
        twin, M, n = plain_twin(p), 40, p.n
        rng = np.random.default_rng(60)
        x, psi, Q = rng.standard_normal((M, n)), rng.standard_normal((M, n)), rng.standard_normal((M, n, p.m))
        phi_row = rng.standard_normal((M, p.jump.J, n)) if p.jump.J else None
        w = rng.dirichlet(np.ones(grid.K), M if weights == "per path" else None)
        ref = contract_atoms(per_path_hamiltonians(twin, grid, 0.3, x, psi, Q, phi_row).T, w)
        got = rsmp.hamiltonian(p, grid, 0.3, x, psi, Q, phi_row, w)
        atoms = [np.stack([f(0.3, x, *extra, xi) for xi in grid.points]) for f, _, extra, _ in _coefficients(twin)]
        terms = [np.einsum("kqi,qi->kq", atoms[0], psi), np.einsum("kqab,qab->kq", atoms[1], Q), atoms[2]]
        terms += [lam * np.einsum("kqi,qi->kq", C, phi_row[:, j])
                  for j, (lam, C) in enumerate(zip(p.jump.intensities, atoms[3:]))]
        assert got.shape == ref.shape == (M,)
        assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(term).max() for term in terms)
        assert not np.array_equal(got, ref)  # the tables were taken

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
        assert np.array_equal(blocked_sums(cells, 1, [direct])[:, 0] / 200, fld.cell_values[k, :, 0])

    @staticmethod
    def seeded_field_inputs(name, mode, plain=False):
        p = plain_twin(rsmp.make_benchmark(name)) if plain else rsmp.make_benchmark(name)
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
        p, grid, base, adj = self.seeded_field_inputs(name, mode, plain=True)
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
                means = blocked_sums(cells, C, [direct])[occupied, 0] / counts[occupied]
                assert np.array_equal(means, fld.cell_values[k, occupied, i])

    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq", "nonconvex-mix"])
    def test_separable_sums_equal_the_per_atom_sums_to_rounding(self, name, mode):
        # a `Separable`'s tables add the same terms in another order: the
        # sums agree with the plain twin's within 1e-12 (about 4500 eps) of
        # the largest of them (nonconvex-mix, all plain, bit for bit); both
        # sweep one base, since a simulate with tables moves the states by
        # rounding too
        _, _, base, adj = self.seeded_field_inputs(name, mode)
        p = plain_twin(base.problem)
        generic_base = dataclasses.replace(base, problem=p)
        generic = rsmp.solve_bsde(p, generic_base, base.control_used)
        assert generic_base.states is base.states
        for key in ("hamiltonian_sums", "pairing_sums"):
            got, ref = getattr(adj, key), getattr(generic, key)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(adj.occupancy, generic.occupancy)

    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq", "nonconvex-mix"])
    def test_optimize_sweep_field_differs_from_the_public_field_by_a_cell_constant(self, name, mode):
        # optimize bins its field in a sweep that keeps no adjoint process,
        # forms no pairing sums and leaves out the terms the same at every
        # atom: per (step, cell) its field is the public one plus one number,
        # to 1e-14 of the largest field value (measured: at most 3.0e-16), so
        # the argmin is the same and the SMP gap agrees to rounding
        p, _, base, adj = self.seeded_field_inputs(name, mode)
        u = base.control_used
        sums, occupancy, kept, _ = _sweep(base, rsmp.BasisSpec(), record=False)
        assert kept == ()
        for arr in (sums, occupancy):
            assert not arr.flags.writeable
        fld, ref = _field(sums, occupancy, u, base.dt), rsmp.hamiltonian_field(adj)
        bound = 1e-14 * np.abs(ref.cell_values).max()
        shift = fld.cell_values - ref.cell_values
        assert np.abs(shift - shift[..., :1]).max() <= bound
        assert np.array_equal(rsmp.pointwise_argmin(fld).weights, rsmp.pointwise_argmin(ref).weights)
        assert abs(rsmp.smp_gap(fld, u)[0] - rsmp.smp_gap(ref, u)[0]) <= bound
        assert np.array_equal(fld.occupancy, ref.occupancy)
        assert fld.control is ref.control and fld.dt == ref.dt

    @pytest.mark.parametrize("runs", ["one run", "a run per cell"])
    @pytest.mark.parametrize(
        "bounds, cells_per_dim",
        [([[-2.0, 2.0]], (16,)), ([[-1.3, 2.1]], (7,)), ([[-2.0, 2.0], [-2.0, 2.0]], (6, 6)),
         ([[-1.3, 2.1], [0.0, 0.7]], (5, 8))],
    )
    def test_empty_cells_take_the_field_of_the_per_cell_loop(self, bounds, cells_per_dim, runs, monkeypatch):
        # random occupancy on 1-D and 2-D cells; regular centers give ties,
        # which go to the lowest occupied index as in the loop
        if runs == "a run per cell":
            monkeypatch.setattr(rsmp.smp, "_DISTANCE_FLOATS", 1)
        part = CellPartition(bounds, cells_per_dim)
        grid = ControlGrid([[-1.0], [0.0], [1.0]], [[-1.0, 1.0]])
        N, C = 12, part.n_cells
        u = RelaxedControl(grid, np.full((N, C, grid.K), 1.0 / grid.K), rsmp.STATE_FEEDBACK, part)
        rng = np.random.default_rng(sum(cells_per_dim))
        occupancy = rng.integers(1, 20, (N, C)) * (rng.uniform(size=(N, C)) < rng.uniform(0.05, 0.9, (N, 1)))
        occupancy[np.arange(N), rng.integers(0, C, N)] += 1  # at least one occupied cell per step
        sums = rng.standard_normal((N, C, grid.K)) * occupancy[..., None]
        centers = part.centers()
        ref = np.zeros(sums.shape)
        for k, counts in enumerate(occupancy):
            occupied = np.flatnonzero(counts > 0)
            ref[k, occupied] = sums[k, occupied] / counts[occupied, None]
            for c in np.flatnonzero(counts == 0):
                d = np.linalg.norm(centers[occupied] - centers[c], axis=1)
                ref[k, c] = ref[k, occupied[int(np.argmin(d))]]
        assert (occupancy == 0).any()
        assert np.array_equal(_field(sums, occupancy, u, 0.1).cell_values, ref)

    def sweep_coefficient_calls(self, name, plain):
        """Calls of b, sigma, ell and C (of each part of a `Separable`, as
        "<key>.state" and "<key>.control") that solve_bsde makes on seeded
        inputs, with the step count and the mark count; the field itself
        evaluates nothing."""
        p, grid, base, _ = self.seeded_field_inputs(name, rsmp.STATE_FEEDBACK, plain)
        calls = {}

        def counted(key, f):
            if isinstance(f, rsmp.Separable):
                return rsmp.Separable(counted(f"{key}.state", f.state), counted(f"{key}.control", f.control))

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
        swept = dict(calls)
        calls.clear()
        fld = rsmp.hamiltonian_field(adj)
        assert calls == {}
        assert fld.cell_values.shape == (base.n_steps, base.control_used.n_cells, grid.K)
        return swept, base.n_steps, p.jump.J

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_field_evaluates_each_coefficient_once_per_step(self, name):
        # the backward sweep evaluates b, sigma and ell once per step, and C
        # once per mark and step, for all atoms at once
        calls, N, J = self.sweep_coefficient_calls(name, plain=True)
        expected = {key: N for key in ("b", "sigma", "ell")}
        if J:
            expected["C"] = J * N
        assert calls == expected

    @pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
    def test_separable_field_evaluates_each_part_once_per_step(self, name):
        # a `Separable`'s sweep evaluates its state part on every path and its
        # control part at every atom, once per step each; sigma is plain
        calls, N, J = self.sweep_coefficient_calls(name, plain=False)
        expected = {f"{key}.{part}": N for key in ("b", "ell") for part in ("state", "control")}
        expected["sigma"] = N
        if J:
            expected.update({"C.state": J * N, "C.control": J * N})
        assert calls == expected

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

    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK])
    def test_a_control_that_enters_no_coefficient_converges_at_iteration_0(self, mode, monkeypatch):
        # every coefficient is evaluated once for all atoms: optimize's sweep
        # bins no row, so its field is zero and the gap exactly 0
        p = rsmp.Problem(
            n=1, m=1, d=1, T=1.0, x0=[0.5], b=lambda t, x, xi: -x,
            sigma=lambda t, x, xi: np.full(np.shape(x)[:-1] + (1, 1), 0.3),
            ell=lambda t, x, xi: x[..., 0] ** 2, phi=lambda x: x[..., 0] ** 2, control_box=[[-1.0, 1.0]],
        )
        grid = ControlGrid([[-1.0], [0.0], [1.0]], [[-1.0, 1.0]])
        part = None if mode == rsmp.OPEN_LOOP else CellPartition([[-2.0, 2.0]], (4,))
        u = RelaxedControl(grid, np.full((8, 1 if part is None else 4, 3), 1 / 3), mode, part)
        binned = []

        def counted(bins, C, rows):
            binned.append(len(rows))
            return _cell_sums(bins, C, rows)

        monkeypatch.setattr(rsmp.adjoint, "_cell_sums", counted)
        res = rsmp.optimize(p, u, rsmp.OptimizeParams(M=200, N=8, tol=0.0, seed=9))
        assert res.status == "converged" and len(res.iterates) == 1 and res.iterates[0].smp_gap == 0.0
        assert binned == [0] * 8

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

    def test_costs_near_the_float_limit_converge_or_raise(self, scaled_cost_lq1d):
        # the squares of these finite costs overflow in the iterate and
        # line-search statistics: an Inf standard error must not stall the run
        p = scaled_cost_lq1d.problem(1e300)
        try:
            res = rsmp.optimize(p, scaled_cost_lq1d.u, rsmp.OptimizeParams(M=400, N=8, seed=3, tol=1e-3 * 1e300))
        except NonFiniteCoefficient:
            return
        assert res.status == "converged"
        assert all(np.isfinite(rec.std_error) and rec.std_error > 0 for rec in res.iterates)

    @pytest.mark.parametrize("scale", [1e306, 1e308])
    def test_costs_at_the_float_limit_converge_or_raise_a_typed_error(self, scaled_cost_lq1d, scale):
        # the backward targets' products overflow at 1e306 and the targets
        # themselves at 1e308: the fit is retried on scaled targets, and what
        # stays Inf raises NonFiniteCoefficient, never a numpy warning or a
        # SingularRegression of a well-conditioned design
        p = scaled_cost_lq1d.problem(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                res = rsmp.optimize(p, scaled_cost_lq1d.u, rsmp.OptimizeParams(M=400, N=8, seed=3, tol=1e-3 * scale))
            except NonFiniteCoefficient:
                return
        assert res.status == "converged"
        assert all(np.isfinite(rec.std_error) and rec.std_error > 0 for rec in res.iterates)

    @pytest.mark.parametrize("start", ["uniform", "dirac"])
    def test_nan_drift_at_one_atom_names_the_drift(self, start):
        # a uniform start meets the NaN in simulate; a Dirac start simulates
        # only atom 2 and meets it in the sweep, whose NaN cell sums are
        # checked term by term again
        base = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)

        def b(t, x, xi):
            return np.where(np.asarray(xi) == grid.points[0], np.nan, base.b(t, x, xi))

        p = dataclasses.replace(base, b=b)
        u = rsmp.constant_control(grid, 8, None if start == "uniform" else np.eye(grid.K)[2])
        with pytest.raises(NonFiniteCoefficient, match="^drift produced NaN/Inf$"):
            rsmp.optimize(p, u, rsmp.OptimizeParams(M=500, N=8, seed=3))

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


# single-path cost decreases (M, path, a); the first is the trial of the
# pinned lq1d feedback runs (M = 1500, N = 8, seed 3) whose gain read
# 8.5e-22 below its standard error
SINGLE_PATH_DECREASES = [(1500, 1006, float.fromhex("0x1.68b2e7aaa3080p-7"))] + [
    (M, at, a)
    for M in (2, 3, 7, 1500, 8193)
    for at in sorted({0, M // 2, M - 1})
    for a in (0.011007655256684012, 1.0, 3e-7, 2.5e5)
]


class TestLineSearchTie:
    """A trial that lowers one path's cost by a > 0, and no other, has gain
    and standard error both a / M in exact arithmetic: the line search
    accepts that tie on every stack, whatever the rounding of either side."""

    @staticmethod
    def difference(M, at, a):
        out = np.zeros(M)
        out[at] = a
        return out

    @pytest.mark.parametrize("M, at, a", SINGLE_PATH_DECREASES)
    def test_a_single_path_decrease_is_accepted(self, M, at, a):
        assert _decrease_clears(self.difference(M, at, a))
        assert not _decrease_clears(self.difference(M, at, -a))

    def test_rounding_alone_would_split_the_ties(self):
        # the strict comparison gain >= se rejects some of these ties (on
        # numpy 2.4, x86_64, 25 of the 57, the measured one among them)
        strict = [gain >= se for gain, se in (_mean_and_error(self.difference(*case), "") for case in SINGLE_PATH_DECREASES)]
        assert any(strict) and not all(strict)

    def test_a_decrease_below_one_standard_error_is_rejected(self):
        difference = self.difference(1500, 3, 1.0)
        difference[4] = -0.5
        assert not _decrease_clears(difference)
        assert _decrease_clears(np.zeros(10))  # equal costs clear a zero standard error


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
