import json

import numpy as np
import pytest

import rsmp
from rsmp import (
    CellPartition,
    ControlGrid,
    DomainError,
    MissingPaths,
    RegularControl,
    RelaxedControl,
    ShapeMismatch,
    ValueOffGrid,
    dirac_embed,
    mix,
    pair,
    validate,
)


def grid3():
    return ControlGrid([[-1.0], [0.5], [1.0]], [[-1.0, 1.0]])


def random_open_loop(grid, N, rng):
    w = rng.uniform(0.05, 1.0, (N, 1, grid.K))
    w /= w.sum(axis=-1, keepdims=True)
    return RelaxedControl(grid, w)


class TestControlGrid:
    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError):
            ControlGrid([[0.0], [0.0]], [[-1.0, 1.0]])

    def test_points_outside_box_rejected(self):
        with pytest.raises(DomainError):
            ControlGrid([[2.0]], [[-1.0, 1.0]])

    @pytest.mark.parametrize("points, box", [
        ([[np.nan], [0.0]], [[-1.0, 1.0]]),
        ([[np.inf], [0.0]], [[-1.0, np.inf]]),
        ([[0.5], [0.0]], [[np.nan, 1.0]]),
        ([[0.5], [0.0]], [[-np.inf, 1.0]]),
    ])
    def test_non_finite_points_or_box_rejected(self, points, box):
        with pytest.raises(DomainError, match="finite"):
            ControlGrid(points, box)

    def test_snap_off_grid(self):
        with pytest.raises(ValueOffGrid):
            grid3().snap(np.array([[0.3]]))


class TestDiracEmbed:
    def test_constant_control_is_one_hot(self):
        g = grid3()
        u = RegularControl(np.full((8, 1, 1), 0.5), g.box)
        relaxed = dirac_embed(u, g)
        assert np.array_equal(relaxed.weights[:, 0], np.tile([0.0, 1.0, 0.0], (8, 1)))

    def test_pair_reproduces_point_evaluation(self):
        # phi(t, xi) = xi^2 with u == 0.5 integrates to 0.25 * T
        g = grid3()
        u = RegularControl(np.full((16, 1, 1), 0.5), g.box)
        relaxed = dirac_embed(u, g)
        val = pair(lambda t, xi: xi[0] ** 2, relaxed, horizon=1.0)
        assert val == pytest.approx(0.25, abs=1e-14)

    def test_piecewise_switch(self):
        g = grid3()
        N = 8
        vals = np.full((N, 1, 1), -1.0)
        vals[N // 2 :] = 1.0
        relaxed = dirac_embed(RegularControl(vals, g.box), g)
        assert np.array_equal(relaxed.weights[: N // 2, 0], np.tile([1.0, 0.0, 0.0], (N // 2, 1)))
        assert np.array_equal(relaxed.weights[N // 2 :, 0], np.tile([0.0, 0.0, 1.0], (N // 2, 1)))

    def test_off_grid_value_raises(self):
        g = grid3()
        u = RegularControl(np.full((4, 1, 1), 0.3), g.box)
        with pytest.raises(ValueOffGrid):
            dirac_embed(u, g)

    def test_embed_then_pair_matches_direct_sum(self):
        g = grid3()
        rng = np.random.default_rng(0)
        idx = rng.integers(0, g.K, size=12)
        u = RegularControl(g.points[idx][:, None, :], g.box)
        relaxed = dirac_embed(u, g)
        T = 2.0
        dt = T / 12

        def phi(t, xi):
            return np.sin(3 * t) + xi[0] ** 3

        direct = sum(dt * phi(k * dt, g.points[idx[k]]) for k in range(12))
        assert abs(pair(phi, relaxed, horizon=T) - direct) <= 1e-12


class TestMix:
    def test_identity_cases(self):
        g = grid3()
        rng = np.random.default_rng(1)
        a = random_open_loop(g, 6, rng)
        b = random_open_loop(g, 6, rng)
        assert np.array_equal(mix(a, b, 0.0).weights, a.weights)
        assert np.array_equal(mix(a, b, 1.0).weights, b.weights)

    def test_quarter_mix(self):
        g = ControlGrid([[0.0], [1.0]], [[0.0, 1.0]])
        a = RelaxedControl(g, np.array([[[1.0, 0.0]]]))
        b = RelaxedControl(g, np.array([[[0.0, 1.0]]]))
        assert np.allclose(mix(a, b, 0.25).weights[0, 0], [0.75, 0.25], atol=0)

    def test_eps_out_of_range(self):
        g = grid3()
        rng = np.random.default_rng(2)
        a = random_open_loop(g, 4, rng)
        with pytest.raises(DomainError):
            mix(a, a, 1.5)

    def test_structure_mismatch(self):
        g = grid3()
        rng = np.random.default_rng(3)
        a = random_open_loop(g, 4, rng)
        b = random_open_loop(g, 5, rng)
        with pytest.raises(ShapeMismatch):
            mix(a, b, 0.5)

    def test_partition_mismatch(self):
        # two lq1d state-feedback controls, 4 cells each, binned on [-1, 1]
        # and on [-3, 3]: same shapes, different cells
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d")
        N, K = 6, grid.K
        w = np.full((N, 4, K), 1.0 / K)
        a = RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, CellPartition([[-1.0, 1.0]], (4,)))
        b = RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, CellPartition([[-3.0, 3.0]], (4,)))
        assert not a.same_structure(b) and not b.same_structure(a)
        assert a.same_structure(RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, CellPartition([[-1.0, 1.0]], (4,))))
        with pytest.raises(ShapeMismatch):
            mix(a, b, 0.5)
        base = rsmp.simulate(p, a, rsmp.sample_noise(p, 200, N, seed=5))
        with pytest.raises(ShapeMismatch):
            rsmp.simulate_variational(p, base, b, a)
        adj = rsmp.solve_bsde(p, base, a)
        with pytest.raises(ShapeMismatch):
            rsmp.adjoint_pairing(p, base, a, b, adj)

    def test_mix_is_exact_convex_combination(self):
        g = grid3()
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_open_loop(g, 5, rng)
            b = random_open_loop(g, 5, rng)
            eps = float(rng.uniform())
            got = mix(a, b, eps).weights
            assert np.array_equal(got, (1 - eps) * a.weights + eps * b.weights)


class TestPair:
    def test_constant_test_function_gives_horizon(self):
        g = grid3()
        rng = np.random.default_rng(5)
        u = random_open_loop(g, 10, rng)
        assert pair(lambda t, xi: 1.0, u, horizon=3.0) == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_uniform_pairs_to_zero(self):
        g = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        u = rsmp.constant_control(g, 8)
        assert pair(lambda t, xi: xi[0], u, horizon=1.0) == pytest.approx(0.0, abs=1e-14)

    def test_switching_one_hot_pairs_to_zero(self):
        # +1 for t < T/2 and -1 after: the two half-intervals cancel
        g = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        N = 10
        w = np.zeros((N, 1, 2))
        w[: N // 2, 0, 1] = 1.0
        w[N // 2 :, 0, 0] = 1.0
        u = RelaxedControl(g, w)
        assert pair(lambda t, xi: xi[0], u, horizon=1.0) == pytest.approx(0.0, abs=1e-14)

    def test_feedback_without_paths_raises(self):
        g = grid3()
        part = CellPartition([[-1.0, 1.0]], (2,))
        w = np.full((4, 2, 3), 1.0 / 3)
        u = RelaxedControl(g, w, rsmp.STATE_FEEDBACK, part)
        with pytest.raises(MissingPaths):
            pair(lambda t, xi: 1.0, u)

    def test_feedback_pairing_averages_over_paths(self):
        p = rsmp.make_benchmark("lq1d")
        g = rsmp.benchmark_grid("lq1d", 3)
        part = CellPartition([[-2.0, 2.0]], (2,))
        N = 4
        # cell 0 (x < 0) puts mass on the first atom, cell 1 on the last
        w = np.zeros((N, 2, 3))
        w[:, 0, 0] = 1.0
        w[:, 1, 2] = 1.0
        u = RelaxedControl(g, w, rsmp.STATE_FEEDBACK, part)
        paths = rsmp.simulate(p, u, rsmp.sample_noise(p, 300, N, seed=33))
        got = pair(lambda t, xi: xi[0], u, paths=paths)
        dt = p.T / N
        atoms = g.points[:, 0]
        expected = sum(
            dt * np.where(paths.states[:, k, 0] < 0.0, atoms[0], atoms[-1]).mean()
            for k in range(N)
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_pair_linear_in_control(self):
        g = grid3()
        rng = np.random.default_rng(6)

        def phi(t, xi):
            return np.cos(t) * xi[0] + xi[0] ** 2

        for _ in range(20):
            a = random_open_loop(g, 7, rng)
            b = random_open_loop(g, 7, rng)
            eps = float(rng.uniform())
            lhs = pair(phi, mix(a, b, eps), horizon=1.5)
            rhs = (1 - eps) * pair(phi, a, horizon=1.5) + eps * pair(phi, b, horizon=1.5)
            assert abs(lhs - rhs) <= 1e-12


class TestValidate:
    def test_valid_control_empty_report(self):
        g = grid3()
        u = rsmp.constant_control(g, 5)
        assert validate(u).ok

    def test_normalization_violation_reported(self):
        report = validate(np.array([[0.5, 0.6]]))
        kinds = {(v.kind, round(v.magnitude, 12)) for v in report.violations}
        assert ("normalization", 0.1) in kinds

    def test_negative_weight_reported(self):
        report = validate(np.array([[-0.1, 1.1]]))
        assert any(v.kind == "negative" and v.cell == 0 for v in report.violations)
        assert any(v.kind == "negative" and abs(v.magnitude - 0.1) < 1e-12 for v in report.violations)

    def test_constructor_enforces_simplex(self):
        g = ControlGrid([[0.0], [1.0]], [[0.0, 1.0]])
        with pytest.raises(DomainError):
            RelaxedControl(g, np.array([[[0.5, 0.6]]]))


class TestSerialization:
    def test_open_loop_round_trip_bit_exact(self):
        g = grid3()
        rng = np.random.default_rng(7)
        u = random_open_loop(g, 9, rng)
        again = RelaxedControl.from_json(u.to_json())
        assert np.array_equal(again.weights, u.weights)
        assert np.array_equal(again.grid.points, u.grid.points)
        assert again.to_json() == u.to_json()

    def test_feedback_round_trip_bit_exact(self):
        g = grid3()
        part = CellPartition([[-2.0, 2.0]], (4,))
        rng = np.random.default_rng(8)
        w = rng.uniform(0.1, 1.0, (6, 4, 3))
        w /= w.sum(axis=-1, keepdims=True)
        u = RelaxedControl(g, w, rsmp.STATE_FEEDBACK, part)
        again = RelaxedControl.from_json(u.to_json())
        assert np.array_equal(again.weights, u.weights)
        assert again.feedback.cells_per_dim == part.cells_per_dim
        assert json.loads(u.to_json())["mode"] == rsmp.STATE_FEEDBACK

    def test_regular_control_round_trip(self):
        g = grid3()
        vals = np.array([[[0.5]], [[-1.0]], [[1.0]]])
        u = RegularControl(vals, g.box)
        again = RegularControl.from_json(u.to_json())
        assert np.array_equal(again.values, u.values)

    @pytest.mark.parametrize("cls, drop", [(RelaxedControl, "grid"), (RelaxedControl, "weights"),
                                           (RegularControl, "values"), (RegularControl, "mode")])
    def test_missing_key_is_domain_error(self, cls, drop):
        g = grid3()
        if cls is RelaxedControl:
            u = rsmp.constant_control(g, 4)
        else:
            u = RegularControl(np.array([[[0.5]], [[-1.0]]]), g.box)
        doc = json.loads(u.to_json())
        del doc[drop]
        with pytest.raises(DomainError, match=drop):
            cls.from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_regular_values_or_box_rejected(self, bad):
        box = np.array([[-1.0, 1.0]])
        with pytest.raises(DomainError, match="finite"):
            RegularControl(np.array([[[bad]], [[0.5]]]), box)
        with pytest.raises(DomainError, match="finite"):
            RegularControl(np.array([[[0.5]]]), np.array([[bad, 1.0]]))
        doc = json.loads(RegularControl(np.array([[[0.5]]]), box).to_json())
        doc["values"][0][0][0] = bad
        with pytest.raises(DomainError, match="finite"):
            RegularControl.from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_relaxed_json_rejected(self, bad):
        # a NaN weight passes both simplex comparisons
        doc = json.loads(rsmp.constant_control(grid3(), 2).to_json())
        for path in (("grid", "points", 0, 0), ("grid", "box", 0, 1), ("weights", 1, 0, 2)):
            edited = json.loads(json.dumps(doc))
            node = edited
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad
            with pytest.raises(DomainError, match="finite"):
                RelaxedControl.from_json(json.dumps(edited))

    @pytest.mark.parametrize("cls", [RelaxedControl, RegularControl])
    @pytest.mark.parametrize("text", ["not json", "", "[1, 2]", '{"grid": 3, "values": 3}'])
    def test_malformed_text_is_domain_error(self, cls, text):
        with pytest.raises(DomainError):
            cls.from_json(text)


class TestRefineSteps:
    def test_weights_repeat(self):
        g = grid3()
        rng = np.random.default_rng(9)
        u = random_open_loop(g, 3, rng)
        fine = rsmp.refine_steps(u, 4)
        assert fine.time_steps == 12
        assert np.array_equal(fine.weights[4:8], np.repeat(u.weights[1:2], 4, axis=0))


class TestCellPartition:
    def test_assign_clamps_and_ravels(self):
        part = CellPartition([[0.0, 1.0], [0.0, 1.0]], (2, 2))
        pts = np.array([[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [5.0, 5.0]])
        assert part.assign(pts).tolist() == [0, 2, 1, 3]

    @pytest.mark.parametrize("cells", [4, 16])
    def test_signal_beyond_the_integer_range_takes_the_edge_bin(self, cells):
        # 1e300 cast to int used to land in cell 0 with a RuntimeWarning (an
        # error in this suite); 1.7e308 / width 0.25 overflows to Inf
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=cells)
        signal = np.array([[1e300], [-1e300], [2.5], [1.7e308], [-1.7e308]])
        assert part.assign(signal).tolist() == [cells - 1, 0, cells - 1, cells - 1, 0]
        both = CellPartition([[-2.0, 2.0], [0.0, 1.0]], (cells, 2))
        assert both.assign(np.array([[1e300, -1e300], [-1e300, 1e300]])).tolist() == [2 * cells - 2, 1]

    def test_non_finite_signal_rejected(self):
        part = CellPartition([[0.0, 1.0]], (4,))
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                part.assign(np.array([[0.5], [bad]]))

    @pytest.mark.parametrize("dim, signal", [
        (1, np.array([[0.1, 0.9], [0.9, 0.1]])),
        (1, np.zeros((4, 1, 2))),
        (2, np.zeros((4, 1))),
        (2, np.zeros(3)),
    ])
    def test_signal_of_another_width_is_shape_mismatch(self, dim, signal):
        part = CellPartition([[0.0, 1.0]] * dim, (2,) * dim)
        with pytest.raises(ShapeMismatch):
            part.assign(signal)

    @pytest.mark.parametrize("bounds, cells", [
        ([[np.nan, 1.0]], (4,)),
        ([[-1.0, np.inf]], (4,)),
        ([[-np.inf, 1.0]], (4,)),
        ([[-1.0, 1.0]], (np.inf,)),
    ])
    def test_non_finite_bounds_or_cells_rejected(self, bounds, cells):
        # NaN passes lo < hi and would bin every signal into cell 0
        with pytest.raises(DomainError, match="finite"):
            CellPartition(bounds, cells)

    def test_centers_shape(self):
        part = CellPartition([[0.0, 1.0]], (4,))
        assert part.centers().shape == (4, 1)
        assert np.allclose(part.centers()[:, 0], [0.125, 0.375, 0.625, 0.875])


class TestInformationStructure:
    """Relaxed and regular controls share one check of the feedback mode,
    the partition and the cell axis."""

    def regular(self, mode=rsmp.OPEN_LOOP, part=None, cells=1, box=((-1.0, 1.0),)):
        return RegularControl(np.zeros((3, cells, 1)), np.array(box), mode, part)

    def test_regular_unknown_mode_is_domain_error(self):
        part = CellPartition([[-1.0, 1.0]], (2,))
        with pytest.raises(DomainError, match="bogus"):
            self.regular("bogus", part, cells=2)

    def test_regular_unknown_mode_from_json_is_domain_error(self):
        doc = json.loads(self.regular().to_json())
        doc["mode"] = "bogus"
        with pytest.raises(DomainError, match="bogus"):
            RegularControl.from_json(json.dumps(doc))

    @pytest.mark.parametrize("box", [[[-1.0, 1.0], [-1.0, 1.0]], [[-1.0, 0.0, 1.0]], [-1.0]])
    def test_regular_box_not_d_by_2_is_shape_mismatch(self, box):
        with pytest.raises(ShapeMismatch):
            self.regular(box=box)

    @pytest.mark.parametrize("cls", [RelaxedControl, RegularControl])
    @pytest.mark.parametrize("mode, part, cells", [
        (rsmp.OPEN_LOOP, None, 2),
        (rsmp.OPEN_LOOP, CellPartition([[-1.0, 1.0]], (2,)), 2),
        (rsmp.STATE_FEEDBACK, None, 1),
        (rsmp.STATE_FEEDBACK, CellPartition([[-1.0, 1.0]], (2,)), 3),
        (rsmp.OBSERVATION_FEEDBACK, [[-1.0, 1.0]], 1),
    ])
    def test_both_kinds_reject_the_same_structures(self, cls, mode, part, cells):
        with pytest.raises(ShapeMismatch):
            if cls is RelaxedControl:
                RelaxedControl(grid3(), np.full((3, cells, 3), 1.0 / 3), mode, part)
            else:
                self.regular(mode, part, cells)

    def test_partition_json_is_shared(self):
        part = CellPartition([[-2.0, 2.0]], (4,))
        relaxed = RelaxedControl(grid3(), np.full((2, 4, 3), 1.0 / 3), rsmp.STATE_FEEDBACK, part)
        regular = rsmp.realize_regular(relaxed, 2)
        assert json.loads(relaxed.to_json())["feedback"] == json.loads(regular.to_json())["feedback"]
        assert RegularControl.from_json(regular.to_json()).feedback.matches(part)
