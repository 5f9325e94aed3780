import dataclasses
import re

import numpy as np
import pytest

import rsmp
from rsmp import ControlGrid, DomainError, JumpSpec, NonFiniteCoefficient, Problem, Separable, ShapeMismatch
from rsmp.forward import _feedback_signal
from rsmp.problem import _atom_view, _coefficients, _hamiltonian_rows, averaged_coefficients, averaged_diffusion
from rsmp.problem import averaged_drift, averaged_drift_x, averaged_linearization, cell_hamiltonians, contract_atoms
from rsmp.problem import CellWeights, fd_gradient
from conftest import per_path_hamiltonians, plain_twin


def stacked(f, grid, t, x, extra=()):
    """f at every atom of the grid by one call per atom, stacked atom-leading."""
    return np.stack([np.asarray(f(t, x, *extra, xi), dtype=float) for xi in grid.points])


def atom_rows(p, grid, t, x, psi, Q, phi_row, pairing=True, checked=True):
    """The pathwise Hamiltonian at every atom (K, M) and the same sum
    without the running cost (None without pairing): `_hamiltonian_rows` on
    every coefficient's `_atom_view` values, a `Separable` as its sum, each
    sum of one row broadcast to K."""
    values = (_atom_view(f, grid, t, x, tail, extra, what) for f, tail, extra, what in _coefficients(p))
    rows = _hamiltonian_rows(p, values, psi, Q, phi_row, pairing, checked)
    return tuple(None if r is None else np.broadcast_to(r, (grid.K, len(x))) for r in rows)


def linear_problem(A, B):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, d = A.shape[0], B.shape[1]

    def b(t, x, xi):
        return np.asarray(x) @ A.T + np.asarray(xi) @ B.T

    def sigma(t, x, xi):
        return np.full(np.shape(x)[:-1] + (n, 1), 0.3)

    def ell(t, x, xi):
        x = np.asarray(x)
        return np.einsum("...i,...i->...", x, x)

    def phi(x):
        x = np.asarray(x)
        return np.einsum("...i,...i->...", x, x)

    return Problem(n=n, m=1, d=d, T=1.0, x0=np.zeros(n), b=b, sigma=sigma, ell=ell, phi=phi,
                   control_box=[[-1.0, 1.0]] * d)


class TestAveraged:
    def setup_method(self):
        self.grid = ControlGrid([[0.0], [1.0]], [[0.0, 1.0]])

        def b(t, x, xi):
            return np.asarray(x) + np.asarray(xi)

        def sigma(t, x, xi):
            return np.ones(np.shape(x)[:-1] + (1, 1))

        def ell(t, x, xi):
            return np.zeros(np.shape(x)[:-1])

        def phi(x):
            return np.zeros(np.shape(x)[:-1])

        self.p = Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.0]), b=b, sigma=sigma, ell=ell,
                         phi=phi, control_box=[[0.0, 1.0]])

    def test_one_hot_recovers_point_value(self):
        x = np.array([[2.0], [3.0]])
        out = averaged_drift(self.p, self.grid, 0.0, x, np.array([0.0, 1.0]))
        assert np.allclose(out, x + 1.0, atol=0)

    def test_symmetric_average_cancels(self):
        g = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])

        def b(t, x, xi):
            return np.broadcast_to(xi, np.broadcast_shapes(np.shape(xi), np.shape(x)))

        p = Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.0]), b=b, sigma=self.p.sigma,
                    ell=self.p.ell, phi=self.p.phi, control_box=[[-1.0, 1.0]])
        out = averaged_drift(p, g, 0.0, np.array([[5.0]]), np.array([0.5, 0.5]))
        assert np.allclose(out, 0.0, atol=0)

    def test_weighted_average(self):
        x = np.array([[4.0]])
        out = averaged_drift(self.p, self.grid, 0.0, x, np.array([0.3, 0.7]))
        assert out[0, 0] == pytest.approx(4.7, abs=1e-15)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 1))
        for _ in range(25):
            w1 = rng.uniform(0.01, 1, 2)
            w1 /= w1.sum()
            w2 = rng.uniform(0.01, 1, 2)
            w2 /= w2.sum()
            eps = float(rng.uniform())
            mixed = averaged_drift(self.p, self.grid, 0.0, x, (1 - eps) * w1 + eps * w2)
            parts = (1 - eps) * averaged_drift(self.p, self.grid, 0.0, x, w1) \
                + eps * averaged_drift(self.p, self.grid, 0.0, x, w2)
            assert np.abs(mixed - parts).max() <= 1e-12

    def test_non_finite_coefficient_raises(self):
        def bad_b(t, x, xi):
            return np.full(np.shape(x), np.nan)

        p = Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.0]), b=bad_b, sigma=self.p.sigma,
                    ell=self.p.ell, phi=self.p.phi, control_box=[[0.0, 1.0]])
        with pytest.raises(NonFiniteCoefficient):
            averaged_drift(p, self.grid, 0.0, np.array([[1.0]]), np.array([1.0, 0.0]))

    def test_atom_view_stacks_atoms_leading(self):
        x = np.array([[2.0], [3.0], [-1.0]])
        vals = _atom_view(self.p.b, self.grid, 0.0, x, (1,))
        assert vals.shape == (2, 3, 1)
        assert np.array_equal(vals[1], x + 1.0)

    def test_contraction_matches_loop_over_atoms(self):
        p = rsmp.make_benchmark("lq2d")
        grid = rsmp.benchmark_grid("lq2d", 5)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 2))
        w_path = rng.uniform(0.01, 1, (30, grid.K))
        w_path /= w_path.sum(axis=1, keepdims=True)
        for w in (w_path[0], w_path):
            got = averaged_drift(p, grid, 0.2, x, w)
            terms = [w[..., i].reshape(w.shape[:-1] + (1,)) * p.b(0.2, x, grid.points[i]) for i in range(grid.K)]
            ref = sum(terms[1:], terms[0])
            scale = sum(np.abs(t) for t in terms)
            assert got.shape == ref.shape == (30, 2)
            assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)


def atom_coefficients(p):
    """(name, callable, per-path trailing shape, extra) for every coefficient
    and gradient that `_atom_view` evaluates on a grid: C and C_x once per mark."""
    n, m = p.n, p.m
    tails = {"b": (n,), "sigma": (n, m), "ell": (), "b_x": (n, n), "sigma_x": (n, m, n), "ell_x": (n,)}
    out = [(key, getattr(p, key), tail, ()) for key, tail in tails.items()]
    if p.jump is not None:
        for v in p.jump.marks:
            out += [("C", p.jump.C, (n,), (v,)), ("C_x", p.jump.C_x, (n, n), (v,))]
    return out


class TestBroadcastContract:
    """`_atom_view` makes one broadcast call; its result, broadcast to (K, M,
    ...), is the K per-atom calls stacked, bit for bit."""

    @pytest.mark.parametrize("name", rsmp.BENCHMARK_NAMES)
    def test_one_call_equals_stacked_point_calls(self, name):
        # and the same call expecting another trailing shape is refused
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        x = np.random.default_rng(31).standard_normal((40, p.n))
        for key, f, tail, extra in atom_coefficients(p):
            got = _atom_view(f, grid, 0.3, x, tail, extra, what=key)
            ref = stacked(f, grid, 0.3, x, extra)
            # the smallest exact form: (1 or K, 1 or M, *tail), contiguous unless one path
            assert got.shape[0] in (1, grid.K) and got.shape[1:] in ((1,) + tail, (40,) + tail), key
            assert got.flags.c_contiguous or got.shape[1] == 1, key
            assert np.array_equal(np.broadcast_to(got, ref.shape), ref), key
            wrong = re.escape(f"{key} has shape {(40,) + tail}, expected {(40,) + tail + (1,)}")
            with pytest.raises(ShapeMismatch, match=f"^{wrong}$"):
                _atom_view(f, grid, 0.3, x, tail + (1,), extra, what=key)

    def test_one_call_for_all_atoms(self):
        p = rsmp.make_benchmark("jump-lq")
        grid = rsmp.benchmark_grid("jump-lq", 9)
        calls = []

        def counted(t, x, v, xi):
            calls.append((np.shape(x), np.shape(xi)))
            return p.jump.C(t, x, v, xi)

        vals = _atom_view(counted, grid, 0.0, np.zeros((7, 1)), (1,), (p.jump.marks[0],))
        assert vals.shape == (9, 7, 1)
        assert calls == [((1, 7, 1), (9, 1, 1))]

    def test_per_atom_callable_is_shape_mismatch(self):
        # the pre-broadcast idiom: xi of one atom stretched to the shape of x
        def b(t, x, xi):
            return np.broadcast_to(xi, np.shape(x))

        grid = ControlGrid([[-1.0], [0.0], [1.0]], [[-1.0, 1.0]])
        with pytest.raises(ShapeMismatch, match="drift does not broadcast over the 3 grid atoms") as exc:
            _atom_view(b, grid, 0.0, np.zeros((4, 1)), (1,), what="drift")
        assert "x (..., n) and xi (..., d)" in str(exc.value)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_wrong_result_shape_is_shape_mismatch(self):
        # flattened to one path axis: (K * M, n) instead of (K, M, n)
        def b(t, x, xi):
            return (np.asarray(x) + xi).reshape(-1, 1)

        grid = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        with pytest.raises(ShapeMismatch, match="drift does not broadcast") as exc:
            _atom_view(b, grid, 0.0, np.zeros((4, 1)), (1,), what="drift")
        assert isinstance(exc.value.__cause__, ValueError)

    def test_full_result_is_returned_without_a_copy(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)
        x = np.random.default_rng(33).standard_normal((6, 1))
        results = []

        def b(t, x, xi):
            results.append(p.b(t, x, xi))
            return results[-1]

        vals = _atom_view(b, grid, 0.0, x, (1,))
        assert vals.shape == (5, 6, 1) and vals.flags.c_contiguous
        assert np.shares_memory(vals, results[0])

    def test_path_broadcast_result_is_a_view_of_one_path(self):
        # lq1d's diffusion is constant: one (1, M, 1, 1) broadcast for all atoms
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)
        results = []

        def sigma(t, x, xi):
            results.append(p.sigma(t, x, xi))
            return results[-1]

        vals = _atom_view(sigma, grid, 0.0, np.zeros((6, 1)), (1, 1))
        assert results[0].shape == (1, 6, 1, 1)
        assert vals.shape == (1, 1, 1, 1)
        assert np.shares_memory(vals, results[0])
        assert np.array_equal(np.broadcast_to(vals, (5, 6, 1, 1)), np.broadcast_to(results[0], (5, 6, 1, 1)))


class TestControlFreeCoefficients:
    """A coefficient whose result has length 1 on the atom axis does not
    depend on the control and is evaluated once for all atoms: its relaxed
    average is that value under a control's weights (total mass 1) and zero
    under a direction's (total mass 0), and its Hamiltonian term one row
    added to every atom.  Both equal the contraction of the
    (K, M, ...) tensor of the stacked per-atom calls, within rounding."""

    M = 50
    # the coefficients of each benchmark that do not depend on the control
    CONTROL_FREE = {
        "lq1d": {"sigma", "b_x", "sigma_x", "ell_x"},
        "lq2d": {"sigma", "b_x", "sigma_x", "ell_x"},
        "jump-lq": {"sigma", "b_x", "sigma_x", "ell_x", "C_x"},
        "nonconvex-mix": {"sigma", "ell", "b_x", "sigma_x", "ell_x"},
    }
    RTOL = 1e-14

    def case(self, name):
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        x = np.random.default_rng(37).standard_normal((self.M, p.n))
        return p, grid, x

    @pytest.mark.parametrize("name", sorted(CONTROL_FREE))
    def test_atom_axis_is_read_off_the_result(self, name):
        # nonconvex-mix's running cost is (1, M): no trailing axis after the atom axis
        p, grid, x = self.case(name)
        for key, f, tail, extra in atom_coefficients(p):
            vals = _atom_view(f, grid, 0.3, x, tail, extra, what=key)
            atoms = 1 if key in self.CONTROL_FREE[name] else grid.K
            assert vals.shape[0] == atoms and vals.shape[2:] == tail, key
            assert vals.shape[1] == 1 or (vals.shape[1] == self.M and vals.flags.c_contiguous), key
            ref = stacked(f, grid, 0.3, x, extra)
            assert np.array_equal(np.broadcast_to(vals, (grid.K, self.M) + tail), ref), key

    def test_result_without_an_atom_axis(self):
        # a scalar running cost broadcasts over atoms and paths alike
        p, grid, x = self.case("lq1d")
        p = dataclasses.replace(p, ell=lambda t, x, xi: 0.5)
        assert _atom_view(p.ell, grid, 0.0, x, ()).shape == (1, 1)
        w = np.random.default_rng(38).dirichlet(np.ones(grid.K), (2, self.M))
        for weights, mass, value in ((w[0], 1.0, 0.5), (w[0] - w[1], 0.0, 0.0)):
            got = averaged_coefficients(p, grid, 0.0, x, weights, mass)[2]
            assert got.shape == (self.M,) and got.strides == (0,) and not got.flags.writeable
            assert np.array_equal(got, np.full(self.M, value))

    WEIGHTS = ["open-loop", "per-path", "per-path-difference"]

    @pytest.mark.parametrize("weights", WEIGHTS)
    @pytest.mark.parametrize("name", sorted(CONTROL_FREE))
    def test_averages_match_the_contracted_atom_tensor(self, name, weights):
        p, grid, x = self.case(name)
        rng = np.random.default_rng(39)
        rows = rng.dirichlet(np.ones(grid.K), (2, self.M))
        w = {"open-loop": rows[0, 0], "per-path": rows[0], "per-path-difference": rows[0] - rows[1]}[weights]
        mass = 0.0 if weights == "per-path-difference" else 1.0
        coefs = averaged_coefficients(p, grid, 0.3, x, w, mass)
        got, marks = {"b": coefs[0], "sigma": coefs[1], "ell": coefs[2]}, {"C": iter(coefs[3])}
        if mass:  # Jacobians are averaged under a control's weights only
            lins = averaged_linearization(p, grid, 0.3, x, w)
            got.update(b_x=lins[0], sigma_x=lins[1], ell_x=lins[2])
            marks["C_x"] = iter(lins[3])
        for key, f, tail, extra in atom_coefficients(p):
            if key not in got and key not in marks:
                continue
            value = got[key] if key in got else next(marks[key])
            vals = stacked(f, grid, 0.3, x, extra)
            ref = contract_atoms(vals, w)
            assert value.shape == ref.shape == (self.M,) + tail, key
            bound = self.RTOL * contract_atoms(np.abs(vals), np.abs(w))
            if not mass:  # a direction's rows sum to 0 up to rounding, which the averages take as exactly 0
                bound += np.abs(w.sum(axis=-1)).reshape((-1,) + (1,) * len(tail)) * np.abs(vals).max(axis=0)
            assert np.all(np.abs(value - ref) <= bound), key

    @pytest.mark.parametrize("name", sorted(CONTROL_FREE))
    def test_hamiltonian_rows_match_the_stacked_terms(self, name):
        p, grid, x = self.case(name)
        M, n, K = self.M, p.n, grid.K
        rng = np.random.default_rng(40)
        psi, Q = rng.standard_normal((M, n)), rng.standard_normal((M, n, p.m))
        phi_row = rng.standard_normal((M, p.jump.J, n))
        terms = [
            np.einsum("kqi,qi->kq", stacked(p.b, grid, 0.3, x), psi),
            np.einsum("kqab,qab->kq", stacked(p.sigma, grid, 0.3, x), Q),
        ]
        for j, v in enumerate(p.jump.marks):
            C = stacked(p.jump.C, grid, 0.3, x, (v,))
            terms.append(p.jump.intensities[j] * np.einsum("kqi,qi->kq", C, phi_row[:, j]))
        ell = stacked(p.ell, grid, 0.3, x)
        ham, pairing = atom_rows(p, grid, 0.3, x, psi, Q, phi_row)
        pairing_ref, scale = sum(terms), sum(np.abs(t) for t in terms)
        assert ham.shape == pairing.shape == (K, M)
        assert np.all(np.abs(pairing - pairing_ref) <= self.RTOL * scale)
        assert np.all(np.abs(ham - (pairing_ref + ell)) <= self.RTOL * (scale + np.abs(ell)))

    @pytest.mark.parametrize("name", sorted(CONTROL_FREE))
    def test_hamiltonian_rows_without_pairing_are_bit_equal(self, name):
        p, grid, x = self.case(name)
        rng = np.random.default_rng(41)
        psi, Q = rng.standard_normal((self.M, p.n)), rng.standard_normal((self.M, p.n, p.m))
        phi_row = rng.standard_normal((self.M, p.jump.J, p.n))
        ham, _ = atom_rows(p, grid, 0.3, x, psi, Q, phi_row)
        alone, pairing = atom_rows(p, grid, 0.3, x, psi, Q, phi_row, pairing=False)
        assert pairing is None
        assert np.array_equal(alone, ham)


class TestPathConstantRows:
    """A coefficient value that is a broadcast along the path axis is the
    same on every path, and `_atom_view` keeps one path of it: its averages
    and Hamiltonian rows equal, bit for bit, those of the same values given
    as a contiguous array, and the row is what the finite check sees.  A
    value evaluated once for all atoms stays one row under per-path weights
    too."""

    M = 60
    # (benchmark, coefficient) whose value is a broadcast along the path axis;
    # "negative-zero" is lq1d with a drift of -0.0 on every path, evaluated once
    ROWS = [(name, "sigma") for name in rsmp.BENCHMARK_NAMES] + [
        ("lq1d", "b_x"), ("lq2d", "b_x"), ("jump-lq", "b_x"), ("nonconvex-mix", "b"), ("negative-zero", "b"),
    ]
    AVERAGE = {"sigma": averaged_diffusion, "b": averaged_drift, "b_x": averaged_drift_x}

    def case(self, name):
        if name == "negative-zero":
            p = dataclasses.replace(rsmp.make_benchmark("lq1d"), b=lambda t, x, xi: np.broadcast_to(-0.0, np.shape(x)))
            name = "lq1d"
        else:
            p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((self.M, p.n))
        weights = {
            "open-loop": rng.dirichlet(np.ones(grid.K)),
            "per-path": rng.dirichlet(np.ones(grid.K), self.M),
            "per-path-difference": rng.dirichlet(np.ones(grid.K), self.M) - rng.dirichlet(np.ones(grid.K), self.M),
        }
        return p, grid, x, weights

    @pytest.mark.parametrize("weights", ["open-loop", "per-path", "per-path-difference"])
    @pytest.mark.parametrize("name, key", ROWS, ids=[f"{n}-{k}" for n, k in ROWS])
    def test_row_equals_the_contiguous_values_bit_for_bit(self, name, key, weights):
        p, grid, x, ws = self.case(name)
        f = getattr(p, key)
        dense = dataclasses.replace(p, **{key: lambda *args: np.ascontiguousarray(f(*args))})
        assert np.asarray(f(0.3, x[None], grid.points[:, None])).strides[1] == 0  # the value is a path broadcast
        average, w = self.AVERAGE[key], ws[weights]
        given, ref = average(p, grid, 0.3, x, w), average(dense, grid, 0.3, x, w)
        assert given.shape == ref.shape and given.tobytes() == ref.tobytes()
        evaluated_once = len(_atom_view(f, grid, 0.3, x, given.shape[1:])) == 1
        if w.ndim == 1 or evaluated_once:  # one row for every path: a read-only broadcast view of it
            assert given.strides[0] == 0 and not given.flags.writeable
        else:
            assert given.flags.c_contiguous
        # the weights given per cell, as the sweeps pass them under feedback: one cell, or one per path
        cells = np.zeros(self.M, dtype=np.uint8) if w.ndim == 1 else np.arange(self.M, dtype=np.uint8)
        per_cell = CellWeights(np.atleast_2d(w), cells)
        given, ref = average(p, grid, 0.3, x, per_cell), average(dense, grid, 0.3, x, per_cell)
        assert given.shape == ref.shape == (self.M,) + given.shape[1:] and given.tobytes() == ref.tobytes()

    # (benchmark, coefficient) paired as it is by _hamiltonian_rows; jump-lq's C is a full value
    HAMILTONIAN_ROWS = [(name, "sigma") for name in rsmp.BENCHMARK_NAMES] + [
        ("nonconvex-mix", "b"), ("jump-lq", "C"), ("negative-zero", "b"),
    ]

    @pytest.mark.parametrize("checked", [True, False], ids=["checked", "unchecked"])
    @pytest.mark.parametrize("name, key", HAMILTONIAN_ROWS, ids=[f"{n}-{k}" for n, k in HAMILTONIAN_ROWS])
    def test_hamiltonian_rows_equal_those_of_the_contiguous_values_bit_for_bit(self, name, key, checked):
        p, grid, x, _ = self.case(name)
        owner = p.jump if key == "C" else p
        f = getattr(owner, key)
        dense = dataclasses.replace(owner, **{key: lambda *args: np.ascontiguousarray(f(*args))})
        dense = dataclasses.replace(p, jump=dense) if key == "C" else dense
        rng = np.random.default_rng(43)
        psi, Q = rng.standard_normal((self.M, p.n)), rng.standard_normal((self.M, p.n, p.m))
        phi_row = rng.standard_normal((self.M, p.jump.J, p.n))
        given = atom_rows(p, grid, 0.3, x, psi, Q, phi_row, checked=checked)
        ref = atom_rows(dense, grid, 0.3, x, psi, Q, phi_row, checked=checked)
        for got, want in zip(given, ref):
            assert got.shape == want.shape == (grid.K, self.M) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("weights", ["open-loop", "per-path"])
    def test_nan_row_names_the_coefficient(self, weights):
        p, grid, x, ws = self.case("lq1d")
        p = dataclasses.replace(p, sigma=lambda t, x, xi: np.broadcast_to(np.nan, np.shape(x)[:-1] + (1, 1)))
        with pytest.raises(NonFiniteCoefficient, match="^diffusion produced NaN/Inf$"):
            averaged_coefficients(p, grid, 0.3, x, ws[weights])

    @pytest.mark.parametrize("weights", ["open-loop", "per-path"])
    def test_inf_row_at_an_atom_of_weight_zero_is_nan(self, weights):
        # nonconvex-mix's drift is xi on every path; atom 0 of weight 0 gives Inf * 0
        p, grid, x, _ = self.case("nonconvex-mix")

        def b(t, x, xi):
            xi = np.where(np.asarray(xi) == -1.0, np.inf, xi)
            return np.broadcast_to(xi, np.broadcast_shapes(np.shape(xi), np.shape(x)))

        p = dataclasses.replace(p, b=b)
        w = np.array([0.0, 1.0]) if weights == "open-loop" else np.tile([0.0, 1.0], (self.M, 1))
        with np.errstate(invalid="ignore"):
            assert np.isnan(contract_atoms(_atom_view(b, grid, 0.3, x, (1,)), w)).all()
        with pytest.raises(NonFiniteCoefficient, match="^drift produced NaN/Inf$"):
            averaged_coefficients(p, grid, 0.3, x, w)


class TestContraction:
    """One weight row contracts to the same bits as its (M, K) broadcast, so
    an open-loop control resolves to its row; and a NaN or Inf at any atom
    reaches the contracted value, which is all the averages and the
    Hamiltonian pairing check."""

    @pytest.mark.parametrize("tail", [(), (2,), (2, 3), (2, 2), (2, 3, 2)])
    def test_row_matches_its_broadcast_bit_for_bit(self, tail):
        K, M = 9, 2000
        rng = np.random.default_rng(34)
        vals = rng.standard_normal((K, M) + tail) * 10.0 ** rng.integers(-6, 6, (K, M) + tail)
        for row in (rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K)) - rng.dirichlet(np.ones(K))):
            got = contract_atoms(vals, row)
            ref = contract_atoms(vals, np.broadcast_to(row, (M, K)))
            assert got.shape == (M,) + tail
            assert got.tobytes() == ref.tobytes()

    # (coefficient, its name in the error, whether it is a state gradient)
    COEFFICIENTS = [
        ("b", "drift", False),
        ("sigma", "diffusion", False),
        ("ell", "running cost", False),
        ("C", "jump coefficient", False),
        ("b_x", "drift gradient", True),
        ("sigma_x", "diffusion gradient", True),
        ("ell_x", "running cost gradient", True),
        ("C_x", "jump gradient", True),
    ]
    # (case, {atom: value added there}, weight row on the 5 atoms)
    CASES = [
        ("NaN at a zero-weight atom", {2: np.nan}, [0.25, 0.25, 0.0, 0.25, 0.25]),
        ("+Inf at a negative weight", {0: np.inf}, [-1.0, 1.0, 0.0, 0.0, 0.0]),
        ("+Inf and -Inf at two atoms", {1: np.inf, 3: -np.inf}, [0.2] * 5),
    ]

    @staticmethod
    def poisoned(f, grid, at):
        """f plus the value at[i] at each atom i named in at, 0 elsewhere."""
        def g(*args):
            out = np.asarray(f(*args), dtype=float)
            xi = np.asarray(args[-1])
            add = np.zeros(np.shape(xi)[:-1])
            for i, value in at.items():
                add = np.where(np.all(xi == grid.points[i], axis=-1), value, add)
            return out + add.reshape(add.shape + (1,) * (out.ndim - add.ndim))
        return g

    @pytest.mark.parametrize("case, at, row", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("key, what, gradient", COEFFICIENTS, ids=[c[0] for c in COEFFICIENTS])
    def test_non_finite_atom_reaches_the_average(self, key, what, gradient, case, at, row):
        p = rsmp.make_benchmark("jump-lq")
        grid = rsmp.benchmark_grid("jump-lq", 5)
        if key.startswith("C"):
            jump = p.jump
            f = self.poisoned(getattr(jump, key), grid, at)
            p = dataclasses.replace(p, jump=dataclasses.replace(jump, **{key: f}))
        else:
            p = dataclasses.replace(p, **{key: self.poisoned(getattr(p, key), grid, at)})
        x = np.random.default_rng(35).standard_normal((7, 1))
        average = averaged_linearization if gradient else averaged_coefficients
        row = np.array(row)
        for w in (row, np.tile(row, (7, 1))):
            with pytest.raises(NonFiniteCoefficient, match=f"^{what} produced NaN/Inf$"):
                average(p, grid, 0.3, x, w)

    # (coefficient, its name in the error, value added at atom 2); the finite
    # values overflow once paired with the adjoint row of 1e10
    HAMILTONIAN_TERMS = [
        ("b", "drift", 1e300),
        ("sigma", "diffusion", 1e300),
        ("ell", "running cost", np.inf),
        ("C", "jump coefficient", 1e300),
    ]

    @pytest.mark.parametrize("key, what, value", HAMILTONIAN_TERMS, ids=[c[0] for c in HAMILTONIAN_TERMS])
    def test_non_finite_term_is_named_by_the_checked_cell_sums(self, key, what, value):
        # each contracted term is checked, not the atom values, as the backward
        # sweep's naming re-run checks them; here one cell per path
        p = rsmp.make_benchmark("jump-lq")
        grid = rsmp.benchmark_grid("jump-lq", 5)
        at = {2: value}
        if key == "C":
            p = dataclasses.replace(p, jump=dataclasses.replace(p.jump, C=self.poisoned(p.jump.C, grid, at)))
        else:
            p = dataclasses.replace(p, **{key: self.poisoned(getattr(p, key), grid, at)})
        M, J = 7, p.jump.J
        x = np.random.default_rng(36).standard_normal((M, 1))
        psi, Q, phi_row = np.full((M, 1), 1e10), np.full((M, 1, 1), 1e10), np.full((M, J, 1), 1e10)
        with pytest.raises(NonFiniteCoefficient, match=f"^{what} produced NaN/Inf$"):
            per_path_hamiltonians(p, grid, 0.3, x, psi, Q, phi_row, checked=True)


class TestSeparableRule:
    """A `Separable` coefficient averages by its own rule under any weights
    (`problem._averaged`): a weight row (K,) as open loop resolves, per-path
    rows (M, K) as feedback resolves, and a direction's difference of either
    (mass 0).  Each agrees with the per-atom contraction of the plain twin
    within TOL of the coefficient's largest atom value, and has its shape
    and layout, except that a direction's one row, w . table alone, is one
    row for every path."""

    TOL = 1e-13  # about 450 eps; the rule moves the averages by rounding only
    M = 500

    @staticmethod
    def weights(name, mode, x, seed):
        """Two random controls of one step resolved at the states x."""
        p, grid = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 9)
        part = None if mode == rsmp.OPEN_LOOP else rsmp.benchmark_partition(name, mode, cells=4)
        C = 1 if part is None else part.n_cells
        rows = np.random.default_rng(seed).dirichlet(np.ones(grid.K), (2, 1, C))
        signal = _feedback_signal(p, mode, x)
        return [rsmp.RelaxedControl(grid, w, mode, part).weights_at(0, signal) for w in rows]

    @pytest.mark.parametrize("name", rsmp.BENCHMARK_NAMES)
    @pytest.mark.parametrize("mode", [rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    @pytest.mark.parametrize("direction", [False, True], ids=["weights", "direction"])
    def test_declared_averages_agree_with_the_per_atom_ones(self, name, mode, direction):
        p, grid = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 9)
        x = np.random.default_rng(40).normal(0.0, 0.7, (self.M, p.n)) + p.x0
        w0, w1 = self.weights(name, mode, x, 41)
        assert w0.shape == ((grid.K,) if mode == rsmp.OPEN_LOOP else (self.M, grid.K))
        w = w1 - w0 if direction else w1
        t = 0.3
        mass = 0.0 if direction else 1.0
        b, sigma, ell, C = averaged_coefficients(p, grid, t, x, w, mass)
        twin = plain_twin(p)
        ref_b, ref_sigma, ref_ell, ref_C = averaged_coefficients(twin, grid, t, x, w, mass)
        averages = zip(_coefficients(twin), (b, sigma, ell, *C), (ref_b, ref_sigma, ref_ell, *ref_C))
        for (f, tail, extra, what), got, ref in averages:
            scale = np.abs(_atom_view(f, grid, t, x, tail, extra, what)).max()
            assert got.shape == ref.shape == (self.M,) + tail, what
            if direction and w.ndim == 1:  # w . table alone, the same on every path
                assert got.strides[0] == 0 and not got.flags.writeable, what
            else:
                assert got.flags.writeable == ref.flags.writeable, what
            assert np.abs(got - ref).max() <= self.TOL * scale, what

    @pytest.mark.parametrize("name", ["lq1d", "lq2d", "jump-lq", "nonconvex-mix"])
    @pytest.mark.parametrize("mode", [rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK])
    @pytest.mark.parametrize("direction", [False, True], ids=["weights", "direction"])
    def test_per_cell_averages_equal_the_gathered_rows_bit_for_bit(self, name, mode, direction):
        # under feedback the sweeps pass the weights per cell, with the cells
        # simulate recorded: a Separable's w . table is formed once per cell
        # and gathered, the bits of each path's own row product; only a plain
        # value with an atom axis (nonconvex-mix's) gathers the per-path rows
        p, grid, N = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 9), 4
        part = rsmp.benchmark_partition(name, mode, cells=4)
        weights = np.random.default_rng(43).dirichlet(np.ones(grid.K), (2, N, part.n_cells))
        u0, u1 = (rsmp.RelaxedControl(grid, w, mode, part) for w in weights)
        paths = rsmp.simulate(p, u0, rsmp.sample_noise(p, self.M, N, seed=44))
        mass = 0.0 if direction else 1.0
        for k in range(N):
            table = u1.weights[k] - u0.weights[k] if direction else u0.weights[k]
            x, cells, t = paths.states[:, k], paths.cells[:, k], k * paths.dt
            per_cell = CellWeights(table, cells)
            got = averaged_coefficients(p, grid, t, x, per_cell, mass)
            ref = averaged_coefficients(p, grid, t, x, np.take(table, cells, axis=0), mass)
            for (_, _, _, what), a, b in zip(_coefficients(p), (*got[:3], *got[3]), (*ref[:3], *ref[3])):
                assert a.shape == b.shape == (self.M,) + a.shape[1:] and a.tobytes() == b.tobytes(), (k, what)
            assert ("rows" in vars(per_cell)) == (name == "nonconvex-mix")

    @pytest.mark.parametrize("key, what, tail", [("b", "drift", (1,)), ("ell", "running cost", ())])
    @pytest.mark.parametrize("part", ["state", "control"])
    def test_a_part_of_another_shape_is_named(self, key, what, tail, part):
        # every sweep reads the parts through `_averaged` or the backward
        # sweep's split rows; a part returning an extra trailing axis is named
        p, grid = rsmp.make_benchmark("lq1d"), rsmp.benchmark_grid("lq1d", 5)
        f = getattr(p, key)
        parts = {"state": f.state, "control": f.control}
        parts[part] = (lambda g: lambda *args: np.asarray(g(*args))[..., None])(parts[part])
        bad = dataclasses.replace(p, **{key: Separable(**parts)})
        x, psi, Q = np.zeros((6, 1)), np.ones((6, 1)), np.ones((6, 1, 1))
        with pytest.raises(ShapeMismatch, match=f"^{what} {part} part has shape"):
            averaged_coefficients(bad, grid, 0.3, x, np.full(grid.K, 0.2))
        with pytest.raises(ShapeMismatch, match=f"^{what} {part} part has shape"):
            cell_hamiltonians(bad, grid, 0.3, x, psi, Q, None, lambda rows: np.zeros((1, len(rows))), np.array([6]),
                              pairing=True)


class TestFiniteDifferenceGradients:
    def test_second_order_convergence_on_cubic(self):
        # halving the step should shrink the error on a cubic by about 4x
        def f(t, x, xi):
            return np.asarray(x)[..., 0] ** 3

        x = np.array([[1.3]])
        exact = 3 * 1.3**2
        errs = []
        for step in (1e-3, 5e-4):
            grad = fd_gradient(f, step=step)
            errs.append(abs(float(grad(0.0, x, None)[0, 0]) - exact))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_fallback_matches_exact_gradient(self):
        p = linear_problem([[0.4, 0.1], [0.0, -0.3]], [[1.0], [0.5]])
        x = np.array([[0.7, -0.2]])
        got = p.b_x(0.0, x, np.array([0.1]))
        assert np.allclose(got[0], [[0.4, 0.1], [0.0, -0.3]], atol=1e-8)

    def test_any_leading_axes_match_per_atom_calls(self):
        # lq1d with b_x, sigma_x and ell_x left to finite differences: one
        # call on (K, M, n) states is the K per-atom calls stacked
        lq = rsmp.make_benchmark("lq1d")
        p = Problem(n=1, m=1, d=1, T=1.0, x0=lq.x0, b=lq.b, sigma=lq.sigma, ell=lq.ell, phi=lq.phi,
                    control_box=lq.control_box)
        grid = rsmp.benchmark_grid("lq1d", 9)
        x = np.random.default_rng(32).standard_normal((25, 1))
        xs = np.broadcast_to(x, (grid.K,) + x.shape)
        for grad, tail in ((p.b_x, (1, 1)), (p.sigma_x, (1, 1, 1)), (p.ell_x, (1,))):
            ref = np.stack([grad(0.1, x, xi) for xi in grid.points])
            assert np.array_equal(grad(0.1, xs, grid.points[:, None]), ref)
            assert np.array_equal(np.broadcast_to(_atom_view(grad, grid, 0.1, x, tail), ref.shape), ref)


class TestJumpSpec:
    def test_zero_mark_rejected(self):
        with pytest.raises(DomainError):
            JumpSpec(np.array([[0.0]]), np.array([1.0]), C=lambda t, x, v, xi: v)

    def test_negative_intensity_rejected(self):
        with pytest.raises(DomainError):
            JumpSpec(np.array([[1.0]]), np.array([-1.0]), C=lambda t, x, v, xi: v)

    def test_zero_intensity_rejected(self):
        # the backward sweep divides by lam * dt
        with pytest.raises(DomainError):
            JumpSpec(np.array([[1.0], [-1.0]]), np.array([2.0, 0.0]), C=lambda t, x, v, xi: v)

    def test_problem_requires_horizon(self):
        base = linear_problem([[0.1]], [[1.0]])
        with pytest.raises(DomainError):
            Problem(n=1, m=1, d=1, T=0.0, x0=np.array([0.0]), b=base.b, sigma=base.sigma,
                    ell=base.ell, phi=base.phi, control_box=[[-1.0, 1.0]])
