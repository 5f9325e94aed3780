import dataclasses
import re

import numpy as np
import pytest

import rsmp
from rsmp import ControlGrid, DomainError, JumpSpec, NonFiniteCoefficient, Problem, ShapeMismatch
from rsmp.problem import _atom_values, atom_hamiltonians, atom_values, averaged_coefficients, averaged_drift
from rsmp.problem import averaged_linearization, contract_atoms, fd_gradient


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

    def test_atom_values_stack_atoms_leading(self):
        x = np.array([[2.0], [3.0], [-1.0]])
        vals = atom_values(self.p.b, self.grid, 0.0, x, (1,))
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
    and gradient that `atom_values` evaluates on a grid: C and C_x once per mark."""
    n, m = p.n, p.m
    tails = {"b": (n,), "sigma": (n, m), "ell": (), "b_x": (n, n), "sigma_x": (n, m, n), "ell_x": (n,)}
    out = [(key, getattr(p, key), tail, ()) for key, tail in tails.items()]
    if p.jump is not None:
        for v in p.jump.marks:
            out += [("C", p.jump.C, (n,), (v,)), ("C_x", p.jump.C_x, (n, n), (v,))]
    return out


class TestBroadcastContract:
    """`atom_values` makes one broadcast call; its result is the K per-atom
    calls stacked, bit for bit."""

    @pytest.mark.parametrize("name", rsmp.BENCHMARK_NAMES)
    def test_one_call_equals_stacked_point_calls(self, name):
        # and the same call expecting another trailing shape is refused
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 5)
        x = np.random.default_rng(31).standard_normal((40, p.n))
        for key, f, tail, extra in atom_coefficients(p):
            got = atom_values(f, grid, 0.3, x, tail, extra, what=key)
            ref = np.stack([np.asarray(f(0.3, x, *extra, xi), dtype=float) for xi in grid.points])
            assert got.flags.c_contiguous, key
            assert got.shape == ref.shape and np.array_equal(got, ref), key
            wrong = re.escape(f"{key} has shape {(40,) + tail}, expected {(40,) + tail + (1,)}")
            with pytest.raises(ShapeMismatch, match=f"^{wrong}$"):
                atom_values(f, grid, 0.3, x, tail + (1,), extra, what=key)

    def test_one_call_for_all_atoms(self):
        p = rsmp.make_benchmark("jump-lq")
        grid = rsmp.benchmark_grid("jump-lq", 9)
        calls = []

        def counted(t, x, v, xi):
            calls.append((np.shape(x), np.shape(xi)))
            return p.jump.C(t, x, v, xi)

        vals = atom_values(counted, grid, 0.0, np.zeros((7, 1)), (1,), (p.jump.marks[0],))
        assert vals.shape == (9, 7, 1)
        assert calls == [((1, 7, 1), (9, 1, 1))]

    def test_per_atom_callable_is_shape_mismatch(self):
        # the pre-broadcast idiom: xi of one atom stretched to the shape of x
        def b(t, x, xi):
            return np.broadcast_to(xi, np.shape(x))

        grid = ControlGrid([[-1.0], [0.0], [1.0]], [[-1.0, 1.0]])
        with pytest.raises(ShapeMismatch, match="drift does not broadcast over the 3 grid atoms") as exc:
            atom_values(b, grid, 0.0, np.zeros((4, 1)), (1,), what="drift")
        assert "x (..., n) and xi (..., d)" in str(exc.value)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_wrong_result_shape_is_shape_mismatch(self):
        # flattened to one path axis: (K * M, n) instead of (K, M, n)
        def b(t, x, xi):
            return (np.asarray(x) + xi).reshape(-1, 1)

        grid = ControlGrid([[-1.0], [1.0]], [[-1.0, 1.0]])
        with pytest.raises(ShapeMismatch, match="drift does not broadcast") as exc:
            atom_values(b, grid, 0.0, np.zeros((4, 1)), (1,), what="drift")
        assert isinstance(exc.value.__cause__, ValueError)

    def test_full_result_is_returned_without_a_copy(self):
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)
        x = np.random.default_rng(33).standard_normal((6, 1))
        results = []

        def b(t, x, xi):
            results.append(p.b(t, x, xi))
            return results[-1]

        vals = atom_values(b, grid, 0.0, x, (1,))
        assert vals.shape == (5, 6, 1) and vals.flags.c_contiguous
        assert np.shares_memory(vals, results[0])

    def test_broadcast_result_is_copied_to_the_full_shape(self):
        # lq1d's diffusion is constant: one (1, M, 1, 1) view for all atoms
        p = rsmp.make_benchmark("lq1d")
        grid = rsmp.benchmark_grid("lq1d", 5)
        results = []

        def sigma(t, x, xi):
            results.append(p.sigma(t, x, xi))
            return results[-1]

        vals = atom_values(sigma, grid, 0.0, np.zeros((6, 1)), (1, 1))
        assert results[0].shape == (1, 6, 1, 1)
        assert vals.shape == (5, 6, 1, 1) and vals.flags.c_contiguous
        assert not np.shares_memory(vals, results[0])
        assert np.array_equal(vals, np.broadcast_to(results[0], vals.shape))


class TestControlFreeCoefficients:
    """A coefficient whose result has length 1 on the atom axis does not
    depend on the control and is evaluated once for all atoms: its relaxed
    average is that value times the weight row sum, and its atom Hamiltonian
    term one row added to every atom.  Both equal the contraction of the
    (K, M, ...) tensor `atom_values` stacks, within rounding."""

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
            vals = _atom_values(f, grid, 0.3, x, tail, extra, what=key)
            atoms = 1 if key in self.CONTROL_FREE[name] else grid.K
            assert vals.shape == (atoms, self.M) + tail and vals.flags.c_contiguous, key
            assert np.array_equal(np.broadcast_to(vals, (grid.K,) + vals.shape[1:]),
                                  atom_values(f, grid, 0.3, x, tail, extra, what=key)), key

    def test_result_without_an_atom_axis(self):
        # a scalar running cost broadcasts over atoms and paths alike
        p, grid, x = self.case("lq1d")
        p = dataclasses.replace(p, ell=lambda t, x, xi: 0.5)
        assert _atom_values(p.ell, grid, 0.0, x, ()).shape == (1, self.M)
        w = np.random.default_rng(38).dirichlet(np.ones(grid.K), self.M)
        got = averaged_coefficients(p, grid, 0.0, x, w)[2]
        assert np.array_equal(got, 0.5 * (w @ np.ones(grid.K)))

    WEIGHTS = ["open-loop", "per-path", "per-path-difference"]

    @pytest.mark.parametrize("weights", WEIGHTS)
    @pytest.mark.parametrize("name", sorted(CONTROL_FREE))
    def test_averages_match_the_contracted_atom_tensor(self, name, weights):
        p, grid, x = self.case(name)
        rng = np.random.default_rng(39)
        rows = rng.dirichlet(np.ones(grid.K), (2, self.M))
        w = {"open-loop": rows[0, 0], "per-path": rows[0], "per-path-difference": rows[0] - rows[1]}[weights]
        coefs, lins = averaged_coefficients(p, grid, 0.3, x, w), averaged_linearization(p, grid, 0.3, x, w)
        got = {"b": coefs[0], "sigma": coefs[1], "ell": coefs[2], "b_x": lins[0], "sigma_x": lins[1], "ell_x": lins[2]}
        marks = {"C": iter(coefs[3]), "C_x": iter(lins[3])}
        for key, f, tail, extra in atom_coefficients(p):
            value = got[key] if key in got else next(marks[key])
            vals = atom_values(f, grid, 0.3, x, tail, extra, what=key)
            ref = contract_atoms(vals, w)
            assert value.shape == ref.shape == (self.M,) + tail, key
            assert np.all(np.abs(value - ref) <= self.RTOL * contract_atoms(np.abs(vals), np.abs(w))), key

    @pytest.mark.parametrize("name", sorted(CONTROL_FREE))
    def test_atom_hamiltonians_match_the_stacked_terms(self, name):
        p, grid, x = self.case(name)
        M, n, K = self.M, p.n, grid.K
        rng = np.random.default_rng(40)
        psi, Q = rng.standard_normal((M, n)), rng.standard_normal((M, n, p.m))
        phi_row = rng.standard_normal((M, p.jump.J, n))
        terms = [
            np.einsum("kqi,qi->kq", atom_values(p.b, grid, 0.3, x, (n,)), psi),
            np.einsum("kqab,qab->kq", atom_values(p.sigma, grid, 0.3, x, (n, p.m)), Q),
        ]
        for j, v in enumerate(p.jump.marks):
            C = atom_values(p.jump.C, grid, 0.3, x, (n,), (v,))
            terms.append(p.jump.intensities[j] * np.einsum("kqi,qi->kq", C, phi_row[:, j]))
        ell = atom_values(p.ell, grid, 0.3, x, ())
        ham, pairing = atom_hamiltonians(p, grid, 0.3, x, psi, Q, phi_row)
        pairing_ref, scale = sum(terms), sum(np.abs(t) for t in terms)
        assert ham.shape == pairing.shape == (K, M)
        assert np.all(np.abs(pairing - pairing_ref) <= self.RTOL * scale)
        assert np.all(np.abs(ham - (pairing_ref + ell)) <= self.RTOL * (scale + np.abs(ell)))

    @pytest.mark.parametrize("name", sorted(CONTROL_FREE))
    def test_atom_hamiltonians_without_pairing_are_bit_equal(self, name):
        p, grid, x = self.case(name)
        rng = np.random.default_rng(41)
        psi, Q = rng.standard_normal((self.M, p.n)), rng.standard_normal((self.M, p.n, p.m))
        phi_row = rng.standard_normal((self.M, p.jump.J, p.n))
        ham, _ = atom_hamiltonians(p, grid, 0.3, x, psi, Q, phi_row)
        alone, pairing = atom_hamiltonians(p, grid, 0.3, x, psi, Q, phi_row, pairing=False)
        assert pairing is None
        assert np.array_equal(alone, ham)


class TestContraction:
    """One weight row contracts to the same bits as its (M, K) broadcast, so
    an open-loop control resolves to its row; and a NaN or Inf at any atom
    reaches the contracted value, which is all the averages and the atom
    Hamiltonians check."""

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
    def test_non_finite_term_reaches_the_atom_hamiltonians(self, key, what, value):
        # each contracted (K, M) term is checked, not the atom values
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
            atom_hamiltonians(p, grid, 0.3, x, psi, Q, phi_row)


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
            assert np.array_equal(atom_values(grad, grid, 0.1, x, tail), ref)


class TestValidateAssumptions:
    def test_linear_drift_lipschitz_matches_operator_norm(self):
        A = np.array([[1.0, 0.3], [0.0, 0.7]])
        p = linear_problem(A, [[1.0], [0.0]])
        rep = rsmp.validate_assumptions(p, samples=500, seed=3)
        # oracle: power iteration for the largest singular value of A
        v = np.ones(2)
        for _ in range(200):
            v = A.T @ (A @ v)
            v /= np.linalg.norm(v)
        sigma_max = float(np.linalg.norm(A @ v))
        assert rep.lipschitz_b <= sigma_max * (1 + 1e-9)
        assert rep.lipschitz_b >= 0.9 * sigma_max

    def test_constant_diffusion_has_zero_lipschitz(self):
        p = linear_problem([[0.5]], [[1.0]])
        rep = rsmp.validate_assumptions(p, samples=100, seed=5)
        assert rep.lipschitz_sigma == 0.0

    def test_nan_coefficient_flagged(self):
        def b(t, x, xi):
            x = np.asarray(x)
            out = np.where(x > 0.5, np.nan, x)
            return out

        def b_x(t, x, xi):
            return np.ones(np.shape(x)[:-1] + (1, 1))

        base = linear_problem([[0.2]], [[1.0]])
        p = Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.0]), b=b, sigma=base.sigma,
                    ell=base.ell, phi=base.phi, control_box=[[-1.0, 1.0]], b_x=b_x)
        rep = rsmp.validate_assumptions(p, samples=200, seed=7)
        assert "b" in rep.nonfinite
        assert not rep.ok

    def test_wrong_user_gradient_detected(self):
        base = linear_problem([[0.5]], [[1.0]])

        def wrong_bx(t, x, xi):
            return np.full(np.shape(x)[:-1] + (1, 1), 9.0)

        p = Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.0]), b=base.b, sigma=base.sigma,
                    ell=base.ell, phi=base.phi, control_box=[[-1.0, 1.0]], b_x=wrong_bx)
        rep = rsmp.validate_assumptions(p, samples=50, seed=9)
        assert rep.max_gradient_mismatch > 1e-5

    def test_exact_gradients_pass_consistency(self):
        p = rsmp.make_benchmark("lq1d")
        rep = rsmp.validate_assumptions(p, samples=100, seed=11)
        assert rep.max_gradient_mismatch <= 1e-5
        assert rep.purity_ok


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
