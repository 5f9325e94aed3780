"""Control problem definition: dynamics, costs, jumps, information structure.

Coefficient callables are vectorized over a leading path axis:

    b(t, x, xi)     -> (..., n)      x: (..., n), xi: (d,) or (..., d)
    sigma(t, x, xi) -> (..., n, m)
    ell(t, x, xi)   -> (...,)
    phi(x)          -> (...,)

Spatial gradients follow the convention grad[..., i, j] = d f_i / d x_j;
the diffusion derivative sigma_x has shape (..., n, m, n) with the last
axis the differentiation direction.  Missing gradients fall back to central
finite differences.  Callables must be pure functions of their arguments.

Relaxed controls only ever see a coefficient through its values at the K
atoms of a control grid.  `atom_values` is the single place that evaluates a
coefficient on a grid: it calls the callable once per atom and stacks the
results with the atom axis leading, shape (K, M, ...), checking the whole
tensor for NaN/Inf once.  Everything linear in the weights is a contraction
of that tensor over its leading axis: `contract_atoms` pairs it with a
weight vector (K,) or per-path weights (M, K), which is what the
`averaged_*` functions return, and `atom_hamiltonians` contracts it with
the adjoint processes to get all K per-atom Hamiltonians from one
evaluation per atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, NonFiniteCoefficient, ShapeMismatch

FD_STEP = 1e-5


@dataclass(frozen=True)
class GaussianInitial:
    """Gaussian initial state with the given mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ShapeMismatch("covariance must be (n, n)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", np.linalg.cholesky(cov + 0.0))

    def sample(self, z: np.ndarray) -> np.ndarray:
        """Map standard normal draws (..., n) to initial states."""
        return self.mean + z @ self._chol.T


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump component: atomic jump measure plus kernel.

    marks: (J, n) nonzero jump sites; intensities: (J,) positive rates per unit time;
    C(t, x, v, xi) -> (..., n) is the jump coefficient and C_x its spatial
    gradient (..., n, n).
    """

    marks: np.ndarray
    intensities: np.ndarray
    C: object
    C_x: object | None = None

    def __post_init__(self):
        marks = np.atleast_2d(np.asarray(self.marks, dtype=float))
        lam = np.atleast_1d(np.asarray(self.intensities, dtype=float))
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "intensities", lam)
        if marks.shape[0] != lam.size:
            raise ShapeMismatch("one intensity per mark")
        # solve_bsde divides by lam * dt, so a zero-rate mark is an input error
        if np.any(lam <= 0) or not np.isfinite(lam.sum()):
            raise DomainError("intensities must be positive and finite in total")
        if np.any(np.all(marks == 0.0, axis=1)):
            raise DomainError("jump marks must be nonzero vectors")
        marks.setflags(write=False)
        lam.setflags(write=False)

    @property
    def J(self) -> int:
        return self.marks.shape[0]

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())


def _fd_scale(x: np.ndarray, step: float) -> np.ndarray:
    # h = step * (1 + |x|), per sample
    return step * (1.0 + np.linalg.norm(np.atleast_2d(x), axis=-1))


def fd_gradient(f, argpos: int = 1, step: float = FD_STEP):
    """Central-difference gradient of f in its state argument.

    Works for any coefficient whose state argument sits at position argpos
    in the call; returns a callable with one extra trailing axis (the
    differentiation direction).
    """

    def grad(*args):
        x_in = np.asarray(args[argpos], dtype=float)
        squeeze = x_in.ndim == 1
        x = np.atleast_2d(x_in)
        n = x.shape[-1]
        h = _fd_scale(x, step)
        cols = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            up = args[:argpos] + (x + h[:, None] * e,) + args[argpos + 1 :]
            dn = args[:argpos] + (x - h[:, None] * e,) + args[argpos + 1 :]
            fu = np.asarray(f(*up), dtype=float)
            fl = np.asarray(f(*dn), dtype=float)
            denom = (2.0 * h).reshape((x.shape[0],) + (1,) * (fu.ndim - 1))
            cols.append((fu - fl) / denom)
        out = np.stack(cols, axis=-1)
        return out[0] if squeeze else out

    return grad


@dataclass(frozen=True)
class Problem:
    """Coefficient bundle for a controlled (jump-)diffusion and its cost.

    observe, when present, maps states to the signal generating the partial
    information structure; feedback cells bin that signal.
    """

    n: int
    m: int
    d: int
    T: float
    x0: object
    b: object
    sigma: object
    ell: object
    phi: object
    control_box: np.ndarray
    b_x: object | None = None
    sigma_x: object | None = None
    ell_x: object | None = None
    phi_x: object | None = None
    jump: JumpSpec | None = None
    observe: object | None = None
    obs_dim: int | None = None

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("horizon must be positive")
        if min(self.n, self.m, self.d) < 1:
            raise DomainError("dimensions must be positive")
        box = np.atleast_2d(np.asarray(self.control_box, dtype=float))
        if box.shape != (self.d, 2):
            raise ShapeMismatch("control_box must have shape (d, 2)")
        object.__setattr__(self, "control_box", box)
        box.setflags(write=False)
        if self.jump is not None and self.jump.marks.shape[1] != self.n:
            raise ShapeMismatch("jump marks must live in the state space")
        if self.jump is not None and self.jump.C is None:
            raise DomainError("jump problems need the jump coefficient C")
        if self.b_x is None:
            object.__setattr__(self, "b_x", fd_gradient(self.b))
        if self.sigma_x is None:
            object.__setattr__(self, "sigma_x", fd_gradient(self.sigma))
        if self.ell_x is None:
            object.__setattr__(self, "ell_x", fd_gradient(self.ell))
        if self.phi_x is None:
            object.__setattr__(self, "phi_x", fd_gradient(self.phi, argpos=0))
        if self.jump is not None and self.jump.C_x is None:
            object.__setattr__(self, "jump", JumpSpec(self.jump.marks, self.jump.intensities, self.jump.C, fd_gradient(self.jump.C)))

    def initial_states(self, M: int, z: np.ndarray | None = None) -> np.ndarray:
        if isinstance(self.x0, GaussianInitial):
            if z is None:
                raise DomainError("stochastic initial state needs normal draws")
            return self.x0.sample(z)
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        return np.tile(x0, (M, 1))

    def observation(self, x: np.ndarray) -> np.ndarray:
        if self.observe is None:
            return x
        obs = np.asarray(self.observe(x), dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
        return obs


def _finite_or_raise(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteCoefficient(f"{what} produced NaN/Inf")
    return arr


def atom_values(f, grid, t, x, extra=(), what: str = "coefficient") -> np.ndarray:
    """f(t, x, *extra, xi_i) at every atom xi_i of the grid, stacked with the
    atom axis leading: shape (K, M, ...).  Raises NonFiniteCoefficient if any
    value is NaN/Inf."""
    points = grid.points
    first = np.asarray(f(t, x, *extra, points[0]), dtype=float)
    out = np.empty((points.shape[0],) + first.shape)
    out[0] = first
    for i in range(1, points.shape[0]):
        out[i] = f(t, x, *extra, points[i])
    return _finite_or_raise(out, what)


def contract_atoms(vals: np.ndarray, w) -> np.ndarray:
    """sum_i w[..., i] * vals[i] for atom-leading vals (K, M, ...) and weights
    w of shape (K,) or per path (M, K)."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        return np.einsum("k,k...->...", w, vals)
    return np.einsum("qk,kq...->q...", w, vals)


def _per_path(arr, M: int) -> np.ndarray:
    """A (M, a, b) array as given, or one shared (a, b) array broadcast to it."""
    arr = np.asarray(arr, dtype=float)
    return np.broadcast_to(arr, (M,) + arr.shape) if arr.ndim == 2 else arr


def atom_hamiltonians(p: Problem, grid, t, x, psi, Q, phi_row) -> tuple[np.ndarray, np.ndarray]:
    """Pathwise Hamiltonian at every grid atom, shape (K, M): drift pairing
    + diffusion trace pairing + running cost + jump pairing; and the same
    sum without the running cost, the adjoint pairing with each atom's
    coefficients, shape (K, M).

    Each coefficient is evaluated once per atom; the pairings contract the
    atom-leading tensors with psi (M, n), Q (M, n, m) and, for jump problems,
    phi_row (M, J, n).
    """
    x = np.atleast_2d(x)
    M = x.shape[0]
    psi = np.atleast_2d(psi)
    val = np.einsum("kqi,qi->kq", atom_values(p.b, grid, t, x, what="drift"), psi)
    val += np.einsum("kqab,qab->kq", atom_values(p.sigma, grid, t, x, what="diffusion"), _per_path(Q, M))
    pairing = val.copy()
    val += atom_values(p.ell, grid, t, x, what="running cost")
    if p.jump is not None:
        if phi_row is None:
            raise ShapeMismatch("jump problems need the jump intensity row of the adjoint")
        phi_row = _per_path(phi_row, M)
        for j in range(p.jump.J):
            cj = atom_values(p.jump.C, grid, t, x, extra=(p.jump.marks[j],), what="jump coefficient")
            term = np.einsum("kqi,qi->kq", cj, phi_row[:, j])
            del cj  # free the atom tensor before the sums
            term *= p.jump.intensities[j]
            val += term
            pairing += term
    return val, pairing


def _averaged(f, grid, t, x, w, what: str, extra=()):
    """Relaxed average sum_i w[..., i] f(t, x, *extra, xi_i); linear in w."""
    return contract_atoms(atom_values(f, grid, t, x, extra, what), w)


def averaged_drift(p: Problem, grid, t, x, w):
    """Relaxed-averaged drift sum_i w_i b(t, x, xi_i); linear in w."""
    return _averaged(p.b, grid, t, x, w, "drift")


def averaged_diffusion(p: Problem, grid, t, x, w):
    return _averaged(p.sigma, grid, t, x, w, "diffusion")


def averaged_running_cost(p: Problem, grid, t, x, w):
    return _averaged(p.ell, grid, t, x, w, "running cost")


def averaged_jump(p: Problem, grid, t, x, v, w):
    """Relaxed-averaged jump coefficient at a single mark v."""
    return _averaged(p.jump.C, grid, t, x, w, "jump coefficient", extra=(v,))


def averaged_drift_x(p: Problem, grid, t, x, w):
    return _averaged(p.b_x, grid, t, x, w, "drift gradient")


def averaged_diffusion_x(p: Problem, grid, t, x, w):
    return _averaged(p.sigma_x, grid, t, x, w, "diffusion gradient")


def averaged_running_cost_x(p: Problem, grid, t, x, w):
    return _averaged(p.ell_x, grid, t, x, w, "running cost gradient")


def averaged_jump_x(p: Problem, grid, t, x, v, w):
    return _averaged(p.jump.C_x, grid, t, x, w, "jump gradient", extra=(v,))


@dataclass
class AssumptionReport:
    """Empirical constants from Monte Carlo spot checks of the standing assumptions."""

    lipschitz_b: float = 0.0
    growth_b: float = 0.0
    lipschitz_sigma: float = 0.0
    growth_sigma: float = 0.0
    gradient_bound_b: float = 0.0
    gradient_bound_sigma: float = 0.0
    growth_ell: float = 0.0
    growth_phi: float = 0.0
    jump_growth: float = 0.0
    jump_lipschitz: float = 0.0
    max_gradient_mismatch: float = 0.0
    purity_ok: bool = True
    nonfinite: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.nonfinite


def validate_assumptions(p: Problem, samples: int = 200, seed: int = 0, scale: float = 2.0) -> AssumptionReport:
    """Spot-check Lipschitz/growth/gradient bounds at random points.

    Draws (t, x, y, xi) tuples, records the largest observed ratios, compares
    user-supplied gradients against central finite differences, and flags any
    non-finite evaluation.  Report-only: constants are evidence, not proof.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    rng = Generator(Philox(key=seed))
    rep = AssumptionReport()
    ts = rng.uniform(0.0, p.T, samples)
    xs = scale * rng.standard_normal((samples, p.n))
    ys = scale * rng.standard_normal((samples, p.n))
    lo, hi = p.control_box[:, 0], p.control_box[:, 1]
    xis = lo + (hi - lo) * rng.uniform(size=(samples, p.d))

    def check(name, arr):
        a = np.asarray(arr, dtype=float)
        if not np.all(np.isfinite(a)):
            rep.nonfinite.append(name)
        return a

    def bump(current, value):
        value = float(value)
        return max(current, value) if np.isfinite(value) else current

    fd_b = fd_gradient(p.b)
    fd_sigma = fd_gradient(p.sigma)
    fd_ell = fd_gradient(p.ell)
    fd_phi = fd_gradient(p.phi, argpos=0)
    for t, x, y, xi in zip(ts, xs, ys, xis):
        bx_val = check("b", p.b(t, x, xi))
        by_val = check("b", p.b(t, y, xi))
        sx_val = check("sigma", p.sigma(t, x, xi))
        sy_val = check("sigma", p.sigma(t, y, xi))
        gap = np.linalg.norm(x - y)
        rep.lipschitz_b = bump(rep.lipschitz_b, np.linalg.norm(bx_val - by_val) / gap)
        rep.lipschitz_sigma = bump(rep.lipschitz_sigma, np.linalg.norm(sx_val - sy_val) / gap)
        rep.growth_b = bump(rep.growth_b, np.linalg.norm(bx_val) / (1.0 + np.linalg.norm(x)))
        rep.growth_sigma = bump(rep.growth_sigma, np.linalg.norm(sx_val) / (1.0 + np.linalg.norm(x)))
        grad_b = check("b_x", p.b_x(t, x, xi))
        grad_s = check("sigma_x", p.sigma_x(t, x, xi))
        rep.gradient_bound_b = bump(rep.gradient_bound_b, np.abs(grad_b).max())
        rep.gradient_bound_sigma = bump(rep.gradient_bound_sigma, np.abs(grad_s).max())
        ell_val = check("ell", p.ell(t, x, xi))
        phi_val = check("phi", p.phi(np.atleast_2d(x)))
        rep.growth_ell = bump(rep.growth_ell, np.abs(ell_val) / (1.0 + np.dot(x, x)))
        rep.growth_phi = bump(rep.growth_phi, np.abs(phi_val).max() / (1.0 + np.dot(x, x)))
        if p.jump is not None:
            lam = p.jump.intensities
            cx = np.stack([check("C", p.jump.C(t, x, v, xi)) for v in p.jump.marks])
            cy = np.stack([check("C", p.jump.C(t, y, v, xi)) for v in p.jump.marks])
            nx = np.sqrt(np.sum(lam * np.sum(np.atleast_2d(cx) ** 2, axis=-1)))
            nd = np.sqrt(np.sum(lam * np.sum(np.atleast_2d(cx - cy) ** 2, axis=-1)))
            rep.jump_growth = bump(rep.jump_growth, nx / (1.0 + np.linalg.norm(x)))
            rep.jump_lipschitz = bump(rep.jump_lipschitz, nd / gap)
        for user, fd, args in (
            (p.b_x, fd_b, (t, x, xi)),
            (p.sigma_x, fd_sigma, (t, x, xi)),
            (p.ell_x, fd_ell, (t, x, xi)),
            (p.phi_x, fd_phi, (x,)),
        ):
            gu = np.asarray(user(*args), dtype=float)
            gf = np.asarray(fd(*args), dtype=float)
            rel = np.abs(gu - gf) / (1.0 + np.abs(gf))
            rep.max_gradient_mismatch = bump(rep.max_gradient_mismatch, rel.max())
    # purity: a second evaluation at the first sample must be bit-identical
    t0, x0, xi0 = ts[0], xs[0], xis[0]
    rep.purity_ok = bool(
        np.array_equal(np.asarray(p.b(t0, x0, xi0)), np.asarray(p.b(t0, x0, xi0)))
        and np.array_equal(np.asarray(p.sigma(t0, x0, xi0)), np.asarray(p.sigma(t0, x0, xi0)))
    )
    return rep
