"""Control problem definition: dynamics, costs, jumps, information structure.

Coefficient callables are vectorized numpy functions whose state and control
arguments broadcast over their leading axes:

    b(t, x, xi)     -> (..., n)      x: (..., n), xi: (..., d)
    sigma(t, x, xi) -> (..., n, m)
    ell(t, x, xi)   -> (...,)
    phi(x)          -> (...,)

so a call with x (1, M, n) and xi (K, 1, d) returns all K atoms on all M
paths at once.  Spatial gradients follow the convention grad[..., i, j] =
d f_i / d x_j; the diffusion derivative sigma_x has shape (..., n, m, n)
with the last axis the differentiation direction.  Missing gradients fall
back to central finite differences.  Callables must be pure functions of
their arguments.

Relaxed controls only ever see a coefficient through its values at the K
atoms of a control grid.  `atom_values` is the single place that evaluates a
coefficient on a grid: one broadcast call with the atom axis leading,
returned as a contiguous (K, M, ...) tensor and checked for NaN/Inf once.
Everything linear in the weights is a contraction of that tensor over its
leading axis: `contract_atoms` pairs it with a weight vector (K,) or
per-path weights (M, K), which is what the `averaged_*` functions return,
and `atom_hamiltonians` contracts it with the adjoint processes to get all
K per-atom Hamiltonians from one evaluation.  Every sweep reads a step's
coefficients through `averaged_coefficients` (or its point-control twin
`point_coefficients`) and their state Jacobians through
`averaged_linearization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, NonFiniteCoefficient, ShapeMismatch, frozen_field, require_count, require_positive
from .errors import require_seed

FD_STEP = 1e-5


@dataclass(frozen=True)
class GaussianInitial:
    """Gaussian initial state with the given mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = frozen_field(self, "mean", 1, "initial mean")
        cov = frozen_field(self, "cov", 2, "initial covariance")
        if cov.shape != (mean.size, mean.size):
            raise ShapeMismatch("covariance must be (n, n)")
        object.__setattr__(self, "_chol", np.linalg.cholesky(cov + 0.0))

    def sample(self, z: np.ndarray) -> np.ndarray:
        """Map standard normal draws (..., n) to initial states."""
        return self.mean + z @ self._chol.T


def _fd_scale(x: np.ndarray, step: float) -> np.ndarray:
    # h = step * (1 + |x|), per sample
    return step * (1.0 + np.linalg.norm(x, axis=-1))


def fd_gradient(f, argpos: int = 1, step: float = FD_STEP):
    """Central-difference gradient of f in its state argument.

    Works for any coefficient whose state argument sits at position argpos
    in the call, with any number of leading axes on it; returns a callable
    with one extra trailing axis (the differentiation direction).
    """
    step = require_positive(step, "finite-difference step")

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
            up = args[:argpos] + (x + h[..., None] * e,) + args[argpos + 1 :]
            dn = args[:argpos] + (x - h[..., None] * e,) + args[argpos + 1 :]
            fu = np.asarray(f(*up), dtype=float)
            fl = np.asarray(f(*dn), dtype=float)
            denom = (2.0 * h).reshape(h.shape + (1,) * (fu.ndim - h.ndim))
            cols.append((fu - fl) / denom)
        out = np.stack(cols, axis=-1)
        return out[0] if squeeze else out

    return grad


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump component: atomic jump measure plus kernel.

    marks: (J, n) nonzero jump sites; intensities: (J,) positive rates per unit time;
    C(t, x, v, xi) -> (..., n) is the jump coefficient and C_x its spatial
    gradient (..., n, n), central differences of C when not given.  A
    diffusion has J = 0 marks, and only then may C be None.
    """

    marks: np.ndarray
    intensities: np.ndarray
    C: object
    C_x: object | None = None

    def __post_init__(self):
        marks = frozen_field(self, "marks", 2, "jump marks")
        lam = frozen_field(self, "intensities", 1, "jump intensities")
        if marks.shape[0] != lam.size:
            raise ShapeMismatch("one intensity per mark")
        # solve_bsde divides by lam * dt, so a zero-rate mark is an input error
        if np.any(lam <= 0) or not np.isfinite(lam.sum()):
            raise DomainError("intensities must be positive and finite in total")
        if np.any(np.all(marks == 0.0, axis=1)):
            raise DomainError("jump marks must be nonzero vectors")
        if self.J and self.C is None:
            raise DomainError("jump problems need the jump coefficient C")
        if self.C_x is None:
            object.__setattr__(self, "C_x", fd_gradient(self.C))

    @property
    def J(self) -> int:
        return self.marks.shape[0]

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())


@dataclass(frozen=True)
class Problem:
    """Coefficient bundle for a controlled (jump-)diffusion and its cost.

    jump is a JumpSpec; jump=None builds a diffusion, the spec without marks.
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

    def __post_init__(self):
        require_positive(self.T, "horizon T")
        for name in ("n", "m", "d"):
            require_count(getattr(self, name), name)
        x0 = self.x0.mean if isinstance(self.x0, GaussianInitial) else frozen_field(self, "x0", 1)
        if x0.shape != (self.n,):
            raise ShapeMismatch(f"x0 must have shape ({self.n},), got {x0.shape}")
        if frozen_field(self, "control_box", 2).shape != (self.d, 2):
            raise ShapeMismatch("control_box must have shape (d, 2)")
        if self.jump is None:  # a diffusion: the jump measure without atoms
            object.__setattr__(self, "jump", JumpSpec(np.zeros((0, self.n)), np.zeros(0), None))
        if self.jump.marks.shape[1] != self.n:
            raise ShapeMismatch("jump marks must live in the state space")
        for name, argpos in (("b", 1), ("sigma", 1), ("ell", 1), ("phi", 0)):
            if getattr(self, name + "_x") is None:
                object.__setattr__(self, name + "_x", fd_gradient(getattr(self, name), argpos))

    def initial_states(self, M: int, z: np.ndarray | None = None) -> np.ndarray:
        if isinstance(self.x0, GaussianInitial):
            if z is None:
                raise DomainError("stochastic initial state needs normal draws")
            return self.x0.sample(z)
        return np.tile(self.x0, (M, 1))

    def observation(self, x: np.ndarray) -> np.ndarray:
        if self.observe is None:
            return x
        obs = np.asarray(self.observe(x), dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
        return obs


def atom_values(f, grid, t, x, extra=(), what: str = "coefficient") -> np.ndarray:
    """f(t, x, *extra, xi_i) at every atom xi_i of the grid, with the atom
    axis leading: shape (K, M, ...) for states x (M, n).

    One call evaluates all atoms: x gains a leading axis and the grid points
    (K, d) broadcast against it, so f must broadcast x (..., n) and xi
    (..., d) over their leading axes.  The result is copied to a contiguous
    (K, M, ...) tensor, also when f returns a broadcast constant.  A call or
    result that does not broadcast raises ShapeMismatch; a NaN/Inf value
    raises NonFiniteCoefficient.
    """
    x = np.asarray(x, dtype=float)
    K = grid.K
    xi = grid.points.reshape((K,) + (1,) * (x.ndim - 1) + (grid.d,))
    try:
        raw = np.asarray(f(t, x[None], *extra, xi), dtype=float)
        out = np.broadcast_to(raw, (K,) + x.shape[:-1] + raw.shape[x.ndim :])
    except ValueError as exc:
        raise ShapeMismatch(
            f"{what} does not broadcast over the {K} grid atoms: callables must broadcast "
            f"x (..., n) and xi (..., d) over their leading axes ({exc})"
        ) from exc
    if not np.all(np.isfinite(raw)):
        raise NonFiniteCoefficient(f"{what} produced NaN/Inf")
    return np.ascontiguousarray(out)


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

    Each coefficient is evaluated once for all atoms; the pairings contract
    the atom-leading tensors with psi (M, n), Q (M, n, m) and phi_row
    (M, J, n), which may be None for a diffusion (J = 0).
    """
    x = np.atleast_2d(x)
    M = x.shape[0]
    psi = np.atleast_2d(psi)
    val = np.einsum("kqi,qi->kq", atom_values(p.b, grid, t, x, what="drift"), psi)
    val += np.einsum("kqab,qab->kq", atom_values(p.sigma, grid, t, x, what="diffusion"), _per_path(Q, M))
    pairing = val.copy()
    val += atom_values(p.ell, grid, t, x, what="running cost")
    if p.jump.J and phi_row is None:
        raise ShapeMismatch("jump problems need the jump intensity row of the adjoint")
    for j in range(p.jump.J):
        cj = atom_values(p.jump.C, grid, t, x, extra=(p.jump.marks[j],), what="jump coefficient")
        term = np.einsum("kqi,qi->kq", cj, _per_path(phi_row, M)[:, j])
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


def _check_step(p: Problem, x, step: tuple, gradients: bool = False) -> tuple:
    """The step tuple (b, sigma, l, [C per mark]) unchanged, after checking
    each value against x's leading axes and its trailing shape: (n,), (n, m),
    () and (n,), or for the gradients (n, n), (n, m, n), (n,) and (n, n).  A
    wrong shape raises ShapeMismatch naming the value and both shapes."""
    n, m = p.n, p.m
    tails = ((n, n), (n, m, n), (n,), (n, n)) if gradients else ((n,), (n, m), (), (n,))
    *fixed, per_mark = step
    for i, val in enumerate(fixed + per_mark):
        i = min(i, 3)  # every jump value is checked as the fourth entry
        if val.shape != np.shape(x)[:-1] + tails[i]:
            name = ("drift", "diffusion", "running cost", "jump coefficient")[i] + (" gradient" if gradients else "")
            raise ShapeMismatch(f"{name} has shape {val.shape}, expected {np.shape(x)[:-1] + tails[i]}")
    return step


def averaged_coefficients(p: Problem, grid, t, x, w) -> tuple:
    """One Euler step's coefficients under weights w: drift (M, n), diffusion
    (M, n, m), running cost (M,) and the list of jump coefficients (M, n),
    one per mark in order (ShapeMismatch for another trailing shape)."""
    return _check_step(p, x, (
        averaged_drift(p, grid, t, x, w),
        averaged_diffusion(p, grid, t, x, w),
        averaged_running_cost(p, grid, t, x, w),
        [averaged_jump(p, grid, t, x, v, w) for v in p.jump.marks],
    ))


def point_coefficients(p: Problem, t, x, xi) -> tuple:
    """The coefficients of `averaged_coefficients` at point control values xi."""
    return _check_step(p, x, (
        np.asarray(p.b(t, x, xi), dtype=float),
        np.asarray(p.sigma(t, x, xi), dtype=float),
        np.asarray(p.ell(t, x, xi), dtype=float),
        [np.asarray(p.jump.C(t, x, v, xi), dtype=float) for v in p.jump.marks],
    ))


def averaged_linearization(p: Problem, grid, t, x, w) -> tuple:
    """The state Jacobians under weights w: b_x (M, n, n), sigma_x (M, n, m, n),
    l_x (M, n) and the list of C_x (M, n, n), one per mark in order
    (ShapeMismatch for another trailing shape)."""
    return _check_step(p, x, (
        averaged_drift_x(p, grid, t, x, w),
        averaged_diffusion_x(p, grid, t, x, w),
        averaged_running_cost_x(p, grid, t, x, w),
        [averaged_jump_x(p, grid, t, x, v, w) for v in p.jump.marks],
    ), gradients=True)


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
    samples = require_count(samples, "samples")
    scale = require_positive(scale, "scale")
    rng = Generator(Philox(key=require_seed(seed)))
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
        if p.jump.J:
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
