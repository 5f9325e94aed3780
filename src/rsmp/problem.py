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
returned as a contiguous (K, M, ...) tensor, its values unchecked (a result
of length 1 on the atom axis does not depend on the control: evaluated once,
the sweeps keep it so).  Everything linear in the weights is a contraction
over the atom axis: `contract_atoms` pairs it with one weight row (K,), as
open loop resolves, or per-path weights (M, K) into the `averaged_*` values
(a value evaluated once times the weight row sum), and `atom_hamiltonians`
contracts it with the adjoint processes to get all K per-atom Hamiltonians
from one evaluation.  One check rule covers both: each contracted value
passes `errors.require_finite`, never the atoms (0 * Inf and Inf - Inf are
NaN, so any NaN/Inf atom shows, and so does a contraction that overflows).
Every sweep reads a step's coefficients through `averaged_coefficients` (or
its point-control twin `point_coefficients`), their state Jacobians through
`averaged_linearization` and phi, phi_x through `terminal_cost`,
`terminal_gradient`; no other module calls a coefficient, and a value of
another per-path shape than documented raises ShapeMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, ShapeMismatch, frozen_field, require_count, require_finite, require_positive
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


def _require_shape(vals, shape: tuple, what: str) -> np.ndarray:
    """vals as a float array, or ShapeMismatch("<what> has shape ..., expected ...") unless it has shape."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != shape:
        raise ShapeMismatch(f"{what} has shape {vals.shape}, expected {shape}")
    return vals


def _atom_values(f, grid, t, x, tail: tuple, extra=(), what: str = "coefficient") -> np.ndarray:
    """`atom_values` without its copy: a result of length 1 on the atom axis
    of (K, M, *tail), or of lower rank, stays (1, M, *tail), contiguous."""
    x = np.asarray(x, dtype=float)
    K = grid.K
    xi = grid.points.reshape((K,) + (1,) * (x.ndim - 1) + (grid.d,))
    try:
        raw = np.asarray(f(t, x[None], *extra, xi), dtype=float)
        shape = (K,) + x.shape[:-1] + raw.shape[x.ndim :]
        vals = raw if raw.shape == shape else np.broadcast_to(raw, shape)
    except ValueError as exc:
        raise ShapeMismatch(
            f"{what} does not broadcast over the {K} grid atoms: callables must broadcast "
            f"x (..., n) and xi (..., d) over their leading axes ({exc})"
        ) from exc
    _require_shape(vals[0], x.shape[:-1] + tail, what)  # the per-path shape, as a sweep sees it
    once = raw.ndim < len(shape) or raw.shape[0] < K  # length 1 on the atom axis, or no atom axis
    return np.ascontiguousarray(vals[:1] if once else vals)


def atom_values(f, grid, t, x, tail: tuple, extra=(), what: str = "coefficient") -> np.ndarray:
    """f(t, x, *extra, xi_i) at every atom xi_i of the grid, with the atom
    axis leading: shape (K, M, *tail) for states x (M, n).

    One call evaluates all atoms: x gains a leading axis and the grid points
    (K, d) broadcast against it, so f must broadcast x (..., n) and xi
    (..., d) over their leading axes.  A contiguous (K, M, ...) result is
    returned as it is; any other (a broadcast constant, say) is copied to
    one (the sweeps read `_atom_values`, which keeps a length-1 atom axis).  A
    call or result that does not broadcast, or a per-path trailing shape
    other than tail, raises ShapeMismatch naming what.  The values are not
    checked for NaN/Inf: every caller checks what it contracts them to.
    """
    vals = _atom_values(f, grid, t, x, tail, extra, what)
    return vals if len(vals) == grid.K else np.repeat(vals, grid.K, axis=0)


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


def atom_hamiltonians(p: Problem, grid, t, x, psi, Q, phi_row, *, pairing=True) -> tuple:
    """Pathwise Hamiltonian at every grid atom, shape (K, M): drift pairing
    + diffusion trace pairing + running cost + jump pairing; and the same
    sum without the running cost, the adjoint pairing with each atom's
    coefficients, shape (K, M), or None for a caller that passes
    pairing=False and reads only the Hamiltonian (its values are the same).

    Each coefficient is evaluated once for all atoms; the pairings contract
    the atom-leading tensors with psi (M, n), Q (M, n, m) and phi_row
    (M, J, n), which may be None for a diffusion (J = 0); the drift term is
    (K, M), and a value evaluated once adds one row to every atom.  Each
    contracted term (drift, diffusion, running cost, the jump term of each
    mark) passes `require_finite`, as the averages do: a NaN/Inf atom value,
    or a pairing that overflows, raises NonFiniteCoefficient naming the
    coefficient.  The two sums may overflow to Inf, without a numpy
    warning: each caller checks what it reduces them to.
    """
    x = np.atleast_2d(x)
    M, n = x.shape[0], p.n
    psi, Q = np.atleast_2d(psi), _per_path(Q, M)
    with np.errstate(over="ignore"):
        val = require_finite(np.einsum("kqi,qi->kq", atom_values(p.b, grid, t, x, (n,), what="drift"), psi), "drift")
        val += require_finite(
            np.einsum("kqab,qab->kq", _atom_values(p.sigma, grid, t, x, (n, p.m), what="diffusion"), Q), "diffusion"
        )
        pairing = val.copy() if pairing else None
        val += require_finite(_atom_values(p.ell, grid, t, x, (), what="running cost"), "running cost")
        if p.jump.J and phi_row is None:
            raise ShapeMismatch("jump problems need the jump intensity row of the adjoint")
        for j in range(p.jump.J):
            cj = _atom_values(p.jump.C, grid, t, x, (n,), (p.jump.marks[j],), "jump coefficient")
            term = np.einsum("kqi,qi->kq", cj, _per_path(phi_row, M)[:, j])
            del cj  # free the atom tensor before the sums
            term *= p.jump.intensities[j]
            val += require_finite(term, "jump coefficient")
            if pairing is not None:
                pairing += term
    return val, pairing


def _averaged(f, grid, t, x, w, tail: tuple, what: str, extra=(), total=None):
    """Relaxed average sum_i w[..., i] f(t, x, *extra, xi_i); linear in w.  A
    value evaluated once for all atoms is scaled by total, the row sum of w."""
    vals = _atom_values(f, grid, t, x, tail, extra, what)
    if len(vals) == grid.K:
        return require_finite(contract_atoms(vals, w), what)
    total = np.asarray(w, dtype=float) @ np.ones(grid.K) if total is None else total
    with np.errstate(over="ignore", invalid="ignore"):  # Inf * 0 is NaN: checked below
        return require_finite(vals[0] * total.reshape(total.shape + (1,) * len(tail)), what)


def averaged_drift(p: Problem, grid, t, x, w, total=None):
    """Relaxed-averaged drift sum_i w_i b(t, x, xi_i); linear in w."""
    return _averaged(p.b, grid, t, x, w, (p.n,), "drift", total=total)


def averaged_diffusion(p: Problem, grid, t, x, w, total=None):
    return _averaged(p.sigma, grid, t, x, w, (p.n, p.m), "diffusion", total=total)


def averaged_running_cost(p: Problem, grid, t, x, w, total=None):
    return _averaged(p.ell, grid, t, x, w, (), "running cost", total=total)


def averaged_jump(p: Problem, grid, t, x, v, w, total=None):
    """Relaxed-averaged jump coefficient at a single mark v."""
    return _averaged(p.jump.C, grid, t, x, w, (p.n,), "jump coefficient", (v,), total)


def averaged_drift_x(p: Problem, grid, t, x, w, total=None):
    return _averaged(p.b_x, grid, t, x, w, (p.n, p.n), "drift gradient", total=total)


def averaged_diffusion_x(p: Problem, grid, t, x, w, total=None):
    return _averaged(p.sigma_x, grid, t, x, w, (p.n, p.m, p.n), "diffusion gradient", total=total)


def averaged_running_cost_x(p: Problem, grid, t, x, w, total=None):
    return _averaged(p.ell_x, grid, t, x, w, (p.n,), "running cost gradient", total=total)


def averaged_jump_x(p: Problem, grid, t, x, v, w, total=None):
    return _averaged(p.jump.C_x, grid, t, x, w, (p.n, p.n), "jump gradient", (v,), total)


def _step_averages(p: Problem, grid, t, x, w, averages, jump_average) -> tuple:
    """The averages under weights w, then jump_average per mark, sharing one row sum of w."""
    total = np.asarray(w, dtype=float) @ np.ones(grid.K)  # a product: w.sum(-1) is several times slower
    values = tuple(average(p, grid, t, x, w, total) for average in averages)
    return values + ([jump_average(p, grid, t, x, v, w, total) for v in p.jump.marks],)


def averaged_coefficients(p: Problem, grid, t, x, w) -> tuple:
    """One Euler step's coefficients under weights w: drift (M, n), diffusion
    (M, n, m), running cost (M,) and the list of jump coefficients (M, n),
    one per mark in order (ShapeMismatch for another trailing shape)."""
    return _step_averages(p, grid, t, x, w, (averaged_drift, averaged_diffusion, averaged_running_cost), averaged_jump)


def point_coefficients(p: Problem, t, x, xi) -> tuple:
    """`averaged_coefficients`' values and shape rule at point control values xi, unchecked for NaN/Inf."""
    lead, n = np.shape(x)[:-1], p.n
    return (
        _require_shape(p.b(t, x, xi), lead + (n,), "drift"),
        _require_shape(p.sigma(t, x, xi), lead + (n, p.m), "diffusion"),
        _require_shape(p.ell(t, x, xi), lead, "running cost"),
        [_require_shape(p.jump.C(t, x, v, xi), lead + (n,), "jump coefficient") for v in p.jump.marks],
    )


def averaged_linearization(p: Problem, grid, t, x, w) -> tuple:
    """The state Jacobians under weights w: b_x (M, n, n), sigma_x (M, n, m, n),
    l_x (M, n) and the list of C_x (M, n, n), one per mark in order
    (ShapeMismatch for another trailing shape)."""
    gradients = (averaged_drift_x, averaged_diffusion_x, averaged_running_cost_x)
    return _step_averages(p, grid, t, x, w, gradients, averaged_jump_x)


def terminal_cost(p: Problem, x) -> np.ndarray:
    """phi at the terminal states x (M, n), shape (M,) (ShapeMismatch otherwise)."""
    return _require_shape(p.phi(x), np.shape(x)[:-1], "terminal cost")


def terminal_gradient(p: Problem, x) -> np.ndarray:
    """phi_x at the terminal states x (M, n), shape (M, n) (ShapeMismatch otherwise)."""
    return _require_shape(p.phi_x(x), np.shape(x), "terminal cost gradient")


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
