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
atoms of a control grid, and `_atom_view` is the one place that evaluates a
coefficient on a grid: one broadcast call with the atom axis leading, its
result kept in its smallest exact form (1 or K, 1 or M, *tail).  The atom
axis has length 1 for a value evaluated once (it does not depend on the
control), the path axis length 1 for a value the same on every path (a
constant sigma, the LQ b_x = A); any other value is a contiguous (K, M,
*tail) tensor.  Everything linear in the weights contracts that form over
the atom axis, and einsum broadcasts a length-1 path axis: `contract_atoms`
pairs it with one weight row (K,), as open loop resolves, or per-path
weights (M, K) into the `averaged_*` values, and `atom_hamiltonians` pairs
it with the adjoint processes to get all K per-atom Hamiltonians from one
evaluation.  Weights are a relaxed control's, a probability measure on the
atoms (total mass 1), or a direction's, the difference of two (total mass
0); no row is ever summed.  A value evaluated once averages to itself under
a control, returned as it is, and to zero under a direction, which only
`averaged_coefficients` is given (its `mass`).  The
values themselves are never checked: each contracted value (or row, or
term) passes `errors.require_finite` instead (0 * Inf and Inf - Inf are
NaN, so any NaN/Inf atom shows, and so does a contraction that overflows).
The backward sweep checks one reduction further: the per-step cell sums of
the atom Hamiltonians, which every NaN/Inf term reaches, and only a step
whose sums are not finite has its terms checked one by one to name the
coefficient.  `point_coefficients` evaluates only the control values in
force, so a NaN at any other atom never shows.
Every sweep reads a step's coefficients through `averaged_coefficients` (or
its point-control twin `point_coefficients`), their state Jacobians through
`averaged_linearization` and phi, phi_x through `terminal_cost`,
`terminal_gradient`; no other module calls a coefficient, and a value of
another per-path shape than documented raises ShapeMismatch.

A problem declares `separable` when b, sigma, ell and C are each additively
separable in state and control, f(t, x, xi) = g(t, x) + h(t, xi).  Then
f(x, xi_i) = f(x, xi_0) + Delta_i, Delta_i = f(x_r, xi_i) - f(x_r, xi_0) at
any state x_r, and sum_i w_i f(x, xi_i) = f(x, xi_0) + w . Delta under a
control's weights, w . Delta alone under a direction's, which so evaluates
f on no path.  `atom_differences`, every sweep's one call per step,
forms the tables at the mean of x0, a state fixed by the problem, so a
path's value depends on its own state alone, and checks the declaration at
the step's two extreme states (DomainError naming the coefficient).  The
backward sweep bins the Hamiltonian at xi_0 and the per-path arrays the
tables pair with, not all K atom Hamiltonians; the forward and variational
sweeps average by the identity (`_separable_coefficients`).
The field of a declared problem equals the one-hot `hamiltonian` averages
to rounding; that of an undeclared problem equals the one-hot `hamiltonian`
rows summed by the same blocked rule (`adjoint._cell_sums`), bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, NonPSD, ShapeMismatch, frozen_field, require_count, require_finite, require_positive

FD_STEP = 1e-5
SYMMETRY_TOL = 1e-10
SEPARABLE_TOL = 1e-9  # of a coefficient's largest value: its two Delta tables may differ by rounding only


@dataclass(frozen=True)
class GaussianInitial:
    """Gaussian initial state with the given mean and covariance.

    The covariance must be symmetric (NonPSD beyond SYMMETRY_TOL: its
    Cholesky factor would read the lower triangle alone) and positive
    definite (NonPSD otherwise)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = frozen_field(self, "mean", 1, "initial mean")
        cov = frozen_field(self, "cov", 2, "initial covariance")
        if cov.shape != (mean.size, mean.size):
            raise ShapeMismatch("covariance must be (n, n)")
        if np.any(np.abs(cov - cov.T) > SYMMETRY_TOL):
            raise NonPSD("initial covariance is not symmetric")
        try:
            object.__setattr__(self, "_chol", np.linalg.cholesky(cov + 0.0))
        except np.linalg.LinAlgError:
            raise NonPSD("initial covariance must be positive definite") from None

    def sample(self, z: np.ndarray) -> np.ndarray:
        """Map standard normal draws (..., n) to initial states."""
        return self.mean + z @ self._chol.T


def _fd_scale(x: np.ndarray, step: float) -> np.ndarray:
    # h = step * (1 + |x|), per sample
    return step * (1.0 + np.linalg.norm(x, axis=-1))


def _require_callable(f, what: str, optional: bool = False):
    """f as given; DomainError("<what> must be callable") unless it is callable (or None where optional)."""
    if not (callable(f) or optional and f is None):
        raise DomainError(f"{what} must be callable")
    return f


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
        C = _require_callable(self.C, "C", optional=True)
        if _require_callable(self.C_x, "C_x", optional=True) is None:
            object.__setattr__(self, "C_x", fd_gradient(C))

    @property
    def J(self) -> int:
        return self.marks.shape[0]


@dataclass(frozen=True)
class Problem:
    """Coefficient bundle for a controlled (jump-)diffusion and its cost.

    jump is a JumpSpec; jump=None builds a diffusion, the spec without marks.
    observe, when present, maps states to the signal generating the partial
    information structure; feedback cells bin that signal.  separable
    declares b, sigma, ell and C additively separable in state and control:
    the backward sweep's cell sums and their averages under any weights in
    the forward and variational sweeps then take the separable identity
    (see the module docstring), which moves results by rounding only.
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
    separable: bool = False

    def __post_init__(self):
        require_positive(self.T, "horizon T")
        if not isinstance(self.separable, (bool, np.bool_)):
            raise DomainError(f"separable must be True or False, got {self.separable!r}")
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
            f = _require_callable(getattr(self, name), name)
            if _require_callable(getattr(self, name + "_x"), name + "_x", optional=True) is None:
                object.__setattr__(self, name + "_x", fd_gradient(f, argpos))
        _require_callable(self.observe, "observe", optional=True)

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


def _same_on_every_path(a: np.ndarray) -> bool:
    """True when a (M, ...) is a broadcast along its path axis."""
    return len(a) > 1 and a.strides[0] == 0


def _atom_view(f, grid, t, x, tail: tuple, extra=(), what: str = "coefficient") -> np.ndarray:
    """f(t, x, *extra, xi_i) at every atom xi_i of the grid, atom axis
    leading, for states x (M, n), in its smallest exact form (1 or K, 1 or
    M, *tail).

    One call evaluates all atoms: x gains a leading axis and the grid points
    (K, d) broadcast against it, so f must broadcast x (..., n) and xi
    (..., d) over their leading axes.  A result of length 1 on the atom axis,
    or of lower rank, was evaluated once and keeps one atom; a result that
    is a broadcast along the path axis keeps one path, as a view of f's
    result; any other is contiguous, f's own array when it already is.  A
    call or result that does not broadcast, or a per-path trailing shape
    other than tail, raises ShapeMismatch naming what.  The values are not
    checked for NaN/Inf: every caller checks what it contracts them to.
    """
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
    if raw.ndim < len(shape) or raw.shape[0] < K:  # length 1 on the atom axis, or no atom axis
        vals = vals[:1]
    return vals[:, :1] if _same_on_every_path(vals[0]) else np.ascontiguousarray(vals)


def contract_atoms(vals: np.ndarray, w) -> np.ndarray:
    """sum_i w[..., i] * vals[i] for atom-leading vals (K, M, ...) and weights
    w of shape (K,) or per path (M, K)."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        return np.einsum("k,k...->...", w, vals)
    return np.einsum("qk,kq...->q...", w, vals)


def atom_hamiltonians(p: Problem, grid, t, x, psi, Q, phi_row, *, pairing=True, checked=True) -> tuple:
    """Pathwise Hamiltonian at every grid atom, shape (K, M): drift pairing
    + diffusion trace pairing + running cost + jump pairing; and the same
    sum without the running cost, the adjoint pairing with each atom's
    coefficients, shape (K, M), or None for a caller that passes
    pairing=False and reads only the Hamiltonian (its values are the same).

    Each coefficient is evaluated once for all atoms by `_atom_view`, and
    its form is paired as it is with the per-path arrays x (M, n), psi (M, n),
    Q (M, n, m) and phi_row (M, J, n), None for a diffusion (J = 0), which
    are not reshaped (`hamiltonian` broadcasts shared ones): a value evaluated
    once gives one term row, added to every atom (the drift's is repeated
    to K rows, which start the sums), and a value the same on every path is
    paired as one path row.  Each term (drift, diffusion, running cost, the
    jump term of each mark) passes `require_finite` as it is paired, as the
    averages do: a NaN/Inf atom value, or a pairing that overflows, raises
    NonFiniteCoefficient naming the coefficient.  With checked=False no term
    is checked and a NaN/Inf term reaches both sums; a caller that finds one
    in what it reduces them to calls again, checked, to name the
    coefficient.  The two sums may overflow to Inf, or turn NaN, without a
    numpy warning: each caller checks what it reduces them to.
    """

    def check(term, what):
        return require_finite(term, what) if checked else term

    with np.errstate(over="ignore", invalid="ignore"):
        val = check(np.einsum("kqi,qi->kq", _atom_view(p.b, grid, t, x, (p.n,), what="drift"), psi), "drift")
        if len(val) < grid.K:  # a drift evaluated once: its one term row for every atom
            val = np.repeat(val, grid.K, axis=0)
        val += check(
            np.einsum("kqab,qab->kq", _atom_view(p.sigma, grid, t, x, (p.n, p.m), what="diffusion"), Q), "diffusion"
        )
        pairing = val.copy() if pairing else None
        val += check(_atom_view(p.ell, grid, t, x, (), what="running cost"), "running cost")
        if p.jump.J and phi_row is None:
            raise ShapeMismatch("jump problems need the jump intensity row of the adjoint")
        for j in range(p.jump.J):
            cj = _atom_view(p.jump.C, grid, t, x, (p.n,), (p.jump.marks[j],), "jump coefficient")
            term = np.einsum("kqi,qi->kq", cj, phi_row[:, j])
            del cj  # free the atom tensor before the sums
            term *= p.jump.intensities[j]
            val += check(term, "jump coefficient")
            if pairing is not None:
                pairing += term
    return val, pairing


def _reference_states(p: Problem, x: np.ndarray) -> np.ndarray:
    """The states (3, n) a Delta table is taken at: the mean of x0, a state
    fixed by the problem, so that an average by the table depends on its
    path's own state alone; then the two states among x (M, n) of least and
    greatest coordinate sum, where the declaration is checked."""
    ends = reduce(np.add, x.T)  # not x.sum(axis=1): numpy's sum over a short last axis is slow
    x0 = p.x0.mean if isinstance(p.x0, GaussianInitial) else p.x0
    return np.stack([x0, x[ends.argmin()], x[ends.argmax()]])


def _atom_difference(f, grid, t, references, tail: tuple, extra, what: str):
    """Delta table (K, *tail) of a coefficient f of a separable problem at
    the first of its `_reference_states`, f(t, x_r, *extra, xi_i) -
    f(t, x_r, *extra, xi_0) at every atom, or None for a value without an
    atom axis; one call at all three states.  DomainError names a
    coefficient whose finite tables at the other two states differ from it
    by more than SEPARABLE_TOL (1e-9) times its largest value there.  A
    value that is not finite is not checked, and makes the table not
    finite, which the caller checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _atom_view(f, grid, t, references, tail, extra, what)
        if len(vals) == 1:
            return None
        delta = vals - vals[:1]
        off = np.abs(delta - delta[:, :1]).max()
        if off > SEPARABLE_TOL * np.abs(vals).max():
            raise DomainError(f"{what} is declared separable, but its atom differences depend on the state")
    return delta[:, 0] if np.isfinite(off) else np.full_like(delta[:, 0], np.nan)


def _coefficients(p: Problem) -> list:
    """(callable, per-path tail, extra arguments, name) of b, sigma, ell and each C."""
    coefficients = [(p.b, (p.n,), (), "drift"), (p.sigma, (p.n, p.m), (), "diffusion"), (p.ell, (), (), "running cost")]
    return coefficients + [(p.jump.C, (p.n,), (v,), "jump coefficient") for v in p.jump.marks]


def atom_differences(p: Problem, grid, t, x) -> list:
    """`_atom_difference` tables of a separable problem at a step's states x
    (M, n): per coefficient b, sigma, ell and C (one per mark), in that
    order, at the same `_reference_states` of x."""
    references = _reference_states(p, x)
    return [_atom_difference(f, grid, t, references, tail, extra, what) for f, tail, extra, what in _coefficients(p)]


def _averaged(f, grid, t, x, w, tail: tuple, what: str, extra=(), mass=1.0):
    """Relaxed average sum_i w[..., i] f(t, x, *extra, xi_i) of `_atom_view`'s
    form under weights w whose rows have total mass 1 (a control's) or 0 (a
    direction's).  A value with an atom axis is contracted with w, which may
    also be a function returning the weights, called only then.  A value
    evaluated once for all atoms is mass times itself: the value as it is
    (checked, a read-only view) under mass 1, zero under 0.  A value the
    same on every path is averaged and checked as one row, returned as a
    read-only broadcast view, unless per-path weights spread it."""
    M, vals = np.shape(x)[0], _atom_view(f, grid, t, x, tail, extra, what)
    if len(vals) == grid.K:
        out = require_finite(contract_atoms(vals, w() if callable(w) else w), what)
        return out if len(out) == M else np.broadcast_to(out, (M,) + tail)
    return np.broadcast_to(require_finite(vals[0], what) if mass else 0.0, (M,) + tail)


def _separable_coefficients(p: Problem, grid, t, x, w, mass) -> tuple:
    """`averaged_coefficients` of a problem declared separable: each of b,
    sigma, ell and C as f(x, xi_0) + w . Delta under mass 1 and w . Delta
    alone under mass 0, f(x, xi_0) one evaluation on the M paths (made only
    under mass 1) and Delta its `atom_differences` table, under one weight
    row (K,) or per-path rows (M, K) alike; a value without an atom axis is
    mass times itself, as `_averaged` forms it.  Each row's product with a
    table is summed on its own (einsum; a BLAS product sums a row by its
    position), so a path's bits are its own.  A value that is not finite is
    averaged again per atom, which names the coefficient."""
    M, lead = len(x), np.shape(w)[:-1]
    values = []
    for (f, tail, extra, what), delta in zip(_coefficients(p), atom_differences(p, grid, t, x)):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = _atom_view(f, grid._first_atom, t, x, tail, extra, what)[0] if mass else 0.0
            if delta is not None:  # a (T, K) copy: each row's dot with a column runs over contiguous atoms
                shift = np.einsum("...k,tk->...t", w, delta.reshape(len(delta), -1).T.copy()).reshape(lead + tail)
                out = out + shift if mass else shift
        if not np.isfinite(out).all():
            out = _averaged(f, grid, t, x, w, tail, what, extra, mass)
        elif delta is None or out.shape != (M,) + tail:  # f's own value, or one row for every path
            out = np.broadcast_to(out, (M,) + tail)
        values.append(out)
    return (*values[:3], values[3:])


def averaged_drift(p: Problem, grid, t, x, w):
    """Relaxed-averaged drift sum_i w_i b(t, x, xi_i) under a control's weights w."""
    return _averaged(p.b, grid, t, x, w, (p.n,), "drift")


def averaged_diffusion(p: Problem, grid, t, x, w):
    return _averaged(p.sigma, grid, t, x, w, (p.n, p.m), "diffusion")


def averaged_running_cost(p: Problem, grid, t, x, w):
    return _averaged(p.ell, grid, t, x, w, (), "running cost")


def averaged_jump(p: Problem, grid, t, x, v, w):
    """Relaxed-averaged jump coefficient at a single mark v."""
    return _averaged(p.jump.C, grid, t, x, w, (p.n,), "jump coefficient", (v,))


def averaged_drift_x(p: Problem, grid, t, x, w):
    return _averaged(p.b_x, grid, t, x, w, (p.n, p.n), "drift gradient")


def averaged_diffusion_x(p: Problem, grid, t, x, w):
    return _averaged(p.sigma_x, grid, t, x, w, (p.n, p.m, p.n), "diffusion gradient")


def averaged_running_cost_x(p: Problem, grid, t, x, w):
    return _averaged(p.ell_x, grid, t, x, w, (p.n,), "running cost gradient")


def averaged_jump_x(p: Problem, grid, t, x, v, w):
    return _averaged(p.jump.C_x, grid, t, x, w, (p.n, p.n), "jump gradient", (v,))


def averaged_coefficients(p: Problem, grid, t, x, w, mass=1.0) -> tuple:
    """One Euler step's coefficients under weights w, one row (K,) or per
    path (M, K), of total mass 1 (a control) or 0 (a direction, the
    difference of two): drift (M, n), diffusion (M, n, m), running cost (M,)
    and the list of jump coefficients (M, n), one per mark in order
    (ShapeMismatch for another trailing shape).  A value the same on every
    path under one weight row, or without an atom axis, is a read-only
    broadcast view.  A problem declared separable averages by the one
    separable rule (`_separable_coefficients`), equal to the per-atom
    contraction of any other problem to rounding."""
    if p.separable:
        return _separable_coefficients(p, grid, t, x, w, mass)
    values = [_averaged(f, grid, t, x, w, tail, what, extra, mass) for f, tail, extra, what in _coefficients(p)]
    return (*values[:3], values[3:])


def point_coefficients(p: Problem, t, x, xi) -> tuple:
    """`averaged_coefficients`' values and shape rule at point control values xi, unchecked for NaN/Inf."""
    lead = np.shape(x)[:-1]
    values = [_require_shape(f(t, x, *extra, xi), lead + tail, what) for f, tail, extra, what in _coefficients(p)]
    return (*values[:3], values[3:])


def averaged_linearization(p: Problem, grid, t, x, w) -> tuple:
    """The state Jacobians under the weights w of a control: b_x (M, n, n),
    sigma_x (M, n, m, n), l_x (M, n) and the list of C_x (M, n, n), one per
    mark in order (ShapeMismatch for another trailing shape).  w may be a
    function returning the weights, which a Jacobian that does not depend
    on the control never calls; such a Jacobian, or one the same on every
    path under one weight row (K,), is a read-only broadcast view."""
    b_x, sigma_x, l_x = (f(p, grid, t, x, w) for f in (averaged_drift_x, averaged_diffusion_x, averaged_running_cost_x))
    return b_x, sigma_x, l_x, [averaged_jump_x(p, grid, t, x, v, w) for v in p.jump.marks]


def terminal_cost(p: Problem, x) -> np.ndarray:
    """phi at the terminal states x (M, n), shape (M,) (ShapeMismatch otherwise)."""
    return _require_shape(p.phi(x), np.shape(x)[:-1], "terminal cost")


def terminal_gradient(p: Problem, x) -> np.ndarray:
    """phi_x at the terminal states x (M, n), shape (M, n) (ShapeMismatch otherwise)."""
    return _require_shape(p.phi_x(x), np.shape(x), "terminal cost gradient")
