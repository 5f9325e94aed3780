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
atoms of a control grid.  A coefficient is a plain callable, or a
`Separable`, which states its state and control parts, f(t, x, xi) =
g(t, x) + h(t, xi) (C(t, x, v, xi) = g(t, x, v) + h(t, v, xi)): a control
acts on it only through the (K,) table h(t, xi_i), evaluated with no
state.  Each coefficient averages by its own rule, under weights w that are
a relaxed control's, a probability measure on the atoms (total mass 1), or
a direction's, the difference of two (total mass 0); no row is ever summed.
A `Separable` averages as g + w . table under mass 1 and as w . table
alone under mass 0, which evaluates it on no path.  Under feedback the
weights are resolved once and averaged per cell (`CellWeights`): every path
of a cell carries that cell's row, so w . table is formed once per cell and
gathered to the paths.  A plain callable is evaluated by `_atom_view`, one
broadcast call with the atom axis leading, its result kept in its smallest
exact form (1 or K, 1 or M, *tail): the atom axis has length 1 for a value
evaluated once (it does not depend on the control), the path axis length 1
for a value the same on every path (a constant sigma, the LQ b_x = A); any
other value is a contiguous (K, M, *tail) tensor.  A value evaluated once
averages to itself under a control, returned as it is, and to zero under a
direction; any other is contracted over the atom axis, and einsum
broadcasts a length-1 path axis: `contract_atoms` pairs it with one weight
row (K,), as open loop resolves, or per-path weights (M, K), which per-cell
weights gather for it.  Only `averaged_coefficients` is given a mass.
`_hamiltonian_rows` is the one pairing of coefficient values with the
adjoint processes: `cell_hamiltonians`, the backward sweep's, pairs atom
values and sums them over feedback cells, pairing a `Separable`'s table
with the cell sums of the per-path array it multiplies instead;
`smp.hamiltonian` pairs averages, and each backward step the averaged
Jacobians, the state gradient.  The values themselves are never checked:
each contracted value (or row, or term) passes `errors.require_finite`
instead (0 * Inf and Inf - Inf are NaN, so any NaN/Inf atom shows, and so
does a contraction that overflows).  The backward sweep checks one
reduction further: the per-step cell sums, which every NaN/Inf term
reaches, and only a step whose sums are not finite has its terms, tables
and tables' products with their cell sums checked one by one to name the
coefficient.  The descent loop's sweep sums only the terms that vary over
the atoms (`cell_hamiltonians` without constant_terms).  `point_coefficients`
evaluates only the control values in force, so a NaN at any other atom
never shows.
Every sweep reads a step's coefficients through `averaged_coefficients` (or
its point-control twin `point_coefficients`), their state Jacobians through
`averaged_linearization` and phi, phi_x through `terminal_cost`,
`terminal_gradient`; no other module calls a coefficient or reads the parts
of a `Separable`, and a value (or part) of another per-path shape than
documented raises ShapeMismatch.
The field of `solve_bsde` for a problem without a `Separable` equals the
one-hot `hamiltonian` rows (one-hot averages are the atom values) summed by
the backward sweep's blocked rule (`adjoint._cell_sums`), bit for bit; a
`Separable`'s tables move it by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NonPSD, ShapeMismatch, frozen_field, require_count, require_finite, require_positive

FD_STEP = 1e-5
SYMMETRY_TOL = 1e-10


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
class Separable:
    """A coefficient additively separable in state and control: b, sigma or
    ell as f(t, x, xi) = state(t, x) + control(t, xi), the jump coefficient
    as C(t, x, v, xi) = state(t, x, v) + control(t, v, xi), the mark an
    argument of both parts.  Callable as that sum, so whatever evaluates a
    coefficient at points or atoms works unchanged; only the relaxed
    averages and the backward sweep's cell sums read the parts, each part
    once per step: the state part on the paths, the control part on the K
    atoms of the grid, with no state.  Each part broadcasts its state or
    control argument over leading axes and returns the coefficient's
    trailing shape after them (ShapeMismatch naming the coefficient and the
    part otherwise); a part that is not callable raises DomainError here.
    """

    state: object
    control: object

    def __post_init__(self):
        _require_callable(self.state, "Separable state part")
        _require_callable(self.control, "Separable control part")

    def __call__(self, t, x, *rest):
        *extra, xi = rest
        return np.add(self.state(t, x, *extra), self.control(t, *extra, xi))


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
    information structure; feedback cells bin that signal.  Each of b,
    sigma, ell and C is a plain callable or a `Separable`, which states its
    control part: its averages and the backward sweep's cell sums then take
    a (K,) table of that part (see the module docstring), which moves
    results by rounding only.
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


@dataclass(frozen=True)
class CellWeights:
    """Weights resolved per feedback cell: one row per cell, table (C, K),
    and the cell of each path, cells (M,).  Every path of a cell carries its
    row, so an average whose control part is a (K,) table is a per-cell
    quantity; the per-path rows (M, K) are gathered on first use (`rows`),
    only for a value with an atom axis on the paths."""

    table: np.ndarray
    cells: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        """The (M, K) row of each path, its cell's."""
        return np.take(self.table, self.cells, axis=0)


def contract_atoms(vals: np.ndarray, w) -> np.ndarray:
    """sum_i w[..., i] * vals[i] for atom-leading vals (K, M, ...) and weights
    w of shape (K,) or per path (M, K)."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        return np.einsum("k,k...->...", w, vals)
    return np.einsum("qk,kq...->q...", w, vals)


def _state_part(f: Separable, t, x, extra, tail: tuple, what: str) -> np.ndarray:
    """f's state part at the states x (M, n), shape (M, *tail)."""
    return _require_shape(f.state(t, x, *extra), np.shape(x)[:-1] + tail, f"{what} state part")


def _control_table(f: Separable, grid, t, extra, tail: tuple, what: str) -> np.ndarray:
    """f's control part at the K atoms of the grid, one call with no state, shape (K, *tail)."""
    return _require_shape(f.control(t, *extra, grid.points), (grid.K,) + tail, f"{what} control part")


def _coefficients(p: Problem) -> list:
    """(callable, per-path tail, extra arguments, name) of b, sigma, ell and each C."""
    coefficients = [(p.b, (p.n,), (), "drift"), (p.sigma, (p.n, p.m), (), "diffusion"), (p.ell, (), (), "running cost")]
    return coefficients + [(p.jump.C, (p.n,), (v,), "jump coefficient") for v in p.jump.marks]


def _accumulated(total, term) -> np.ndarray:
    """total + term, into total unless term has more atoms: a row sum's path
    axis is always full (M), since its first term pairs with psi (M, n)."""
    return np.add(total, term, out=total if len(total) >= len(term) else None)


def _duals(p: Problem, psi, Q, phi_row) -> list:
    """(dual, scale) per coefficient in `_coefficients` order: the per-path array it pairs with (None for the
    running cost) and lam_j for the jump coefficient of mark j, else None."""
    if p.jump.J and phi_row is None:
        raise ShapeMismatch("jump problems need the jump intensity row of the adjoint")
    return [(psi, None), (Q, None), (None, None)] + [(phi_row[:, j], lam) for j, lam in enumerate(p.jump.intensities)]


def _hamiltonian_rows(p: Problem, values, psi, Q, phi_row, pairing: bool, checked: bool) -> tuple:
    """The one Hamiltonian pairing: per-coefficient values paired with the
    adjoint term by term, drift . psi + diffusion : Q + running cost +
    sum_j lam_j jump_j . phi_j in that order, and with pairing the same sum
    without the running cost (else None).

    values yields each coefficient's values in `_coefficients` order, shape
    (1 or K, 1 or M, *tail): atom values, or a state part or averages as one
    row; a state Jacobian's derivative axis rides along (einsum's ...), so
    its sum is the state gradient of the Hamiltonian.  They pair as they
    are with psi (M, n), Q (M, n, m) and phi_row (M, J, n), None for J = 0,
    and each is dropped once paired; a value None is a term left out (both
    sums are None when every term is).  With checked, each term passes
    `require_finite` as it is paired, naming the coefficient; the sums may
    overflow to Inf, or turn NaN, without a numpy warning.
    """
    ham = pairs = None
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, tail, _, what), (dual, lam), vals in zip(_coefficients(p), _duals(p, psi, Q, phi_row), values):
            if vals is None:  # a term left out
                continue
            axes = "ab"[: len(tail)]  # the per-path tail of b and C (n,), of sigma (n, m)
            term = vals if dual is None else np.einsum(f"kq{axes}...,q{axes}->kq...", vals, dual)
            del vals  # free an atom tensor before the next one
            if lam is not None:
                term *= lam
            if checked:
                require_finite(term, what)
            if pairing and dual is not None:
                pairs = term.copy() if pairs is None else _accumulated(pairs, term)
            ham = term if ham is None else _accumulated(ham, term)
    return ham, pairs


def cell_hamiltonians(p: Problem, grid, t, x, psi, Q, phi_row, cell_sums, counts, *, pairing: bool,
                      constant_terms: bool = True, checked: bool = False):
    """The per-cell sums (C, K) of the pathwise Hamiltonian at every grid
    atom over feedback cells holding counts (C,) paths, and with pairing (a
    recording sweep) those of the same sum without the running cost, else
    None; cell_sums(rows) -> (C, R) sums each of R per-path rows over the
    cells, R = 0 included.

    A `Separable`'s control part is the same on every path, so its term's
    cell sum is the cell sum of the per-path array it pairs with times its
    table at the K atoms:

        S[c, i] = sum_{q in c} H_q[i] + (sum psi)_c . h_b(xi_i) + (sum Q)_c : h_sigma(xi_i)
                  + counts_c h_ell(xi_i) + sum_j lam_j (sum phi_j)_c . h_Cj(xi_i),

    each table term present for a `Separable` coefficient only, and H the
    `_hamiltonian_rows` of the plain coefficients' `_atom_view` values and
    of the state parts, 1 or K rows.  The rows and the per-path arrays the
    tables pair with are binned in one cell_sums pass.

    Without constant_terms the sums leave out every term that is the same
    at every atom: a `Separable`'s state part, which is then not evaluated,
    and a plain value `_atom_view` returns with one atom.  Each cell's sums
    then differ from the full ones by one number for all its atoms, which
    moves neither their minimizing atom nor the excess of a measure over
    their minimum; a problem whose control enters no coefficient has no row
    to bin and sums of zero.

    With checked, each term and table passes `require_finite` in
    coefficient order, and then each table's product with its dual's cell
    sums (the counts for the running cost), naming the coefficient; else
    the caller checks the sums.  On a problem without a `Separable` the
    full sums are the per-atom rows' binned, bit for bit.
    """
    tables = []  # (dual, table, what) of each Separable, a jump coefficient's table times its intensity

    def values():
        for (f, tail, extra, what), (dual, lam) in zip(_coefficients(p), _duals(p, psi, Q, phi_row)):
            if isinstance(f, Separable):
                table = _control_table(f, grid, t, extra, tail, what)
                table = require_finite(table, what) if checked else table
                tables.append((dual, table if lam is None else lam * table, what))
                yield _state_part(f, t, x, extra, tail, what)[None] if constant_terms else None
            else:
                vals = _atom_view(f, grid, t, x, tail, extra, what)
                yield vals if constant_terms or len(vals) == grid.K else None

    ham, pairs = _hamiltonian_rows(p, values(), psi, Q, phi_row, pairing, checked)
    M, K = len(x), grid.K
    heads = [rows for rows in (ham, pairs) if rows is not None]  # no pairing rows without Hamiltonian rows
    columns = [column for dual, _, _ in tables if dual is not None for column in dual.reshape(M, -1).T]
    sums = cell_sums([*(row for rows in heads for row in rows), *columns])
    totals = [np.zeros((len(counts), K)) for _ in range(1 + pairing)]  # the Hamiltonian's, the pairing's
    at = 0
    with np.errstate(over="ignore", invalid="ignore"):  # checked here with checked, else by the caller
        for total, rows in zip(totals, heads):
            total += sums[:, at : at + len(rows)]
            at += len(rows)
        for dual, table, what in tables:
            if dual is None:  # the running cost's control part: every path of a cell adds its table
                dual_sums = counts[:, None]
            else:
                dual_sums, at = sums[:, at : at + dual[0].size], at + dual[0].size
            shift = np.dot(dual_sums, table.reshape(K, -1).T)
            for total in totals[: 1 if dual is None else 2]:
                total += require_finite(shift, what) if checked else shift
    return totals[0], totals[1] if pairing else None


def _averaged(f, grid, t, x, w, tail: tuple, what: str, extra=(), mass=1.0):
    """Relaxed average sum_i w[..., i] f(t, x, *extra, xi_i) under weights w,
    one row (K,), per path (M, K) or per cell (`CellWeights`), whose rows
    have total mass 1 (a control's) or 0 (a direction's).

    A `Separable` averages as state + w . table under mass 1 and as
    w . table alone under mass 0, the state part one call on the M paths
    (made only under mass 1) and the table its control part at the K atoms;
    each row's product with the table is summed on its own (einsum; a BLAS
    product sums a row by its position), so a path's bits are its own.
    Under per-cell weights (feedback steps resolved once, averaged per
    cell) that product is formed once per cell, one (C, T) einsum, and
    gathered to the paths by cell: the bits of the per-path products, since
    each path's row is its cell's.  Any other f keeps `_atom_view`'s form:
    a value with an atom axis is contracted with w (per-cell weights gather
    their per-path rows for it), and a value evaluated once for all atoms
    is mass times itself, the value as it is under mass 1 and zero under 0.
    The average is checked (NonFiniteCoefficient naming what).  A value the
    same on every path, or evaluated once, or a direction's one row, is
    returned as a read-only broadcast view, unless per-path or per-cell
    weights spread it."""
    M = np.shape(x)[0]
    per_cell = isinstance(w, CellWeights)
    if isinstance(f, Separable):
        table = _control_table(f, grid, t, extra, tail, what)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            # a (T, K) copy: each row's dot with a column runs over contiguous atoms
            out = np.einsum("...k,tk->...t", w.table if per_cell else w, table.reshape(grid.K, -1).T.copy())
            if per_cell:  # one product per cell, gathered to its paths
                out = np.take(out, w.cells, axis=0)
            out = out.reshape(out.shape[:-1] + tail)
            if mass:
                out = _state_part(f, t, x, extra, tail, what) + out
        out = require_finite(out, what)
    else:
        vals = _atom_view(f, grid, t, x, tail, extra, what)
        if len(vals) < grid.K:
            return np.broadcast_to(require_finite(vals[0], what) if mass else 0.0, (M,) + tail)
        out = require_finite(contract_atoms(vals, w.rows if per_cell else w), what)
    return out if out.shape == (M,) + tail else np.broadcast_to(out, (M,) + tail)


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
    """One Euler step's coefficients under weights w, one row (K,), per
    path (M, K) or per cell (`CellWeights`), of total mass 1 (a control) or 0 (a direction, the
    difference of two): drift (M, n), diffusion (M, n, m), running cost (M,)
    and the list of jump coefficients (M, n), one per mark in order
    (ShapeMismatch for another trailing shape).  Each coefficient averages
    by its own rule (`_averaged`): a `Separable` from its state part and a
    (K,) table of its control part, a plain callable from its atom values.
    A value the same on every path under one weight row, or without an atom
    axis, is a read-only broadcast view."""
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
    mark in order (ShapeMismatch for another trailing shape).  Per-cell
    weights (`CellWeights`) gather no per-path rows for a Jacobian that
    does not depend on the control; such a Jacobian, or one the same on
    every path under one weight row (K,), is a read-only broadcast view."""
    b_x, sigma_x, l_x = (f(p, grid, t, x, w) for f in (averaged_drift_x, averaged_diffusion_x, averaged_running_cost_x))
    return b_x, sigma_x, l_x, [averaged_jump_x(p, grid, t, x, v, w) for v in p.jump.marks]


def terminal_cost(p: Problem, x) -> np.ndarray:
    """phi at the terminal states x (M, n), shape (M,) (ShapeMismatch otherwise)."""
    return _require_shape(p.phi(x), np.shape(x)[:-1], "terminal cost")


def terminal_gradient(p: Problem, x) -> np.ndarray:
    """phi_x at the terminal states x (M, n), shape (M, n) (ShapeMismatch otherwise)."""
    return _require_shape(p.phi_x(x), np.shape(x), "terminal cost gradient")
