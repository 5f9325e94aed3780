"""Backward least-squares Monte Carlo solver for the adjoint processes.

The backward sweep estimates, per time step, three conditional expectations
by cross-sectional polynomial regression over the path ensemble:

    Q_k      from the Brownian-increment covariation of the next adjoint state,
    phi_kj   from the compensated-event covariation (J = 0 columns for a diffusion),
    psi_k    from propagating the next adjoint state plus its drift.

Regressed (fitted) values are propagated backward, so every stored process is
a function of the Markov state at its own step.  The terminal adjoint state
is set exactly from the terminal cost gradient.  The processes keep their
(M, steps, ...) shapes but are stored step-major, like the states and noise
they are regressed on, so each step's slice [:, k] is one contiguous run.

While it holds a step's adjoint values the sweep also forms the pathwise
Hamiltonian at every control atom, by the pairing whose state gradient is
the psi drift (`problem._hamiltonian_rows`), and sums it, with and without
the running cost, over the feedback cells of the control, by the one rule of
`_cell_sums` (within blocks of consecutive paths, then block by block, in
one pass per step): small (N, C, K) tensors that every derivative at that
control is a contraction of.  The adjoint keeps the ensemble it was solved
on, and through it the control, so the Hamiltonian field (and with it the
optimality gap) is built from the adjoint alone, and the duality pairing
with a direction checks that it is given the adjoint's own ensemble and
control.  Neither evaluates a coefficient or walks the paths again.

Each step standardizes its regression design in one centring pass, forms
its normal matrix, conditions it from its eigenvalues and factors it once
(Cholesky) for both of the step's fits, the regression-based scheme of
Gobet, Lemor & Warin (Ann. Appl. Probab. 2005).

One sweep serves two storage policies, which the caller names: `solve_bsde`
records every step, the pairing sums and the regression diagnostics, and
sums every Hamiltonian term, so its field is the one-hot `rsmp.hamiltonian`
rows binned; the descent loop, which reads only the Hamiltonian sums to
minimize them over the atoms, holds two steps of the adjoint state, forms
neither the pairing sums nor the orthogonality diagnostic, and sums only
the terms that vary over the atoms (`cell_hamiltonians` without
constant_terms), which moves each cell's sums by one number for all atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .control import RelaxedControl
from .errors import ShapeMismatch, SingularRegression, allocating, require_count, require_finite
from .forward import PathEnsemble, _compensated_counts, _rescaled, _step_major, _step_weights
from .problem import Problem, _hamiltonian_rows, averaged_linearization, cell_hamiltonians, terminal_gradient
from .variation import VariationEnsemble, response_functional

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-8
DEGENERATE_STD = 1e-12
SUM_BLOCKS = 64  # blocks of consecutive paths every cell sum adds within


@dataclass(frozen=True)
class BasisSpec:
    """Polynomial regression basis: all state monomials of total degree <= degree."""

    degree: int = 2

    def __post_init__(self):
        require_count(self.degree, "basis degree", low=0)

    def exponents(self, n: int) -> list:
        """The P = comb(n + degree, degree) exponent tuples of the monomials
        in n variables: by total degree, then with the leading exponent
        falling, each tail in that order too, in O(P n) steps."""
        degrees = range(self.degree + 1)
        by_degree = [[(d,)] for d in degrees] if n else [[()]]
        for _ in range(n - 1):  # one more leading variable, its exponent a falling
            by_degree = [[(a, *rest) for a in range(d, -1, -1) for rest in by_degree[d - a]] for d in degrees]
        return [alpha for level in by_degree for alpha in level]

    def features(self, x: np.ndarray) -> np.ndarray:
        """Design matrix (M, P) of monomials in the components of M states x
        (M, n), the transpose of contiguous (P, M) monomial rows (the layout
        `_design` reduces); ShapeMismatch for an x that is not 2-D, and
        DomainError for a matrix too large to allocate."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ShapeMismatch(f"states must be (M, n), got shape {x.shape}")
        P = math.comb(x.shape[1] + self.degree, self.degree)
        with allocating(P * x.shape[0], f"design matrix of {P} monomials on {x.shape[0]} paths"):
            exps = self.exponents(x.shape[1])
            rows = np.empty((P, x.shape[0]))
        for row, alpha in zip(rows, exps):  # each row its first power (1 for the constant), times the others
            powers = (x[:, dim] ** e for dim, e in enumerate(alpha) if e)
            row[...] = next(powers, 1.0)
            for power in powers:
                row *= power
        return rows.T


@dataclass
class StepDiagnostics:
    step: int
    cond: float
    ridge: bool
    orthogonality: float


def _design(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Least-squares design on the regressors X (M, P): the standardized,
    feature-major design Zt (1 + kept, M), its normal matrix G = Zt Zt^T,
    G's condition number and whether a ridge was added.

    Rows of X^T (a view for `BasisSpec.features`) are standardized for
    conditioning (the fit is invariant to that reparametrization): each is
    centred once, into a buffer with one spare row, and scaled by its
    standard deviation, taken from the centred row; degenerate rows are
    dropped.  The row of ones takes the place of the last degenerate row
    ahead of the first kept one (the constant monomial's, for
    `BasisSpec.features`), or of the spare row, so Zt is a view of the
    buffer unless a degenerate row follows a kept one.  G is formed row by
    row (a matrix-vector product per row of Zt, no packed matrix product).
    The condition number is the ratio of G's extreme eigenvalues (`eigvalsh`
    of the symmetric G): Inf when the smallest is not positive (G singular
    up to rounding), NaN when G is not finite.  A trace-scaled ridge is
    added when it is not finite or exceeds the limit.
    """
    Xt = X.T
    P, M = Xt.shape
    mu = Xt.mean(axis=1)
    buffer = np.empty((1 + P, M))
    centred = np.subtract(Xt, mu[:, None], out=buffer[1:])
    sd = np.sqrt(np.einsum("pm,pm->p", centred, centred) / M)
    keep = sd > DEGENERATE_STD * (1.0 + np.abs(mu))
    first = int(np.argmax(keep)) if keep.any() else P  # the degenerate rows ahead of the first kept one
    Zt, keep, sd = buffer[first:], keep[first:], sd[first:]
    Zt[0] = 1.0
    if not keep.all():
        Zt, sd = Zt[np.concatenate(([True], keep))], sd[keep]
    Zt[1:] *= (1.0 / sd)[:, None]
    G = np.empty((len(Zt), len(Zt)))
    for i, row in enumerate(Zt):
        G[i:, i] = G[i, i:] = Zt[i:] @ row
    if np.all(np.isfinite(G)):
        low, high = np.linalg.eigvalsh(G)[[0, -1]]  # eigenvalues ascending
        cond = float(high / low) if low > 0 else math.inf
    else:
        cond = math.nan
    ridge = not np.isfinite(cond) or cond > COND_LIMIT
    if ridge:
        G[np.diag_indices_from(G)] += RIDGE_SCALE * np.trace(G) / len(G)
    return Zt, G, cond, ridge


def _fitter(Zt: np.ndarray, G: np.ndarray, step: int):
    """The least-squares fit on the feature-major design Zt with normal
    matrix G, as a function of the targets Y (M, R) returning the fitted
    values (Y's shape) of every column: G is factored once (Cholesky, and
    the inverse R of the factor, so G^-1 = R^T R), and every call shares
    the factor, as a regression step's two fits do.

    Finite targets whose products overflow are refit on Y / max|Y| and
    scaled back by `forward._rescaled`, as `forward._mean_and_error` is;
    fitted values that stay NaN/Inf (targets that are not finite) raise
    NonFiniteCoefficient naming the adjoint state and the step, so a fit
    checks its values once.  SingularRegression means only a G that numpy
    cannot factor (one that is not positive definite).
    """
    try:
        R = np.linalg.inv(np.linalg.cholesky(G))
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(step, str(exc)) from exc

    def fitted(y):  # column-major, the layout of a step's first targets
        coefficients = R.T @ (R @ (Zt @ y))
        return (coefficients.T @ Zt).T

    return partial(_rescaled, fitted, what=f"adjoint state at step {step}")


def _fit(Zt: np.ndarray, G: np.ndarray, Y: np.ndarray, step: int) -> np.ndarray:
    """Fitted values (Y's shape) of every column of Y on the design Zt with
    normal matrix G: one call of `_fitter`."""
    return _fitter(Zt, G, step)(Y)


def _orthogonality(Zt: np.ndarray, Y: np.ndarray, fitted: np.ndarray) -> float:
    """max |Zt (Y - fitted)| / M: zero, up to rounding, for a least-squares fit."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(Zt @ (Y - fitted)).max() / Zt.shape[1])


def _cell_sums(bins: np.ndarray, C: int, rows) -> np.ndarray:
    """Per-cell sums (C, R) of R rows of per-path values, bins (M,) giving each
    path's cell * SUM_BLOCKS + its block of consecutive paths: each cell adds
    its paths in path order within each block, then, row by row, its block
    sums, so the rounding grows with the block length, not with the path
    count, and a row's sums do not depend on the rows binned with it."""
    blocks = np.array([np.bincount(bins, weights=row, minlength=C * SUM_BLOCKS) for row in rows], dtype=float)
    return blocks.reshape(len(blocks), C, SUM_BLOCKS).sum(axis=2).T


@dataclass(frozen=True)
class AdjointEnsemble:
    """Adjoint state, diffusion intensity, and jump intensity per path and
    step, and the cell sums of the Hamiltonian they define.

    psi[:, N] equals the terminal cost gradient exactly.  psi_cont[:, k] is
    the conditional mean of psi[:, k+1] given the step-k state; it is the
    value the Hamiltonian integrates against on (t_k, t_{k+1}], and differs
    from psi[:, k] by the drift increment.

    hamiltonian_sums[k, c, i] sums the pathwise Hamiltonian at atom i (the
    pairing of psi_cont, Q and phi with the coefficients, plus the running
    cost) over the occupancy[k, c] paths in feedback cell c of the control
    the adjoint was solved under; pairing_sums[k, c, i] sums the same
    Hamiltonian without the running cost.  Both add within blocks of
    consecutive paths, then block by block (`_cell_sums`).  The adjoint
    pairing with a direction u is dt / M * <pairing_sums, w_u - w_u0>.

    base is the ensemble the adjoint was solved on; its control_used is the
    relaxed control u0 on whose cells the sums are binned.
    """

    psi: np.ndarray  # (M, N+1, n), step-major
    psi_cont: np.ndarray  # (M, N, n), step-major
    Q: np.ndarray  # (M, N, n, m), step-major
    phi: np.ndarray  # (M, N, J, n), step-major; J = 0 for a diffusion
    conditioning: list
    hamiltonian_sums: np.ndarray  # (N, C, K)
    pairing_sums: np.ndarray  # (N, C, K)
    occupancy: np.ndarray  # (N, C)
    base: PathEnsemble


def _at(arr: np.ndarray, k: int) -> np.ndarray:
    """Step k's slice of a sweep array that holds every step, or only a ring
    of the last few: step k lives at k modulo the array's step count."""
    return arr[:, k % arr.shape[1]]


def _regress_step(
    basis: BasisSpec, base: PathEnsemble, k: int,
    psi: np.ndarray, psi_cont: np.ndarray, Q: np.ndarray, phi: np.ndarray, record: bool,
) -> tuple[np.ndarray, StepDiagnostics]:
    """One backward regression step of the sweep on base, under its problem
    and control: fills step k of psi_cont, Q, phi and psi (by `_at`) from psi
    at k+1, and returns the control's feedback cells at step k, as `simulate`
    recorded them (`_step_weights`: no cell is assigned again), with the step's
    diagnostics, whose orthogonality only a recording sweep computes (NaN
    otherwise).  Both fits share one factor of the step's design
    (`_fitter`); the first targets are column-major, one contiguous row per
    fitted column.  The targets are formed without numpy warnings: one that
    overflows reaches its fit as Inf, which raises NonFiniteCoefficient.
    Its per-path temporaries are freed on return, before the step's
    Hamiltonians are formed.
    """
    p, noise = base.problem, base.noise
    M, dt = base.M, base.dt
    n, m = p.n, p.m
    J, lam = p.jump.J, p.jump.intensities
    x = base.states[:, k]
    cells, rows, _ = _step_weights(base, k)
    psi_next = _at(psi, k + 1)
    Zt, G, cond, ridge = _design(basis.features(x))
    fit = _fitter(Zt, G, k)

    targets = np.empty((n + n * m + J * n, M))  # psi_next, then the Q and the phi targets, one row per column
    targets[:n] = psi_next.T
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(psi_next.T[:, None] * noise.dW[:, k].T, dt, out=targets[n : n + n * m].reshape(n, m, M))
        if J:  # each mark's compensated count per unit intensity
            dq = _compensated_counts(noise, k, lam)
            dq /= (lam * dt)[:, None]
            np.multiply(psi_next.T, dq[:, None], out=targets[n + n * m :].reshape(J, n, M))
    fitted = fit(targets.T)
    ortho = _orthogonality(Zt, targets.T, fitted) if record else np.nan
    del targets
    for arr, value in ((psi_cont, fitted[:, :n]), (Q, fitted[:, n : n + n * m].reshape(M, n, m)),
                       (phi, fitted[:, n + n * m :].reshape(M, J, n))):
        _at(arr, k)[...] = value
    del fitted

    bx, sx, lx, cxs = averaged_linearization(p, base.control_used.grid, k * dt, x, rows)
    values = [v[None] for v in (bx, sx, lx, *cxs)]
    (drift,), _ = _hamiltonian_rows(p, values, psi_next, _at(Q, k), _at(phi, k), False, False)
    with np.errstate(over="ignore", invalid="ignore"):
        target = psi_next + drift * dt
    fitted_psi = fit(target)
    if record:
        ortho = max(ortho, _orthogonality(Zt, target, fitted_psi))
    _at(psi, k)[...] = fitted_psi
    return cells, StepDiagnostics(k, cond, ridge, ortho)


def _sweep(base: PathEnsemble, basis: BasisSpec, record: bool) -> tuple:
    """The backward sweep of `solve_bsde` on base, under its problem and
    relaxed control, which the caller checks: read-only hamiltonian_sums and
    occupancy, the kept arrays and the step diagnostics.  With record it keeps
    (psi, psi_cont, Q, phi, pairing_sums) for every step and sums every
    Hamiltonian term; without, it keeps nothing, holding psi at k+1 and k and
    step k's psi_cont, Q and phi only, forms neither the pairing sums nor the
    orthogonality diagnostic, and sums only the terms that vary over the
    atoms: a term without an atom axis (a `Separable`'s state part, then not
    evaluated, or a plain value evaluated once for all atoms) adds one number
    to every atom of a cell, which neither the argmin nor the Hamiltonian
    excess sees.  Such a term cannot hide a NaN: `simulate` checked the
    averages it enters at the same states.  Both bin each step's sums in one
    `_cell_sums` pass.

    No Hamiltonian term is checked on its own: a NaN/Inf term or table
    reaches the step's (C, K) cell sums, so the sums are checked instead, and
    a step whose sums are not finite is evaluated again, under the sweep's
    errstate, checking each term, table and table product
    (`cell_hamiltonians` checked), which names the coefficient.  Sums that
    overflow from finite terms and products raise
    NonFiniteCoefficient("Hamiltonian ...") once the sweep is done.
    """
    p, u0 = base.problem, base.control_used
    M, N, dt = base.M, base.n_steps, base.dt
    n, m = p.n, p.m
    C, K = u0.n_cells, u0.grid.K
    held = N if record else 1  # steps held of psi_cont, Q and phi; psi holds one more

    psi = _step_major(M, held + 1, (n,))
    psi_cont = _step_major(M, held, (n,))
    Q = _step_major(M, held, (n, m))
    phi = _step_major(M, held, (p.jump.J, n))
    hamiltonian_sums = np.empty((N, C, K))
    pairing_sums = np.empty((N, C, K)) if record else None
    occupancy = np.empty((N, C), dtype=np.int64)
    path_blocks = np.arange(M) * SUM_BLOCKS // M
    bins = np.empty(M, dtype=np.int64)  # each step's cell * SUM_BLOCKS + path block
    binned = partial(_cell_sums, bins, C)
    diagnostics = []

    _at(psi, N)[...] = require_finite(terminal_gradient(p, base.states[:, N]), "terminal cost gradient")
    for k in range(N - 1, -1, -1):
        cells, diag = _regress_step(basis, base, k, psi, psi_cont, Q, phi, record)
        diagnostics.append(diag)
        args = (p, u0.grid, k * dt, base.states[:, k], _at(psi_cont, k), _at(Q, k), _at(phi, k))
        occupancy[k] = np.bincount(cells, minlength=C)
        np.multiply(cells, SUM_BLOCKS, out=bins, dtype=np.int64)  # narrow cells would wrap in their own type
        bins += path_blocks
        with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite is checked below
            hamiltonian_sums[k], pairing = cell_hamiltonians(*args, binned, occupancy[k], pairing=record,
                                                             constant_terms=record)
            if record:
                pairing_sums[k] = pairing
            if not np.all(np.isfinite(hamiltonian_sums[k])):  # raises naming the coefficient of a NaN/Inf term
                cell_hamiltonians(*args, binned, occupancy[k], pairing=False, constant_terms=record, checked=True)
    require_finite(hamiltonian_sums, "Hamiltonian")
    kept = (psi, psi_cont, Q, phi, require_finite(pairing_sums, "adjoint pairing")) if record else ()
    for arr in (hamiltonian_sums, occupancy, *kept):
        arr.setflags(write=False)
    return hamiltonian_sums, occupancy, kept, diagnostics[::-1]


def solve_bsde(
    p: Problem, base: PathEnsemble, u0: RelaxedControl, basis_spec: BasisSpec | None = None
) -> AdjointEnsemble:
    """Backward regression sweep producing the adjoint triple on the ensemble.

    Per step k (from N-1 down to 0), with psi_next the fitted adjoint state
    at k+1:

      Q_k      <- fit of psi_next dW_k^T / dt,
      phi_kj   <- fit of psi_next (dN_kj - lam_j dt) / (lam_j dt),
      psi_k    <- fit of psi_next + [b_x^T psi_next + V_Q + l_x
                                      + sum_j lam_j C_x^T phi_kj] dt,

    all conditioned on the step-k state through the polynomial basis; the
    bracket (V_Q = Q_k : sigma_x) pairs the averaged Jacobians as
    `rsmp.hamiltonian` pairs the averaged coefficients.  Each step builds one
    design (normal matrix, condition number, ridge decision), factors it once
    and fits two target blocks with the factor: Q_k, phi_k and the
    continuation value first, then psi_k, whose target needs them.  With psi_cont, Q_k and phi_k in hand the
    step evaluates b, sigma, l and C once for all atoms, pairs them into the
    atom Hamiltonians and sums these, with and without the running cost, over
    u0's feedback cells (`problem.cell_hamiltonians`: a `Separable`
    coefficient adds its state part on the paths and pairs a (K,) table of its
    control part with per-cell sums).  A NaN/Inf terminal cost gradient,
    regression target or cell sum raises NonFiniteCoefficient, which names the
    coefficient of a NaN/Inf term, table or table product when the step is
    evaluated again, checked; a value of another shape or a base not simulated under p and u0
    raises ShapeMismatch.
    """
    base.require(p, u0)
    sums, occupancy, (psi, psi_cont, Q, phi, pairing), diags = _sweep(base, basis_spec or BasisSpec(), record=True)
    return AdjointEnsemble(psi, psi_cont, Q, phi, diags, sums, pairing, occupancy, base)


def adjoint_pairing(
    p: Problem, base: PathEnsemble, u0: RelaxedControl, u: RelaxedControl, adjoint: AdjointEnsemble
) -> float:
    """Pairing of the adjoint triple with the direction u - u0: the drift,
    diffusion-trace, and jump pairings of the coefficient differences,
    quadratured over the grid and averaged over paths.

    The pairing is linear in the weights and the weights are constant on a
    feedback cell, so it is the contraction dt / M * <pairing_sums, w_u - w_u0>
    of the cell sums solve_bsde formed under u0.  ShapeMismatch unless base is
    the adjoint's, simulated under p and u0 (`PathEnsemble.require`), and u
    shares u0's structure; no coefficient of p is evaluated.
    """
    base.require(p, u0)
    if adjoint.base is not base:
        raise ShapeMismatch("the adjoint was not solved on this ensemble under u0")
    if not u.same_structure(u0):
        raise ShapeMismatch("direction controls must share grid, steps, mode and partition")
    total = float(base.dt * np.einsum("kci,kci->", adjoint.pairing_sums, u.weights - u0.weights) / base.M)
    return require_finite(total, "adjoint pairing")


def duality_gap(adjoint: AdjointEnsemble, var: VariationEnsemble) -> float:
    """Absolute mismatch between the variational functional and the adjoint
    pairing for var's direction.  Both sides estimate the state-response
    part of the cost derivative by independent routes, so a small gap is the
    working certificate that the adjoint triple represents that derivative.
    Both are taken at their one base's problem and control (ShapeMismatch
    when the bases differ).
    """
    if adjoint.base is not var.base:
        raise ShapeMismatch("the adjoint and the variational ensemble were taken along different bases")
    p, base, u0 = var.base.problem, var.base, var.base.control_used
    return abs(response_functional(p, base, u0, var) - adjoint_pairing(p, base, u0, var.u, adjoint))
