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
Hamiltonian at every control atom and sums it, with and without the running
cost, over the feedback cells of the control: small (N, C, K) tensors that
every derivative at that control is a contraction of.  The adjoint keeps
the ensemble it was solved on, and through it the control, so the
Hamiltonian field (and with it the optimality gap) is built from the
adjoint alone, and the duality pairing with a direction checks that it is
given the adjoint's own ensemble and control.  Neither evaluates a
coefficient or walks the paths again.

One sweep serves two storage policies: `solve_bsde` records every step and
the pairing sums, while the descent loop, which reads only the Hamiltonian
sums, holds two steps of the adjoint state and forms no pairing sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .control import RelaxedControl
from .errors import ShapeMismatch, SingularRegression, require_count, require_finite
from .forward import PathEnsemble, _step_major, step_cells
from .problem import Problem, atom_hamiltonians, averaged_linearization, terminal_gradient
from .variation import VariationEnsemble, response_functional

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-8
DEGENERATE_STD = 1e-12
SUM_BLOCKS = 64  # path blocks per cell in the pairing sums


@dataclass(frozen=True)
class BasisSpec:
    """Polynomial regression basis: all state monomials of total degree <= degree."""

    degree: int = 2

    def __post_init__(self):
        require_count(self.degree, "basis degree", low=0)

    def exponents(self, n: int) -> list:
        exps = [(0,) * n]
        for deg in range(1, self.degree + 1):
            for combo in combinations_with_replacement(range(n), deg):
                alpha = [0] * n
                for idx in combo:
                    alpha[idx] += 1
                exps.append(tuple(alpha))
        return exps

    def features(self, x: np.ndarray) -> np.ndarray:
        """Design matrix (M, P) of monomials in the components of M states x
        (M, n), the transpose of contiguous (P, M) monomial rows (the layout
        `_design` reduces); ShapeMismatch for an x that is not 2-D."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ShapeMismatch(f"states must be (M, n), got shape {x.shape}")
        exps = self.exponents(x.shape[1])
        rows = np.ones((len(exps), x.shape[0]))
        for row, alpha in zip(rows, exps):
            for dim, e in enumerate(alpha):
                if e:
                    row *= x[:, dim] ** e
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
    conditioning (the fit is invariant to that reparametrization); degenerate
    rows are dropped, and a trace-scaled ridge is added when G's condition
    number exceeds the limit.
    """
    Xt = np.ascontiguousarray(X.T)
    mu = Xt.mean(axis=1)
    sd = Xt.std(axis=1)
    keep = sd > DEGENERATE_STD * (1.0 + np.abs(mu))
    Zt = np.ones((1 + int(keep.sum()), Xt.shape[1]))
    Zt[1:] = (Xt[keep] - mu[keep, None]) / sd[keep, None]
    G = Zt @ Zt.T
    cond = float(np.linalg.cond(G))
    ridge = not np.isfinite(cond) or cond > COND_LIMIT
    if ridge:
        G = G + (RIDGE_SCALE * np.trace(G) / G.shape[0]) * np.eye(G.shape[0])
    return Zt, G, cond, ridge


def _fit(Zt: np.ndarray, G: np.ndarray, Y: np.ndarray, step: int) -> tuple[np.ndarray, float]:
    """Fitted values (Y's shape) of every column of Y on the feature-major
    design Zt with normal matrix G, and the orthogonality max |Zt (Y - fitted)| / M."""
    try:
        beta = np.linalg.solve(G, Zt @ Y)
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(step, str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularRegression(step, "non-finite regression coefficients")
    fitted = Zt.T @ beta
    return fitted, float(np.abs(Zt @ (Y - fitted)).max() / Zt.shape[1])


def _cell_sums(cells: np.ndarray, C: int, atoms: np.ndarray) -> np.ndarray:
    """Per-cell sums (C, K) of atom-leading values atoms (K, M) over the
    paths in each cell, each bin adding its paths one by one in path order
    (the binning the Hamiltonian field's cell values are defined by)."""
    return np.stack([np.bincount(cells, weights=row, minlength=C) for row in atoms], axis=1)


def _blocked_cell_sums(cells: np.ndarray, C: int, atoms: np.ndarray, path_blocks: np.ndarray) -> np.ndarray:
    """The per-cell sums of `_cell_sums`, each added within the SUM_BLOCKS
    blocks of consecutive paths (path_blocks gives each path's block) and
    then block by block: a pairing of a direction with them cancels, so its
    rounding must not grow with the path count."""
    return _cell_sums(cells * SUM_BLOCKS + path_blocks, C * SUM_BLOCKS, atoms).reshape(C, SUM_BLOCKS, -1).sum(axis=1)


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
    Hamiltonian without the running cost, in path blocks.  The adjoint pairing
    with a direction u is dt / M * <pairing_sums, w_u - w_u0>.

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
    p: Problem, basis: BasisSpec, base: PathEnsemble, u0: RelaxedControl, k: int,
    psi: np.ndarray, psi_cont: np.ndarray, Q: np.ndarray, phi: np.ndarray,
) -> tuple[np.ndarray, StepDiagnostics]:
    """One backward regression step of the sweep: fills step k of psi_cont,
    Q, phi and psi (by `_at`) from psi at k+1, and returns u0's feedback
    cells at step k with the step's diagnostics.  Its per-path temporaries
    are freed on return, before the step's Hamiltonians are formed.
    """
    noise = base.noise
    M, dt = base.M, base.dt
    n, m = p.n, p.m
    J, lam = p.jump.J, p.jump.intensities
    x = base.states[:, k]
    cells, w0 = step_cells(base, u0, k)
    psi_next = _at(psi, k + 1)
    Zt, G, cond, ridge = _design(basis.features(x))

    tq = psi_next[:, :, None] * noise.dW[:, k][:, None, :] / dt  # (M, n, m)
    dq = noise.jump_counts[:, k] - lam * dt  # (M, J)
    tj = psi_next[:, None, :] * (dq / (lam * dt))[:, :, None]  # (M, J, n)
    fitted, ortho = _fit(Zt, G, np.concatenate([psi_next, tq.reshape(M, n * m), tj.reshape(M, J * n)], axis=1), k)
    cont = fitted[:, :n]
    Qk = fitted[:, n : n + n * m].reshape(M, n, m)
    phik = fitted[:, n + n * m :].reshape(M, J, n)

    bx, sx, lx, cxs = averaged_linearization(p, u0.grid, k * dt, x, w0)
    drift = np.einsum("qij,qi->qj", bx, psi_next)
    drift += np.einsum("qab,qabl->ql", Qk, sx)
    drift += lx
    for j, cx in enumerate(cxs):
        drift += lam[j] * np.einsum("qij,qi->qj", cx, phik[:, j])
    fitted_psi, ortho_psi = _fit(Zt, G, psi_next + drift * dt, k)
    for arr, value in ((psi, fitted_psi), (psi_cont, cont), (Q, Qk), (phi, phik)):
        _at(arr, k)[...] = value
    return cells, StepDiagnostics(k, cond, ridge, max(ortho, ortho_psi))


def _sweep(p: Problem, base: PathEnsemble, u0: RelaxedControl, basis: BasisSpec, record: bool) -> tuple:
    """The backward sweep of `solve_bsde`: read-only hamiltonian_sums and
    occupancy, the kept arrays and the step diagnostics.  With record it
    keeps (psi, psi_cont, Q, phi, pairing_sums) for every step; without, it
    keeps nothing, holding psi at k+1 and k and step k's psi_cont, Q and phi
    only, and forms no pairing sums.  Both bin the same sums bit for bit.
    """
    base.require(p, u0)
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
    path_blocks = np.arange(M) * SUM_BLOCKS // M if record else None
    diagnostics = []

    _at(psi, N)[...] = require_finite(terminal_gradient(p, base.states[:, N]), "terminal cost gradient")
    for k in range(N - 1, -1, -1):
        cells, diag = _regress_step(p, basis, base, u0, k, psi, psi_cont, Q, phi)
        diagnostics.append(diag)
        ham, pairing = atom_hamiltonians(
            p, u0.grid, k * dt, base.states[:, k], _at(psi_cont, k), _at(Q, k), _at(phi, k), pairing=record
        )
        occupancy[k] = np.bincount(cells, minlength=C)
        hamiltonian_sums[k] = _cell_sums(cells, C, ham)
        if record:
            with np.errstate(over="ignore"):  # an overflowing sum is Inf, checked below
                pairing_sums[k] = _blocked_cell_sums(cells, C, pairing, path_blocks)
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

    all conditioned on the step-k state through the polynomial basis.  Each
    step builds one design (normal matrix, condition number, ridge decision)
    and solves it for two target blocks: Q_k, phi_k and the continuation
    value first, then psi_k, whose target needs them.  With psi_cont, Q_k and
    phi_k in hand the step evaluates b, sigma, l and C once for all atoms, forms
    the (K, M) atom Hamiltonians and sums them, with and without the running
    cost, over u0's feedback cells.  A NaN/Inf terminal cost gradient,
    coefficient term or cell sum raises NonFiniteCoefficient, and a value of
    another shape or a base not simulated under p and u0 ShapeMismatch.
    """
    sums, occupancy, (psi, psi_cont, Q, phi, pairing_sums), diagnostics = _sweep(
        p, base, u0, basis_spec or BasisSpec(), record=True
    )
    return AdjointEnsemble(psi, psi_cont, Q, phi, diagnostics, sums, pairing_sums, occupancy, base)


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
