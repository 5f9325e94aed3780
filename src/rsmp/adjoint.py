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

The same module hosts the inner product on drift/diffusion/jump intensity
triples and the duality check pairing the adjoint triple against a control
perturbation, which must reproduce the variational cost derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .control import RelaxedControl
from .errors import DomainError, NonFiniteCoefficient, ShapeMismatch, SingularRegression, require_count
from .errors import require_positive
from .forward import PathEnsemble, _step_major, step_cells
from .problem import Problem, atom_hamiltonians, averaged_diffusion_x, averaged_linearization
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
        """Design matrix (M, P) of monomials in the state components."""
        x = np.atleast_2d(x)
        cols = []
        for alpha in self.exponents(x.shape[1]):
            col = np.ones(x.shape[0])
            for dim, e in enumerate(alpha):
                if e:
                    col = col * x[:, dim] ** e
            cols.append(col)
        return np.stack(cols, axis=1)


@dataclass
class StepDiagnostics:
    step: int
    cond: float
    ridge: bool
    orthogonality: float


def _design(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Least-squares design on the regressors X: the standardized design Z,
    its normal matrix G, G's condition number and whether a ridge was added.

    Columns are standardized for conditioning (the fit is invariant to that
    reparametrization); degenerate columns are dropped, and a trace-scaled
    ridge is added when the normal matrix condition number exceeds the limit.
    """
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    keep = sd > DEGENERATE_STD * (1.0 + np.abs(mu))
    Z = np.ones((X.shape[0], 1 + int(keep.sum())))
    Z[:, 1:] = (X[:, keep] - mu[keep]) / sd[keep]
    G = Z.T @ Z
    cond = float(np.linalg.cond(G))
    ridge = not np.isfinite(cond) or cond > COND_LIMIT
    if ridge:
        G = G + (RIDGE_SCALE * np.trace(G) / G.shape[0]) * np.eye(G.shape[0])
    return Z, G, cond, ridge


def _fit(Z: np.ndarray, G: np.ndarray, Y: np.ndarray, step: int) -> tuple[np.ndarray, float]:
    """Fitted values (Y's shape) of every column of Y on the design Z with
    normal matrix G, and the orthogonality max |Z^T (Y - fitted)| / M."""
    try:
        beta = np.linalg.solve(G, Z.T @ Y)
    except np.linalg.LinAlgError as exc:
        raise SingularRegression(step, str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularRegression(step, "non-finite regression coefficients")
    fitted = Z @ beta
    return fitted, float(np.abs(Z.T @ (Y - fitted)).max() / Z.shape[0])


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


def _regress_step(
    p: Problem, basis: BasisSpec, base: PathEnsemble, u0: RelaxedControl, k: int,
    psi: np.ndarray, psi_cont: np.ndarray, Q: np.ndarray, phi: np.ndarray,
) -> tuple[np.ndarray, StepDiagnostics]:
    """One backward regression step of solve_bsde: fills psi_cont[:, k],
    Q[:, k], phi[:, k] and psi[:, k] from psi[:, k+1], and returns u0's
    feedback cells at step k with the step's diagnostics.  Its per-path
    temporaries are freed on return, before the step's Hamiltonians are formed.
    """
    noise = base.noise
    M, dt = base.M, base.dt
    n, m = p.n, p.m
    J, lam = p.jump.J, p.jump.intensities
    x = base.states[:, k]
    cells, w0 = step_cells(base, u0, k)
    psi_next = psi[:, k + 1]
    Z, G, cond, ridge = _design(basis.features(x))

    tq = psi_next[:, :, None] * noise.dW[:, k][:, None, :] / dt  # (M, n, m)
    dq = noise.jump_counts[:, k] - lam * dt  # (M, J)
    tj = psi_next[:, None, :] * (dq / (lam * dt))[:, :, None]  # (M, J, n)
    fitted, ortho = _fit(Z, G, np.concatenate([psi_next, tq.reshape(M, n * m), tj.reshape(M, J * n)], axis=1), k)
    cont = fitted[:, :n]
    Qk = fitted[:, n : n + n * m].reshape(M, n, m)
    phik = fitted[:, n + n * m :].reshape(M, J, n)

    bx, sx, lx, cxs = averaged_linearization(p, u0.grid, k * dt, x, w0)
    drift = np.einsum("qij,qi->qj", bx, psi_next)
    drift += np.einsum("qab,qabl->ql", Qk, sx)
    drift += lx
    for j, cx in enumerate(cxs):
        drift += lam[j] * np.einsum("qij,qi->qj", cx, phik[:, j])
    fitted_psi, ortho_psi = _fit(Z, G, psi_next + drift * dt, k)
    psi[:, k] = fitted_psi
    psi_cont[:, k] = cont
    Q[:, k] = Qk
    phi[:, k] = phik
    return cells, StepDiagnostics(k, cond, ridge, max(ortho, ortho_psi))


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
    cost, over u0's feedback cells.  A NaN/Inf terminal cost gradient or
    coefficient raises NonFiniteCoefficient, and a base not simulated under
    p and u0 ShapeMismatch (`PathEnsemble.require`).
    """
    basis = basis_spec or BasisSpec()
    base.require(p, u0)
    M, N, dt = base.M, base.n_steps, base.dt
    n, m = p.n, p.m
    C, K = u0.n_cells, u0.grid.K

    psi = _step_major(M, N + 1, (n,))
    psi_cont = _step_major(M, N, (n,))
    Q = _step_major(M, N, (n, m))
    phi = _step_major(M, N, (p.jump.J, n))
    hamiltonian_sums = np.empty((N, C, K))
    pairing_sums = np.empty((N, C, K))
    occupancy = np.empty((N, C), dtype=np.int64)
    path_blocks = np.arange(M) * SUM_BLOCKS // M
    diagnostics = []

    psi[:, N] = np.asarray(p.phi_x(base.states[:, N]), dtype=float)
    if not np.all(np.isfinite(psi[:, N])):
        raise NonFiniteCoefficient("terminal cost gradient produced NaN/Inf")
    for k in range(N - 1, -1, -1):
        cells, diag = _regress_step(p, basis, base, u0, k, psi, psi_cont, Q, phi)
        diagnostics.append(diag)
        ham, pairing = atom_hamiltonians(
            p, u0.grid, k * dt, base.states[:, k], psi_cont[:, k], Q[:, k], phi[:, k]
        )
        occupancy[k] = np.bincount(cells, minlength=C)
        hamiltonian_sums[k] = _cell_sums(cells, C, ham)
        pairing_sums[k] = _blocked_cell_sums(cells, C, pairing, path_blocks)

    diagnostics.reverse()
    for arr in (psi, psi_cont, Q, phi, hamiltonian_sums, pairing_sums, occupancy):
        arr.setflags(write=False)
    return AdjointEnsemble(psi, psi_cont, Q, phi, diagnostics, hamiltonian_sums, pairing_sums, occupancy, base)


def v_q(p: Problem, grid, Q_k: np.ndarray, t: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vector V with components V_l = tr(Q_k^T sigma_x(t, x, w; e_l)).

    Bilinear in (Q_k, sigma_x); batched over paths when x is (M, n).
    """
    sx = averaged_diffusion_x(p, grid, t, x, w)
    Qk = np.asarray(Q_k, dtype=float)
    if sx.ndim == 3:  # single sample
        return np.einsum("ab,abl->l", Qk, sx)
    if Qk.ndim == 2:
        Qk = np.broadcast_to(Qk, sx.shape[:1] + Qk.shape)
    return np.einsum("qab,qabl->ql", Qk, sx)


@dataclass(frozen=True)
class Semimartingale:
    """Drift/diffusion/jump intensity triple of a square-integrable
    semimartingale started at zero, sampled per path and step."""

    v: np.ndarray  # (M, N, n)
    Sigma: np.ndarray  # (M, N, n, m)
    dt: float
    phi: np.ndarray | None = None  # (M, N, J, n)
    intensities: np.ndarray | None = None  # (J,)

    def __post_init__(self):
        if self.v.ndim != 3 or self.Sigma.ndim != 4:
            raise ShapeMismatch("intensities must be (M, N, n) and (M, N, n, m)")
        if self.v.shape[:2] != self.Sigma.shape[:2] or self.v.shape[2] != self.Sigma.shape[2]:
            raise ShapeMismatch("drift and diffusion intensities disagree on dimensions")
        if (self.phi is None) != (self.intensities is None):
            raise ShapeMismatch("jump intensity needs both phi and the jump rates")
        if self.phi is not None and (
            self.phi.shape[:2] != self.v.shape[:2] or self.phi.shape[3] != self.v.shape[2]
        ):
            raise ShapeMismatch("jump intensity dimensions do not match")
        require_positive(self.dt, "dt")
        for arr in (self.v, self.Sigma, self.phi):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DomainError("semimartingale intensities must be finite")


def sm_inner(a: Semimartingale, b: Semimartingale) -> float:
    """Inner product of two semimartingales through their intensity triples:
    time-quadrature Monte Carlo of the drift pairing, the diffusion trace
    pairing, and (when present) the jump pairing weighted by the jump rates.
    """
    if a.v.shape != b.v.shape or a.Sigma.shape != b.Sigma.shape or a.dt != b.dt:
        raise ShapeMismatch("semimartingales live on different grids")
    if (a.phi is None) != (b.phi is None):
        raise ShapeMismatch("one operand has a jump intensity, the other does not")
    total = np.einsum("qki,qki->qk", a.v, b.v) + np.einsum("qkab,qkab->qk", a.Sigma, b.Sigma)
    if a.phi is not None:
        if not np.array_equal(a.intensities, b.intensities):
            raise ShapeMismatch("jump rates differ")
        total = total + np.einsum("j,qkji,qkji->qk", a.intensities, a.phi, b.phi)
    return float(a.dt * total.sum(axis=1).mean())


def sm_norm(a: Semimartingale) -> float:
    return float(np.sqrt(max(sm_inner(a, a), 0.0)))


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
    if not np.isfinite(total):
        raise NonFiniteCoefficient("adjoint pairing evaluated to a non-finite value")
    return total


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
