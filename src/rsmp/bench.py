"""Benchmark problems with independent oracles.

Each benchmark ships the ground truth its acceptance checks need: the linear
quadratic problems carry a Riccati ODE oracle (classical fourth-order
integrator, Simpson quadrature for the noise cost), the two-atom mixing
benchmark carries an exact expected-cost search over discretized open-loop
weight profiles, and pure regular controls can be brute-forced directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import CellPartition, ControlGrid, OBSERVATION_FEEDBACK, OPEN_LOOP, RelaxedControl, STATE_FEEDBACK
from .errors import DomainError, NonPSD, ShapeMismatch, UnknownBenchmark, frozen_field, require_count, require_positive
from .forward import NoiseEnsemble, pathwise_cost, simulate
from .problem import GaussianInitial, JumpSpec, Problem

BENCHMARK_NAMES = ("lq1d", "lq2d", "nonconvex-mix", "jump-lq")

SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class LQSpec:
    """Linear dynamics, constant diffusion, quadratic costs."""

    A: np.ndarray  # (n, n)
    B: np.ndarray  # (n, d)
    Sigma0: np.ndarray  # (n, m)
    R_x: np.ndarray  # (n, n) PSD
    R_u: np.ndarray  # (d, d) PD
    G: np.ndarray  # (n, n) PSD
    T: float
    x0: object

    def __post_init__(self):
        for name in ("A", "B", "Sigma0", "R_x", "R_u", "G"):
            frozen_field(self, name, 2)
        require_positive(self.T, "horizon T")
        if not isinstance(self.x0, GaussianInitial):
            frozen_field(self, "x0", 1)
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n or self.Sigma0.shape[0] != n:
            raise ShapeMismatch("LQ matrices disagree on the state dimension")
        d = self.B.shape[1]
        if self.R_u.shape != (d, d) or self.R_x.shape != (n, n) or self.G.shape != (n, n):
            raise ShapeMismatch("LQ cost matrices have wrong shapes")
        for M_, name, strict in ((self.R_u, "R_u", True), (self.R_x, "R_x", False), (self.G, "G", False)):
            if np.abs(M_ - M_.T).max() > SYMMETRY_TOL:
                raise NonPSD(f"{name} is not symmetric")
            eig = np.linalg.eigvalsh(M_)
            if strict and eig.min() <= 0:
                raise NonPSD(f"{name} must be positive definite")
            if not strict and eig.min() < -SYMMETRY_TOL:
                raise NonPSD(f"{name} must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.Sigma0.shape[1]

    @property
    def d(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class RiccatiSolution:
    ts: np.ndarray  # (n_ode + 1,)
    P: np.ndarray  # (n_ode + 1, n, n)
    optimal_cost: float
    gain: np.ndarray  # (n_ode + 1, d, n); feedback u*(t, x) = -gain(t) x

    def P_at(self, t: float) -> np.ndarray:
        return self._interp(self.P, t)

    def gain_at(self, t: float) -> np.ndarray:
        return self._interp(self.gain, t)

    def _interp(self, arr: np.ndarray, t: float) -> np.ndarray:
        ts = self.ts
        t = min(max(t, ts[0]), ts[-1])
        j = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
        lam = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1.0 - lam) * arr[j] + lam * arr[j + 1]

    def feedback(self, t: float, x: np.ndarray) -> np.ndarray:
        """Optimal policy u*(t, x), batched over a leading path axis."""
        return -np.atleast_2d(x) @ self.gain_at(t).T


def lq_riccati_oracle(spec: LQSpec, n_ode: int) -> RiccatiSolution:
    """Solve the matrix Riccati ODE backward with RK4 and evaluate the
    optimal cost for the given initial state.

    The derivative is -(A^T P + P A - P B R_u^{-1} B^T P + R_x) run backward
    from P(T) = G; each accepted step symmetrizes P and rejects asymmetry
    beyond tolerance.  The noise contribution integrates tr(Sigma0^T P
    Sigma0) with composite Simpson on the same grid.
    """
    if require_count(n_ode, "n_ode (ODE steps)", low=2) % 2 == 1:
        n_ode += 1  # Simpson needs an even interval count
    A, B, Rx, Ru, G = spec.A, spec.B, spec.R_x, spec.R_u, spec.G
    Ru_inv = np.linalg.inv(Ru)

    def rhs(P):
        return -(A.T @ P + P @ A - P @ B @ Ru_inv @ B.T @ P + Rx)

    h = spec.T / n_ode
    P = np.empty((n_ode + 1, spec.n, spec.n))
    P[n_ode] = G
    for j in range(n_ode, 0, -1):
        Pj = P[j]
        k1 = rhs(Pj)
        k2 = rhs(Pj - 0.5 * h * k1)
        k3 = rhs(Pj - 0.5 * h * k2)
        k4 = rhs(Pj - h * k3)
        nxt = Pj - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.abs(nxt - nxt.T).max() > SYMMETRY_TOL:
            raise NonPSD(f"Riccati iterate lost symmetry at step {j}")
        P[j - 1] = 0.5 * (nxt + nxt.T)

    ts = h * np.arange(n_ode + 1)
    noise_integrand = np.einsum("am,jab,bm->j", spec.Sigma0, P, spec.Sigma0)
    simpson = noise_integrand[0] + noise_integrand[-1]
    simpson += 4.0 * noise_integrand[1:-1:2].sum() + 2.0 * noise_integrand[2:-1:2].sum()
    noise_cost = simpson * h / 3.0
    if isinstance(spec.x0, GaussianInitial):
        init_cost = float(spec.x0.mean @ P[0] @ spec.x0.mean + np.trace(P[0] @ spec.x0.cov))
    else:
        init_cost = float(spec.x0 @ P[0] @ spec.x0)
    gain = np.einsum("de,ne,jnb->jdb", Ru_inv, B, P)
    return RiccatiSolution(ts, P, init_cost + float(noise_cost), gain)


def lq_problem(spec: LQSpec, control_box, observe=None, jump: JumpSpec | None = None) -> Problem:
    """Wrap an LQSpec as a generic control problem with exact gradients."""
    A, B, S0, Rx, Ru, G = spec.A, spec.B, spec.Sigma0, spec.R_x, spec.R_u, spec.G
    n, m = spec.n, spec.m

    def b(t, x, xi):
        return np.asarray(x) @ A.T + np.asarray(xi) @ B.T

    def b_x(t, x, xi):
        return np.broadcast_to(A, np.shape(x)[:-1] + A.shape)

    def sigma(t, x, xi):
        return np.broadcast_to(S0, np.shape(x)[:-1] + S0.shape)

    def sigma_x(t, x, xi):
        return np.zeros(np.shape(x)[:-1] + (n, m, n))

    def ell(t, x, xi):
        x = np.asarray(x)
        xi = np.asarray(xi)
        return np.einsum("...i,ij,...j->...", x, Rx, x) + np.einsum("...i,ij,...j->...", xi, Ru, xi)

    def ell_x(t, x, xi):
        quad = 2.0 * np.asarray(x) @ Rx.T
        return np.broadcast_to(quad, np.shape(x))

    def phi(x):
        x = np.asarray(x)
        return np.einsum("...i,ij,...j->...", x, G, x)

    def phi_x(x):
        return 2.0 * np.asarray(x) @ G.T

    return Problem(
        n=n,
        m=m,
        d=spec.d,
        T=spec.T,
        x0=spec.x0,
        b=b,
        sigma=sigma,
        ell=ell,
        phi=phi,
        control_box=control_box,
        b_x=b_x,
        sigma_x=sigma_x,
        ell_x=ell_x,
        phi_x=phi_x,
        jump=jump,
        observe=observe,
    )


LQ1D = LQSpec(
    A=[[-0.2]],
    B=[[0.8]],
    Sigma0=[[0.2]],
    R_x=[[0.25]],
    R_u=[[1.0]],
    G=[[0.3]],
    T=1.0,
    x0=np.array([1.0]),
)

# Riccati feedback values for LQ1D stay within this band on typical paths;
# the default atom grid spans it so a 9-point grid resolves the optimal gain.
LQ1D_FEEDBACK_RANGE = (-0.5, 0.5)

LQ2D = LQSpec(
    A=[[0.0, 1.0], [-1.0, -0.8]],
    B=[[0.0], [1.0]],
    Sigma0=[[0.15, 0.0], [0.0, 0.15]],
    R_x=[[1.0, 0.0], [0.0, 0.1]],
    R_u=[[0.25]],
    G=[[0.5, 0.0], [0.0, 0.5]],
    T=1.0,
    x0=np.array([1.0, 0.0]),
)

NONCONVEX_SIGMA = 0.3

JUMP_LQ_MARKS = np.array([[0.3], [-0.2]])
JUMP_LQ_RATES = np.array([1.0, 1.5])


def _jump_lq_spec() -> JumpSpec:
    def C(t, x, v, xi):
        # scaled in place: on all K atoms at once, a second (K, M, 1) array
        # per call costs more than the arithmetic
        out = 1.0 + 0.2 * np.asarray(x) + 0.1 * np.asarray(xi)
        out *= v
        return out

    def C_x(t, x, v, xi):
        base = np.zeros(np.shape(x)[:-1] + (1, 1))
        return base + 0.2 * v[0]

    return JumpSpec(JUMP_LQ_MARKS, JUMP_LQ_RATES, C, C_x)


def _sign_observation(x):
    return np.sign(np.asarray(x))


def make_benchmark(name: str) -> Problem:
    """Construct a named benchmark problem with documented constants."""
    if name == "lq1d":
        return lq_problem(LQ1D, control_box=[[-2.0, 2.0]], observe=_sign_observation)
    if name == "lq2d":
        return lq_problem(LQ2D, control_box=[[-3.0, 3.0]])
    if name == "jump-lq":
        return lq_problem(LQ1D, control_box=[[-2.0, 2.0]], observe=_sign_observation, jump=_jump_lq_spec())
    if name == "nonconvex-mix":
        sig = NONCONVEX_SIGMA

        def b(t, x, xi):
            return np.broadcast_to(xi, np.broadcast_shapes(np.shape(xi), np.shape(x)))

        def b_x(t, x, xi):
            return np.zeros(np.shape(x)[:-1] + (1, 1))

        def sigma(t, x, xi):
            return np.broadcast_to(sig, np.shape(x)[:-1] + (1, 1))

        def sigma_x(t, x, xi):
            return np.zeros(np.shape(x)[:-1] + (1, 1, 1))

        def ell(t, x, xi):
            x = np.asarray(x)
            return np.einsum("...i,...i->...", x, x)

        def ell_x(t, x, xi):
            return 2.0 * np.asarray(x)

        def phi(x):
            return np.zeros(np.shape(x)[:-1])

        def phi_x(x):
            return np.zeros(np.shape(x))

        return Problem(
            n=1,
            m=1,
            d=1,
            T=1.0,
            x0=np.array([0.0]),
            b=b,
            sigma=sigma,
            ell=ell,
            phi=phi,
            control_box=[[-1.0, 1.0]],
            b_x=b_x,
            sigma_x=sigma_x,
            ell_x=ell_x,
            phi_x=phi_x,
        )
    raise UnknownBenchmark(f"no benchmark named {name!r}; choose from {BENCHMARK_NAMES}")


def benchmark_lq_spec(name: str) -> LQSpec:
    if name in ("lq1d", "jump-lq"):
        return LQ1D
    if name == "lq2d":
        return LQ2D
    raise UnknownBenchmark(f"{name!r} has no LQ specification")


def benchmark_grid(name: str, K: int = 9) -> ControlGrid:
    """Default control grid: K atoms spanning the benchmark's useful control
    range (the feedback range for the LQ instances, the two atoms for the
    mixing benchmark)."""
    p = make_benchmark(name)
    if name == "nonconvex-mix":
        return ControlGrid([[-1.0], [1.0]], p.control_box)
    if name in ("lq1d", "jump-lq"):
        lo, hi = LQ1D_FEEDBACK_RANGE
    else:
        lo, hi = p.control_box[0]
    return ControlGrid(np.linspace(lo, hi, require_count(K, "K"))[:, None], p.control_box)


def benchmark_partition(name: str, mode: str, cells: int = 8) -> CellPartition | None:
    """Default feedback binning, `cells` per coordinate of the signal: the
    state box [-2, 2]^n for state feedback, [-1, 1] per coordinate of the
    observation for observation feedback, nothing for open loop."""
    if mode == OPEN_LOOP:
        return None
    p = make_benchmark(name)
    if mode == OBSERVATION_FEEDBACK:
        dim = p.observation(np.zeros((1, p.n))).shape[1]
        return CellPartition([[-1.0, 1.0]] * dim, (cells,) * dim)
    if mode == STATE_FEEDBACK:
        return CellPartition([[-2.0, 2.0]] * p.n, (cells,) * p.n)
    raise DomainError(f"unknown feedback mode {mode!r}")


def describe(name: str) -> dict:
    """Documented constants of a benchmark, keyed for the CLI."""
    p = make_benchmark(name)
    doc = {
        "name": name,
        "n": p.n,
        "m": p.m,
        "d": p.d,
        "T": p.T,
        "control_box": p.control_box.tolist(),
        "jumps": None,
    }
    if p.jump.J:
        doc["jumps"] = {
            "marks": p.jump.marks.tolist(),
            "intensities": p.jump.intensities.tolist(),
        }
    if name in ("lq1d", "lq2d", "jump-lq"):
        spec = benchmark_lq_spec(name)
        doc["lq"] = {
            "A": spec.A.tolist(),
            "B": spec.B.tolist(),
            "Sigma0": spec.Sigma0.tolist(),
            "R_x": spec.R_x.tolist(),
            "R_u": spec.R_u.tolist(),
            "G": spec.G.tolist(),
            "x0": np.asarray(spec.x0).tolist(),
        }
    if name == "nonconvex-mix":
        doc["sigma"] = NONCONVEX_SIGMA
    return doc


def best_regular_open_loop(p: Problem, grid: ControlGrid, noise: NoiseEnsemble):
    """Brute force over all one-hot open-loop weight profiles on the grid.

    Returns (best per-path costs, best profile of atom indices).  Exponential
    in the step count; meant for short grids (K^N profiles).
    """
    K, N = grid.K, noise.N
    if K**N > 200_000:
        raise DomainError(f"{K}**{N} profiles is too many to enumerate")
    best_costs = None
    best_profile = None
    for code in range(K**N):
        idx = [(code // K**k) % K for k in range(N)]
        w = np.zeros((N, 1, K))
        w[np.arange(N), 0, idx] = 1.0
        u = RelaxedControl(grid, w)
        costs = pathwise_cost(p, simulate(p, u, noise))
        if best_costs is None or costs.mean() < best_costs.mean():
            best_costs = costs
            best_profile = idx
    return best_costs, np.array(best_profile)


def nonconvex_weight_oracle(N: int = 8, resolution: float = 0.1, sigma: float = NONCONVEX_SIGMA, T: float = 1.0):
    """Reference optimum over open-loop weight profiles on the two-atom grid,
    discretized in steps of `resolution`.

    The expected discrete cost splits into a deterministic part driven by the
    mean state and an invariant noise part, so the search over the profile
    grid reduces to a shortest path over the reachable mean lattice; the
    optimum returned is exactly the optimum of exhaustive enumeration.
    """
    N, resolution = require_count(N, "N"), require_positive(resolution, "resolution")
    dt = T / N
    levels = np.round(np.arange(0.0, 1.0 + resolution / 2, resolution), 10)
    drift = 2.0 * levels - 1.0  # mean velocity per weight level
    # lattice of reachable means: integer multiples of resolution * 2 * dt
    unit = 2.0 * resolution * dt
    span = int(round(1.0 / resolution)) * N
    offsets = np.arange(-span, span + 1)
    means = offsets * unit
    cost_to_come = np.full(means.size, np.inf)
    start = span  # mean 0
    cost_to_come[start] = 0.0
    parent = np.full((N, means.size), -1, dtype=int)
    choice = np.full((N, means.size), -1, dtype=int)
    steps = [int(round(v * dt / unit)) for v in drift]
    for k in range(N):
        nxt = np.full(means.size, np.inf)
        for s in np.flatnonzero(np.isfinite(cost_to_come)):
            stage = cost_to_come[s] + (means[s] ** 2) * dt
            for a, off in enumerate(steps):
                s2 = s + off
                if 0 <= s2 < means.size and stage < nxt[s2]:
                    nxt[s2] = stage
                    parent[k, s2] = s
                    choice[k, s2] = a
        cost_to_come = nxt
    noise_part = float(sigma**2 * dt**2 * (N - 1) * N / 2.0)
    end = int(np.argmin(cost_to_come))
    profile = np.empty(N)
    s = end
    for k in range(N - 1, -1, -1):
        profile[k] = levels[choice[k, s]]
        s = parent[k, s]
    return float(cost_to_come[end] + noise_part), profile
