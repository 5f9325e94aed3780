"""Forward simulation of controlled (jump-)diffusions on a fixed time grid.

All randomness is pre-drawn into a NoiseEnsemble from counter-based Philox
substreams (Salmon et al., SC'11).  Paths are split into fixed blocks of
_BLOCK paths; each block draws each noise kind (initial normals, Brownian
increments, jump counts) from its own substream, whose counter encodes
(block index, kind), in one vectorized path-major call.  Path i's noise is
therefore a function of (seed, i) alone: an ensemble of M1 paths is the row
prefix of one of M2 > M1 paths, and a simulation is a pure function of
(problem, control, noise), bit-identical for any worker count.  Jumps use a
finite atomic jump measure; each step applies the event counts minus their
compensator at the left endpoint.
`simulate` is the only walk over a control: it records the running cost
from the weights or values it resolves, and `pathwise_cost` adds the
terminal cost to that record.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .control import OBSERVATION_FEEDBACK, OPEN_LOOP, RegularControl, RelaxedControl
from .errors import BlowUp, DomainError, NonFiniteCoefficient, ShapeMismatch
from .problem import (
    GaussianInitial,
    Problem,
    averaged_diffusion,
    averaged_drift,
    averaged_jump,
    averaged_running_cost,
)

BLOWUP_GUARD = 1e9
_BLOCK = 8192  # fixed path block size; keeps results independent of worker count
# Version of the noise stream layout: bump it whenever any draw changes, so a
# replayed configuration cannot silently get different bytes.  Version 1 drew
# one Philox substream per path; version 2 one per (path block, noise kind).
STREAM_VERSION = 2
_KIND_INITIAL, _KIND_BROWNIAN, _KIND_JUMPS = range(3)


@dataclass(frozen=True)
class NoiseEnsemble:
    """Pre-drawn driving noise: Brownian increments, jump counts, initial draws.

    dW has shape (M, N, m) with variance dt per component; jump_counts has
    shape (M, N, J) (None without jumps); initial_normals holds the standard
    normal draws used by a stochastic initial state (None when deterministic).
    Paths fall into fixed blocks of _BLOCK; block b draws each noise kind from
    its own Philox substream with counter (b, kind), path-major, so path i's
    draws depend on (seed, i) alone and a smaller ensemble of the same seed is
    a row prefix of a larger one.  stream_version names this layout.
    """

    M: int
    N: int
    m: int
    dt: float
    seed: int
    dW: np.ndarray
    jump_counts: np.ndarray | None
    initial_normals: np.ndarray | None
    stream_version: int = STREAM_VERSION

    @property
    def stream_ids(self) -> None:
        """Always None; paths carry no stream ids since the blocked layout.

        Kept only because perfbench's noise-bytes counter still reads it;
        remove both together with the next benchmark change."""
        return None

    def coarsen(self, factor: int) -> "NoiseEnsemble":
        """Aggregate to a grid coarser by `factor`: increments and counts sum
        over consecutive fine steps, so the same driving paths are reused."""
        if self.N % factor != 0:
            raise DomainError("factor must divide the step count")
        Nc = self.N // factor
        dW = self.dW.reshape(self.M, Nc, factor, self.m).sum(axis=2)
        counts = None
        if self.jump_counts is not None:
            J = self.jump_counts.shape[2]
            counts = self.jump_counts.reshape(self.M, Nc, factor, J).sum(axis=2)
        return replace(self, N=Nc, dt=self.dt * factor, dW=dW, jump_counts=counts)


def _substream(seed: int, block: int, kind: int) -> Generator:
    """Philox generator for one (path block, noise kind); the low 128 counter
    bits are left for the draws themselves."""
    return Generator(Philox(key=seed, counter=((kind << 64) | block) << 128))


def sample_noise(p: Problem, M: int, N: int, seed: int) -> NoiseEnsemble:
    """Draw the full noise ensemble for M paths on an N-step grid.

    Each block of _BLOCK paths fills its rows of every array with one
    vectorized call per noise kind (initial-state normals if stochastic,
    Brownian increments, Poisson event counts per mark), each from its own
    substream, so the same seed always reproduces the same ensemble bit for
    bit and the draws do not depend on the order in which blocks are drawn.
    """
    if M < 1 or N < 1:
        raise DomainError("M and N must be positive")
    if not 0 <= seed < 2**128:
        raise DomainError("seed must lie in [0, 2**128), the Philox key range")
    dt = p.T / N
    sqrt_dt = np.sqrt(dt)
    dW = np.empty((M, N, p.m))
    z0 = np.empty((M, p.n)) if isinstance(p.x0, GaussianInitial) else None
    counts = np.empty((M, N, p.jump.J), dtype=np.int64) if p.jump is not None else None
    for b, s in enumerate(range(0, M, _BLOCK)):
        e = min(s + _BLOCK, M)
        if z0 is not None:
            _substream(seed, b, _KIND_INITIAL).standard_normal((e - s, p.n), out=z0[s:e])
        block_dW = dW[s:e]
        _substream(seed, b, _KIND_BROWNIAN).standard_normal((e - s, N, p.m), out=block_dW)
        block_dW *= sqrt_dt
        if counts is not None:
            counts[s:e] = _substream(seed, b, _KIND_JUMPS).poisson(p.jump.intensities * dt, (e - s, N, p.jump.J))
    for arr in (dW, counts, z0):
        if arr is not None:
            arr.setflags(write=False)
    return NoiseEnsemble(M, N, p.m, dt, seed, dW, counts, z0)


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated states on the time grid plus the noise that drove them, and
    the left-endpoint quadrature of `problem`'s running cost under
    `control_used` along each path, recorded by `simulate` (read-only)."""

    states: np.ndarray  # (M, N+1, n)
    noise: NoiseEnsemble
    control_used: object
    problem: Problem
    running_cost: np.ndarray  # (M,)

    @property
    def M(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def dt(self) -> float:
        return self.noise.dt

    @property
    def horizon(self) -> float:
        return self.noise.dt * self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def feedback_signal(self, k: int, mode: str):
        """Signal that resolves feedback cells at step k, or None for open loop."""
        return _feedback_signal(self.problem, mode, self.states[:, k])


def _feedback_signal(p: Problem, mode: str, x: np.ndarray):
    """Signal that resolves feedback cells at states x: None for open loop,
    the observation for observation feedback, the state itself otherwise."""
    if mode == OPEN_LOOP:
        return None
    return p.observation(x) if mode == OBSERVATION_FEEDBACK else x


def step_cells(paths: PathEnsemble, u: RelaxedControl, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Feedback cell (M,) of every path of the ensemble at step k under u
    (all 0 for open loop), and the per-path weight vectors (M, K) there."""
    signal = paths.feedback_signal(k, u.feedback_mode)
    if signal is None:
        return np.zeros(paths.M, dtype=np.int64), np.broadcast_to(u.weights[k, 0], (paths.M, u.grid.K))
    cells = u.feedback.assign(signal)
    return cells, u.weights[k, cells]


def step_weights(paths: PathEnsemble, u: RelaxedControl, k: int) -> np.ndarray:
    """Per-path weight vectors of u at step k, resolved on the ensemble."""
    return step_cells(paths, u, k)[1]


def guard_step(x: np.ndarray, k: int, what: str) -> None:
    """Check the states x reached by step k with one NaN-propagating max |x|.

    A NaN anywhere raises NonFiniteCoefficient, also when other entries
    exceed the guard: a NaN state has no norm to report.  Otherwise an entry
    above BLOWUP_GUARD, Inf included, raises BlowUp with the largest |x|.
    """
    peak = float(np.abs(x).max())
    if peak <= BLOWUP_GUARD:
        return
    if np.isnan(peak):
        raise NonFiniteCoefficient(f"non-finite {what} at step {k}")
    raise BlowUp(k, peak)


def _control_values(p: Problem, u, k: int, N: int, t: float, x: np.ndarray) -> np.ndarray:
    """Point control values for a RegularControl or a plain policy callable."""
    if isinstance(u, RegularControl):
        vals = u.values_at(k, N, _feedback_signal(p, u.feedback_mode, x))
    else:
        vals = np.asarray(u(t, x), dtype=float)
    return np.broadcast_to(vals, (x.shape[0], p.d))


def _simulate_block(p: Problem, u, noise: NoiseEnsemble, grid, sl: slice, out: np.ndarray, running: np.ndarray):
    N, dt = noise.N, noise.dt
    x = out[sl, 0]
    relaxed = isinstance(u, RelaxedControl)
    lam = p.jump.intensities if p.jump is not None else None
    for k in range(N):
        t = k * dt
        if relaxed:
            w = u.weights_at(k, _feedback_signal(p, u.feedback_mode, x))
            drift = averaged_drift(p, grid, t, x, w)
            diff = averaged_diffusion(p, grid, t, x, w)
            running[sl] += averaged_running_cost(p, grid, t, x, w) * dt
        else:
            xi = _control_values(p, u, k, N, t, x)
            drift = np.asarray(p.b(t, x, xi), dtype=float)
            diff = np.asarray(p.sigma(t, x, xi), dtype=float)
            running[sl] += np.asarray(p.ell(t, x, xi), dtype=float) * dt
        x_next = x + drift * dt + np.einsum("qnm,qm->qn", diff, noise.dW[sl, k])
        if p.jump is not None:
            for j in range(p.jump.J):
                v = p.jump.marks[j]
                if relaxed:
                    cj = averaged_jump(p, grid, t, x, v, w)
                else:
                    cj = np.asarray(p.jump.C(t, x, v, xi), dtype=float)
                factor = noise.jump_counts[sl, k, j] - lam[j] * dt
                x_next = x_next + factor[:, None] * cj
        guard_step(x_next, k, "state")
        out[sl, k + 1] = x_next
        x = out[sl, k + 1]


def simulate(p: Problem, u, noise: NoiseEnsemble, threads: int = 1) -> PathEnsemble:
    """Euler step the controlled dynamics under a relaxed control, a regular
    control, or a plain feedback policy (t, x) -> xi.

    Feedback weights at step k are resolved from the state (or observation)
    at step k; jump events apply at the left endpoint of their step together
    with the intensity compensator; the running cost at the same weights or
    values accumulates into running_cost.  Paths are advanced in fixed-size
    blocks so the result does not depend on the worker count.
    """
    if noise.m != p.m:
        raise ShapeMismatch("noise Brownian dimension does not match the problem")
    if p.jump is not None and (noise.jump_counts is None or noise.jump_counts.shape[2] != p.jump.J):
        raise ShapeMismatch("noise ensemble lacks jump draws for this problem")
    grid = u.grid if isinstance(u, RelaxedControl) else None
    if isinstance(u, RelaxedControl) and u.time_steps != noise.N:
        raise ShapeMismatch("control and noise disagree on step count")
    states = np.empty((noise.M, noise.N + 1, p.n))
    states[:, 0] = p.initial_states(noise.M, noise.initial_normals)
    running = np.zeros(noise.M)
    blocks = [slice(s, min(s + _BLOCK, noise.M)) for s in range(0, noise.M, _BLOCK)]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futs = [pool.submit(_simulate_block, p, u, noise, grid, sl, states, running) for sl in blocks]
            for f in futs:
                f.result()
    else:
        for sl in blocks:
            _simulate_block(p, u, noise, grid, sl, states, running)
    states.setflags(write=False)
    running.setflags(write=False)
    return PathEnsemble(states, noise, u, p, running)


def pathwise_cost(p: Problem, paths: PathEnsemble) -> np.ndarray:
    """Per-path cost: left-endpoint quadrature of the running cost plus the
    terminal cost, under the control recorded in the ensemble.

    The running cost is the one `simulate` recorded for paths.problem, so p
    must be that same problem object; another raises ShapeMismatch.  A
    NaN/Inf cost on any path raises NonFiniteCoefficient.
    """
    if p is not paths.problem:
        raise ShapeMismatch("the ensemble was simulated under another problem")
    total = paths.running_cost + np.asarray(p.phi(paths.states[:, -1]), dtype=float)
    if not np.all(np.isfinite(total)):
        raise NonFiniteCoefficient("cost evaluation produced NaN/Inf")
    return total


def cost(p: Problem, paths: PathEnsemble) -> tuple[float, float]:
    """Monte Carlo cost estimate and its standard error."""
    c = pathwise_cost(p, paths)
    return float(c.mean()), float(c.std(ddof=1) / np.sqrt(len(c))) if len(c) > 1 else 0.0


def paths_to_csv(paths: PathEnsemble, fileobj) -> None:
    """One row per (path, step): path, step, t, x_0 .. x_{n-1}.

    UTF-8, header row, '.' decimals, LF line endings; floats use shortest
    round-trip formatting so replays are byte-identical.
    """
    close = False
    if isinstance(fileobj, (str, bytes)):
        fileobj = open(fileobj, "w", encoding="utf-8", newline="\n")
        close = True
    try:
        n = paths.states.shape[2]
        header = "path,step,t," + ",".join(f"x{i}" for i in range(n))
        fileobj.write(header + "\n")
        dt = paths.dt
        for q in range(paths.M):
            for k in range(paths.n_steps + 1):
                row = paths.states[q, k]
                fileobj.write(f"{q},{k},{dt * k!r}," + ",".join(repr(float(v)) for v in row) + "\n")
    finally:
        if close:
            fileobj.close()


def paths_to_csv_string(paths: PathEnsemble) -> str:
    buf = io.StringIO()
    paths_to_csv(paths, buf)
    return buf.getvalue()
