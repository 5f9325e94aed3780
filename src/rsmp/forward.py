"""Forward simulation of controlled (jump-)diffusions on a fixed time grid.

All randomness is pre-drawn into a NoiseEnsemble from counter-based Philox
substreams (Salmon et al., SC'11).  Paths are split into fixed blocks of
_BLOCK paths; each block draws each noise kind (initial normals, Brownian
increments, jump counts) from its own substream, whose counter encodes
(block index, kind), path-major.  Path i's noise is
therefore a function of (seed, i) alone: an ensemble of M1 paths is the row
prefix of one of M2 > M1 paths, and a simulation is a pure function of
(problem, control, noise).  `simulate` steps all M paths at once, like the
variational and adjoint sweeps; each path's row depends on its own noise
and weight row alone, under feedback too (a weight row is a control's,
total mass 1, or a direction's, total mass 0, and is never summed), so the
bits do not depend on how many paths share a step, and no result ever
depended on the worker cap.  Jumps use a finite atomic jump
measure; each step applies the event counts minus their compensator at the
left endpoint.  The forward and variational sweeps share one Euler step,
`euler_step`, which writes step k+1 into its row of the sweep's output.
Every per-step array (noise, states, and the variational and adjoint
sweeps' outputs) keeps its public shape (M, steps, ...) but is stored
step-major, so the slice arr[:, k] that a sweep reads or writes at step k is
one contiguous run; `np.ascontiguousarray(arr)` gives the path-major C
layout with the same values.
`simulate` is the only walk over a control: it records the running cost
from the weights or values it resolves, and `pathwise_cost` adds the
terminal cost to that record.  A relaxed control evaluates every atom at
a step, except at a Dirac step, where each cell's weight sits on one atom:
there it resolves that atom per path and steps as a regular control does.
Sweeps along an ensemble read its problem and control from it; the CSV and
binary files of ensembles are `container`'s, and this module opens no file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
from numpy.random import Generator, Philox

from .control import OBSERVATION_FEEDBACK, OPEN_LOOP, RegularControl, RelaxedControl
from .errors import BlowUp, DomainError, NonFiniteCoefficient, ShapeMismatch, require_count, require_finite
from .errors import allocating, require_seed
from .problem import GaussianInitial, Problem, _same_on_every_path, averaged_coefficients
from .problem import point_coefficients, terminal_cost

BLOWUP_GUARD = 1e9
# Fixed path block of the noise streams (stream version 2): each block draws
# from its own substreams, so changing it changes every draw.
_BLOCK = 8192
# Brownian increments and jump counts are drawn a few rows of a block at a
# time, together at most 128 KB, so storing them step-major adds no
# block-sized temporary to the noise.
_DRAW_FLOATS = 16384
# Version of the noise stream layout: bump it whenever any draw changes, so a
# replayed configuration cannot silently get different bytes.  Version 1 drew
# one Philox substream per path; version 2 one per (path block, noise kind).
STREAM_VERSION = 2
# Version of the arithmetic behind every result: bump it, and re-pin the
# pinned outputs, whenever a change moves the bits of a result the noise
# does not.  Version 2 bins the separable Hamiltonian sums; version 3 adds
# every cell sum within blocks of consecutive paths; version 4 averages a
# separable coefficient under one weight row by the separable identity, its
# tables at the mean of x0; version 5 under any weights, with line-search ties;
# version 6 takes a weight row's total as 1 (a control) or 0 (a direction),
# not its computed sum; version 7 averages and sums a `Separable` coefficient
# from its parts, state + w . table, where a problem declared separable took
# f(x, xi_0) + w . Delta; version 8 standardizes the regression design in one
# centring pass, fits both of a step's target blocks through one Cholesky
# factor of its normal matrix, and sums optimize's field from the terms that
# vary over the atoms only.
NUMERICS_VERSION = 8
_KIND_INITIAL, _KIND_BROWNIAN, _KIND_JUMPS = range(3)


def _step_major(M: int, steps: int, tail: tuple = (), dtype=float) -> np.ndarray:
    """Uninitialized (M, steps, *tail) array stored step-major, so that
    arr[:, k] is one contiguous (M, *tail) run."""
    return np.empty((steps, M, *tail), dtype=dtype).swapaxes(0, 1)


def _sum_steps(arr: np.ndarray, factor: int) -> np.ndarray:
    """Sums over runs of `factor` consecutive steps of an (M, N, ...) array,
    stored step-major.  Each block of paths is summed on a path-major copy,
    so every sum is added in the order of the C-layout reshape-sum, bit for
    bit (numpy adds pairwise along a contiguous axis, in sequence otherwise)."""
    M, N, *tail = arr.shape
    out = _step_major(M, N // factor, tuple(tail), arr.dtype)
    for s in range(0, M, _BLOCK):
        block = np.ascontiguousarray(arr[s : s + _BLOCK])
        out[s : s + _BLOCK] = block.reshape(len(block), N // factor, factor, *tail).sum(axis=2)
    return out


@dataclass(frozen=True)
class NoiseEnsemble:
    """Pre-drawn driving noise: Brownian increments, jump counts, initial draws.

    dW has shape (M, N, m) with variance dt per component; jump_counts holds
    the int64 (M, N, J) event counts per mark (J = 0 for a diffusion);
    initial_normals the normal draws of a stochastic initial state (or None).
    Paths fall into fixed blocks of _BLOCK; block b draws each noise kind from
    its own Philox substream with counter (b, kind), path-major, so path i's
    draws depend on (seed, i) alone and a smaller ensemble of the same seed is
    a row prefix of a larger one.  stream_version names this draw order.
    dW and jump_counts are stored step-major (dW[:, k] is contiguous); the
    storage order is not part of the stream, and a path-major copy such as
    `np.ascontiguousarray(dW)` drives every sweep to the same bits.
    """

    M: int
    N: int
    m: int
    dt: float
    seed: int
    dW: np.ndarray
    jump_counts: np.ndarray
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
        over consecutive fine steps, so the same driving paths are reused.
        The result is stored step-major and read-only, like the noise it
        coarsens."""
        if self.N % require_count(factor, "coarsening factor") != 0:
            raise DomainError("factor must divide the step count")
        dW = _sum_steps(self.dW, factor)
        counts = _sum_steps(self.jump_counts, factor)
        _freeze(dW, counts)
        return replace(self, N=self.N // factor, dt=self.dt * factor, dW=dW, jump_counts=counts)


def _freeze(*arrays) -> None:
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)


def _substream(seed: int, block: int, kind: int) -> Generator:
    """Philox generator for one (path block, noise kind); the low 128 counter
    bits are left for the draws themselves."""
    return Generator(Philox(key=seed, counter=((kind << 64) | block) << 128))


def sample_noise(p: Problem, M: int, N: int, seed: int) -> NoiseEnsemble:
    """Draw the full noise ensemble for M paths on an N-step grid.

    Each block of _BLOCK paths draws every noise kind (initial-state normals
    if stochastic, Brownian increments, Poisson event counts per mark)
    path-major from its own substream, so the same seed always reproduces the
    same ensemble bit for bit and the draws do not depend on the order in
    which blocks are drawn.  A block's increments are drawn a few rows at a
    time into one small reused buffer and copied, scaled, into the
    step-major dW, and its counts the same rows at a time (a diffusion, J = 0,
    draws none); successive draws continue each of the block's substreams,
    so the values are those of one call for the whole block.
    """
    M, N, seed = require_count(M, "M"), require_count(N, "N"), require_seed(seed)
    dt = p.T / N
    sqrt_dt = np.sqrt(dt)
    J = p.jump.J
    with allocating(M * (N * (p.m + J) + p.n), f"noise of {M} paths and {N} steps"):
        dW = _step_major(M, N, (p.m,))
        z0 = np.empty((M, p.n)) if isinstance(p.x0, GaussianInitial) else None
        counts = _step_major(M, N, (J,), np.int64)
    rows = max(1, _DRAW_FLOATS // (N * (p.m + J)))
    draws = np.empty((min(M, _BLOCK, rows), N, p.m))  # Philox fills only a C-contiguous out=
    for b, s in enumerate(range(0, M, _BLOCK)):
        e = min(s + _BLOCK, M)
        if z0 is not None:
            _substream(seed, b, _KIND_INITIAL).standard_normal((e - s, p.n), out=z0[s:e])
        brownian = _substream(seed, b, _KIND_BROWNIAN)
        jumps = _substream(seed, b, _KIND_JUMPS)
        for r in range(s, e, rows):
            chunk = draws[: min(rows, e - r)]
            brownian.standard_normal(chunk.shape, out=chunk)
            chunk *= sqrt_dt
            dW[r : r + len(chunk)] = chunk
            if J:  # Generator.poisson has no out=; its (rows, N, J) result is the only temporary
                counts[r : r + len(chunk)] = jumps.poisson(p.jump.intensities * dt, (len(chunk), N, J))
    _freeze(dW, counts, z0)
    return NoiseEnsemble(M, N, p.m, dt, seed, dW, counts, z0)


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated states on the time grid plus the noise that drove them, and
    the left-endpoint quadrature of `problem`'s running cost under
    `control_used` along each path, recorded by `simulate` (read-only)."""

    states: np.ndarray  # (M, N+1, n), step-major
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

    def require(self, p: Problem, u0: RelaxedControl | None = None) -> None:
        """ShapeMismatch unless simulated under the problem object p (identity:
        callables have no value equality) and, if given, a control equal to u0."""
        if p is not self.problem:
            raise ShapeMismatch("the ensemble was simulated under another problem")
        if u0 is not None and not u0.equals(self.control_used):
            raise ShapeMismatch("base ensemble was not simulated under u0")

    def feedback_signal(self, k: int, mode: str):
        """Signal that resolves feedback cells at step k, or None for open loop."""
        return _feedback_signal(self.problem, mode, self.states[:, k])


def _feedback_signal(p: Problem, mode: str, x: np.ndarray):
    """Signal that resolves feedback cells at states x: None for open loop,
    the observation for observation feedback, the state itself otherwise."""
    if mode == OPEN_LOOP:
        return None
    return p.observation(x) if mode == OBSERVATION_FEEDBACK else x


def _step_weights(paths: PathEnsemble, k: int, direction: RelaxedControl | None = None) -> tuple:
    """Step k of the ensemble's relaxed control_used, resolved on its paths:
    the feedback cells (M,) (0 under open loop), a function returning the
    weights (the row (K,), or the (M, K) rows gathered once, on the first
    call, so a step whose values do not depend on the control gathers none),
    and a direction's weights less those, or None."""
    u, table = paths.control_used, paths.control_used.weights[k]
    if u.feedback is None:
        cells, gather = np.zeros(paths.M, dtype=np.int64), (lambda t: t[0])
    else:
        cells = u.feedback.assign(paths.feedback_signal(k, u.feedback_mode))
        gather = partial(np.take, indices=cells, axis=0)
    dw = None if direction is None else gather(direction.weights[k] - table)
    return cells, cache(lambda: gather(table)), dw


def guard_step(x: np.ndarray, k: int, what: str) -> None:
    """Check the states x reached by step k with one NaN-propagating max |x|.

    A NaN anywhere raises NonFiniteCoefficient, also when other entries
    exceed the guard: a NaN state has no norm to report.  Otherwise an entry
    above BLOWUP_GUARD, Inf included, raises BlowUp with the largest |x|.
    """
    peak = float(max(x.max(), -x.min()))  # max |x| without an |x| temporary
    if peak <= BLOWUP_GUARD:
        return
    if np.isnan(peak):
        raise NonFiniteCoefficient(f"non-finite {what} at step {k}")
    raise BlowUp(k, peak)


def _control_values(p: Problem, u, k: int, N: int, t: float, x: np.ndarray) -> np.ndarray:
    """Point control values (M, d) for a RegularControl or a plain policy
    callable (ShapeMismatch if they do not broadcast to that shape)."""
    if isinstance(u, RegularControl):
        vals = u.values_at(k, N, _feedback_signal(p, u.feedback_mode, x))
    else:
        vals = np.asarray(u(t, x), dtype=float)
    try:
        return np.broadcast_to(vals, (x.shape[0], p.d))
    except ValueError:
        raise ShapeMismatch(f"control values of shape {vals.shape} for {x.shape[0]} paths and d = {p.d}") from None


def _dirac_steps(u: RelaxedControl) -> tuple[np.ndarray, RegularControl]:
    """Which steps of u are Dirac, every cell's weight row one-hot (a single
    1.0, zeros elsewhere), as an (N,) mask; and the regular control with one
    slot per step that takes, in each cell, the atom of largest weight, so
    at a Dirac step the atom that carries all of it."""
    w = u.weights
    one_hot = (np.count_nonzero(w, axis=-1) == 1) & (w.max(axis=-1) == 1.0)
    atoms = u.grid.points[w.argmax(axis=-1)]
    return one_hot.all(axis=1), RegularControl(atoms, u.grid.box, u.feedback_mode, u.feedback)


def euler_step(p: Problem, noise: NoiseEnsemble, k: int, x, drift, diff, jumps, out, what: str) -> None:
    """Write x + drift dt + diff dW_k + sum_j C_j (counts_kj - lam_j dt) on
    every path into the row out (not x), marks added in order, and check it
    by `guard_step`; a drift or diffusion the same on every path is read as
    one row.  The terms are added in that order, so the bits are the sum's."""
    dt = noise.dt
    if _same_on_every_path(drift):
        np.add(x, drift[:1] * dt, out=out)
    else:
        np.multiply(drift, dt, out=out)
        out += x  # drift dt + x: the same bits as x + drift dt
    if _same_on_every_path(diff):
        out += np.einsum("nm,qm->qn", diff[0], noise.dW[:, k])
    else:
        out += np.einsum("qnm,qm->qn", diff, noise.dW[:, k])
    for j, cj in enumerate(jumps):
        factor = noise.jump_counts[:, k, j] - p.jump.intensities[j] * dt
        out += factor[:, None] * cj
    guard_step(out, k, what)


def simulate(p: Problem, u, noise: NoiseEnsemble, threads: int = 1) -> PathEnsemble:
    """Euler step the controlled dynamics under a relaxed control, a regular
    control, or a plain feedback policy (t, x) -> xi.

    Feedback weights at step k are resolved from the state (or observation)
    at step k; jump events apply at the left endpoint of their step together
    with the intensity compensator; the running cost at the same weights or
    values accumulates into running_cost.  Each step advances all paths at
    once.  A relaxed step whose weight row is one-hot in every cell (a Dirac
    step, as a conditional-gradient step of size 1 lands on) takes the
    regular-control path: every path's coefficients are evaluated once, at
    the atom its cell puts all weight on, so `simulate(p, dirac_embed(r,
    grid), noise)` is `simulate(p, r, noise)` bit for bit, and, as for a
    regular control, a NaN at an atom without weight raises nothing.
    `threads` is a worker cap that serial execution always meets and
    that never changed a result; it must be at least 1 (DomainError
    otherwise).  A control of another dimension than p.d raises
    ShapeMismatch.
    """
    require_count(threads, "threads (a worker cap)")
    if noise.m != p.m:
        raise ShapeMismatch("noise Brownian dimension does not match the problem")
    if noise.jump_counts.shape[2] != p.jump.J:
        raise ShapeMismatch(f"noise has jump counts for {noise.jump_counts.shape[2]} marks, the problem {p.jump.J}")
    if isinstance(u, RelaxedControl) and u.time_steps != noise.N:
        raise ShapeMismatch("control and noise disagree on step count")
    d = u.grid.d if isinstance(u, RelaxedControl) else u.d if isinstance(u, RegularControl) else p.d
    if d != p.d:
        raise ShapeMismatch(f"control of dimension {d} for a problem with d = {p.d}")
    N, dt = noise.N, noise.dt
    states = _step_major(noise.M, N + 1, (p.n,))
    states[:, 0] = p.initial_states(noise.M, noise.initial_normals)
    running = np.zeros(noise.M)
    at_point, point = _dirac_steps(u) if isinstance(u, RelaxedControl) else (np.ones(N, dtype=bool), u)
    for k in range(N):
        t, x = k * dt, states[:, k]
        if at_point[k]:
            drift, diff, ell, jumps = point_coefficients(p, t, x, _control_values(p, point, k, N, t, x))
        else:
            w = u.weights_at(k, _feedback_signal(p, u.feedback_mode, x))
            drift, diff, ell, jumps = averaged_coefficients(p, u.grid, t, x, w)
        running += ell * dt
        euler_step(p, noise, k, x, drift, diff, jumps, states[:, k + 1], "state")
    states.setflags(write=False)
    running.setflags(write=False)
    return PathEnsemble(states, noise, u, p, running)


def pathwise_cost(p: Problem, paths: PathEnsemble) -> np.ndarray:
    """Per-path cost: left-endpoint quadrature of the running cost plus the
    terminal cost, under the control recorded in the ensemble.

    The running cost is the one `simulate` recorded for paths.problem, so p
    must be that same problem object (`PathEnsemble.require`) and phi give
    shape (M,), else ShapeMismatch; a NaN/Inf cost raises NonFiniteCoefficient.
    """
    paths.require(p)
    return require_finite(paths.running_cost + terminal_cost(p, paths.states[:, -1]), "cost evaluation")


def _rescaled(f, y: np.ndarray, what: str | None = None) -> np.ndarray:
    """f(y) without numpy warnings, for an f whose array value scales with y;
    where that is not finite, max|y| * f(y / max|y|), so finite y whose sums
    or products overflow give finite values.  Values that stay NaN/Inf (y
    that is not finite) raise NonFiniteCoefficient naming what, or without
    what are the caller's to check."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = f(y)
        if not np.all(np.isfinite(out)):
            scale = np.abs(y).max()
            out = scale * f(y / scale)
            if what is not None:
                require_finite(out, what)
    return out


def _mean_and_error(x: np.ndarray, what: str) -> tuple[float, float]:
    """Sample mean of x (n,) and its standard error std(ddof=1) / sqrt(n), 0.0 for one sample.

    Finite samples whose sum or squares overflow are recomputed on x / max|x|
    and scaled back (`_rescaled`), so they too give finite statistics; a
    statistic that stays NaN/Inf raises NonFiniteCoefficient naming it.
    """
    mean, se = _rescaled(lambda y: np.array([y.mean(), y.std(ddof=1) / np.sqrt(len(y)) if len(y) > 1 else 0.0]), x)
    return float(require_finite(mean, f"mean of {what}")), float(require_finite(se, f"standard error of {what}"))


def cost(p: Problem, paths: PathEnsemble) -> tuple[float, float]:
    """Monte Carlo cost estimate and its standard error."""
    return _mean_and_error(pathwise_cost(p, paths), "cost")
