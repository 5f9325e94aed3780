"""Hamiltonian evaluation, pointwise minimization, and the descent loop.

The pathwise Hamiltonian pairs the adjoint triple with the coefficients at
each control atom.  Its averages over feedback cells, an (N, C, K) tensor,
are the conditional Hamiltonian whose per-cell minimizer is the
linear-minimization oracle of a conditional-gradient loop over the convex
set of relaxed controls: candidates are one-hot (extreme-point) controls,
iterates move by convex mixing under a halving line search on common random
numbers, and the nonnegative Hamiltonian excess of the current control
certifies optimality when it vanishes.  The backward sweep (`solve_bsde`)
already sums the atom Hamiltonians over the cells of the control it was
solved under, so the field is built from the adjoint alone: those sums
divided by the cell occupancy, on that control's cells.  It evaluates no
coefficient.  `optimize` runs the same sweep without recording the adjoint
processes or the pairing sums, and without the Hamiltonian terms that are
the same at every atom, which a cell's minimizer and Hamiltonian excess do
not see; it divides the sums it keeps the same way, so its field is the
public one plus one number per (step, cell).

The information the Hamiltonian is conditioned on is the control's own:
one cell per step for an open-loop control, state or observation cells for
feedback.  Partial information is an observation-feedback control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .adjoint import AdjointEnsemble, BasisSpec, _sweep
from .control import ControlGrid, RegularControl, RelaxedControl, mix, validate
from .errors import DomainError, ShapeMismatch, allocating, require_count, require_finite, require_seed
from .errors import require_tolerance
from .forward import _mean_and_error, pathwise_cost, sample_noise, simulate
from .problem import Problem, _hamiltonian_rows, _require_shape, averaged_coefficients

LINE_SEARCH_FLOOR = 10  # smallest line-search step is 2**-LINE_SEARCH_FLOOR
# gain = se_diff = a / M exactly when a trial lowers one path's cost by a > 0 and
# no other: accept that tie on every stack (rounding moves it by ~1e-16 relative).
LINE_SEARCH_TIE = 1e-12
_DISTANCE_FLOATS = 131072  # cell-center differences held at once by _nearest_nonempty: 1 MB


def _per_path(arr, M: int) -> np.ndarray:
    """A (M, a, b) array as given, or one shared (a, b) array broadcast to it."""
    arr = np.asarray(arr, dtype=float)
    return np.broadcast_to(arr, (M,) + arr.shape) if arr.ndim == 2 else arr


def hamiltonian(p: Problem, grid: ControlGrid, t, x, psi, Q, phi_row, w) -> np.ndarray:
    """Relaxed-averaged Hamiltonian H(w) = sum_i w_i H(xi_i): the one
    pairing (`_hamiltonian_rows`) of the w-averaged coefficients, each by
    its own rule (`averaged_coefficients`), with the adjoint.

    Batched over the M paths of x (M, n): psi is (M, n), Q (M, n, m) and
    phi_row (M, J, n), where Q and phi_row may also be one (n, m) or (J, n)
    array shared by every path, and a diffusion's phi_row (J = 0) may be
    None; w is one weight row (K,) or one per path (M, K).  Any other shape,
    here or of a coefficient value, raises ShapeMismatch, then a row of w
    off the simplex (`validate`'s rule) DomainError, and a NaN/Inf average,
    term or result (an overflowing sum included) NonFiniteCoefficient.
    Affine in the measure w.
    """
    x = np.atleast_2d(x)
    M, n, K = x.shape[0], p.n, grid.K
    x = _require_shape(x, (M, n), "x")
    psi = _require_shape(np.atleast_2d(psi), (M, n), "psi")
    Q = _require_shape(_per_path(Q, M), (M, n, p.m), "Q")
    if np.shape(w) not in ((K,), (M, K)):
        raise ShapeMismatch(f"w has shape {np.shape(w)}, expected {(K,)} or {(M, K)}")
    if phi_row is not None:
        phi_row = _require_shape(_per_path(phi_row, M), (M, p.jump.J, n), "phi_row")
    if violations := validate(w).violations:
        v = violations[0]
        raise DomainError(f"w is not a measure: {v.kind} weights in row {v.step}, off the simplex by {v.magnitude:.3e}")
    b, sigma, ell, Cs = averaged_coefficients(p, grid, t, x, w)
    (ham,), _ = _hamiltonian_rows(p, [value[None] for value in (b, sigma, ell, *Cs)], psi, Q, phi_row, False, True)
    return require_finite(ham, "Hamiltonian")


@dataclass(frozen=True)
class HamiltonianField:
    """Hamiltonian conditioned on the feedback cells of a control.

    cell_values[k, c, i] averages the pathwise Hamiltonian at atom i over the
    occupancy[k, c] paths in feedback cell c of control at step k (an empty
    cell takes the values of its nearest occupied cell): the adjoint's
    hamiltonian_sums divided by its occupancy, which the field shares.
    control is the relaxed control the adjoint was solved under; its grid and
    feedback structure are the field's.  Pathwise values are not kept;
    `hamiltonian` with one-hot weights gives them (bit for bit without a
    `Separable`).  The field `optimize` builds for itself leaves out the
    terms the same at every atom, so its cell_values are these plus one
    number per (step, cell): the same argmin and, to rounding, the same
    `smp_gap`.
    """

    cell_values: np.ndarray  # (N, C, K)
    occupancy: np.ndarray  # (N, C)
    control: RelaxedControl
    dt: float


def _nearest_nonempty(cell_values_k, counts_k, centers):
    """Fill empty cells with the values of the nearest occupied cell, ties
    to the lowest index; distances are `np.linalg.norm`'s, for runs of empty
    cells at once.  An open loop (centers None) has one cell holding every path."""
    empty = np.flatnonzero(counts_k == 0)
    if empty.size == 0:
        return
    occupied = np.flatnonzero(counts_k > 0)
    occupied_centers = centers[occupied]
    rows = max(1, _DISTANCE_FLOATS // occupied_centers.size)
    for s in range(0, empty.size, rows):
        cells = empty[s : s + rows]
        diff = occupied_centers - centers[cells][:, None, :]  # (cells, occupied, p)
        nearest = np.argmin(np.sqrt(np.add.reduce(diff * diff, axis=-1)), axis=1)
        cell_values_k[cells] = cell_values_k[occupied[nearest]]


def _field(sums: np.ndarray, occupancy: np.ndarray, u0: RelaxedControl, dt: float) -> HamiltonianField:
    """The field of the cell sums (N, C, K) and occupancy (N, C) a backward
    sweep binned on u0's cells: the sums divided by the occupancy, with
    empty cells filled from their nearest occupied neighbour.  Sums without
    the terms that are the same at every atom (`optimize`'s) give the full
    field plus one number per (step, cell), an empty cell its neighbour's."""
    centers = u0.feedback.centers() if u0.feedback is not None else None
    cell_values = np.zeros(sums.shape)
    for k, counts in enumerate(occupancy):
        nonzero = counts > 0
        cell_values[k, nonzero] = sums[k, nonzero] / counts[nonzero, None]
        _nearest_nonempty(cell_values[k], counts, centers)
    cell_values.setflags(write=False)
    return HamiltonianField(cell_values, occupancy, u0, dt)


def hamiltonian_field(adjoint: AdjointEnsemble) -> HamiltonianField:
    """Average the Hamiltonian at every grid atom over the feedback cells of
    the control the adjoint was solved under.

    Cells are the control's own information: one cell per step for open-loop
    controls, state or observation cells for feedback.  solve_bsde already
    binned the atom Hamiltonians on these cells, so the field divides its
    sums by the occupancy and fills empty cells; it makes no coefficient
    call and does not walk the paths.
    """
    return _field(adjoint.hamiltonian_sums, adjoint.occupancy, adjoint.base.control_used, adjoint.base.dt)


def pointwise_argmin(field: HamiltonianField) -> RelaxedControl:
    """One-hot relaxed control at the per-(step, cell) Hamiltonian minimizer.

    Ties break to the lowest atom index; the result is an extreme point of
    the relaxed control set with the field's own feedback structure.
    """
    idx = np.argmin(field.cell_values, axis=2)  # (N, C)
    N, C = idx.shape
    w = np.zeros(field.cell_values.shape)
    k_ix, c_ix = np.meshgrid(np.arange(N), np.arange(C), indexing="ij")
    w[k_ix, c_ix, idx] = 1.0
    return replace(field.control, weights=w)


def smp_gap(field: HamiltonianField, u0: RelaxedControl) -> tuple[float, np.ndarray]:
    """Integrated Hamiltonian excess of u0 over the pointwise minimum.

    Per (step, cell): the cell Hamiltonian paired with u0's weights minus the
    cell minimum, weighted by cell occupancy; summed over cells and steps with
    the time step.  Nonnegative by construction; zero exactly at the
    pointwise argmin of the field.  u0 must share the structure of the
    field's control (grid, steps, feedback mode and partition).
    """
    if not u0.same_structure(field.control):
        raise ShapeMismatch("control and field resolve different cells")
    paired = np.einsum("kci,kci->kc", field.cell_values, u0.weights)
    excess = paired - field.cell_values.min(axis=2)
    weight = field.occupancy / np.maximum(field.occupancy.sum(axis=1, keepdims=True), 1)
    per_step = np.einsum("kc,kc->k", excess, weight)
    return float(field.dt * per_step.sum()), per_step


@dataclass
class IterateRecord:
    control: RelaxedControl
    cost: float
    std_error: float
    smp_gap: float
    step_size: float | None = None


@dataclass
class OptimizationResult:
    iterates: list
    status: str  # converged | max_iters | stalled
    final_control: RelaxedControl

    def table(self) -> list:
        return [
            {
                "iteration": i,
                "cost": rec.cost,
                "std_error": rec.std_error,
                "smp_gap": rec.smp_gap,
                "step_size": rec.step_size,
            }
            for i, rec in enumerate(self.iterates)
        ]

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "iterates": self.table(),
                "final_control": json.loads(self.final_control.to_json()),
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class OptimizeParams:
    M: int
    N: int
    max_iters: int = 50
    tol: float = 1e-3
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        # the line search compares cost differences against their standard
        # error, which needs at least two paths
        for name, low in (("M", 2), ("N", 1), ("max_iters", 0), ("seed", 0), ("threads", 1)):
            require_count(getattr(self, name), name, low)
        require_tolerance(self.tol, "tol")


def _decrease_clears(difference: np.ndarray) -> bool:
    """Whether the mean paired cost decrease reaches its standard error, ties (LINE_SEARCH_TIE) included."""
    gain, se_diff = _mean_and_error(difference, "cost difference")
    return gain >= se_diff * (1.0 - LINE_SEARCH_TIE)


def optimize(p: Problem, u_init: RelaxedControl, params: OptimizeParams) -> OptimizationResult:
    """Conditional-gradient descent on the relaxed control set.

    Each iteration simulates under the current control on frozen common
    random numbers, solves the adjoint backward, builds the conditional
    Hamiltonian field, and takes its pointwise argmin as the candidate
    extreme point.  A halving line search over the mixing weight accepts the
    first step whose paired cost decrease reaches one standard error of the
    difference, ties included.  Stops when the Hamiltonian excess certificate
    drops below tol, when no step is accepted (stalled), or at max_iters.
    """
    if u_init.time_steps != params.N:
        raise ShapeMismatch("u_init step count must match params.N")
    noise = sample_noise(p, params.M, params.N, params.seed)
    u = u_init
    iterates: list[IterateRecord] = []
    status = "max_iters"
    paths = simulate(p, u, noise, threads=params.threads)
    costs = pathwise_cost(p, paths)
    for it in range(params.max_iters + 1):
        J, se = _mean_and_error(costs, "cost")
        # the sweep keeps no adjoint process, only the sums the field reads,
        # of the terms that vary over the atoms; the ensemble is dropped with
        # it, so a trial's is the only one held
        sums, occupancy, _, _ = _sweep(paths, BasisSpec(), record=False)
        paths = None
        fld = _field(sums, occupancy, u, noise.dt)
        gap, _ = smp_gap(fld, u)
        rec = IterateRecord(u, J, se, gap)
        iterates.append(rec)
        if gap <= params.tol:
            status = "converged"
            break
        if it == params.max_iters:  # only records the state the last step reached
            break
        candidate = pointwise_argmin(fld)
        accepted = None
        for halving in range(LINE_SEARCH_FLOOR + 1):
            eps = 0.5**halving
            trial = mix(u, candidate, eps)
            paths = simulate(p, trial, noise, threads=params.threads)
            trial_costs = pathwise_cost(p, paths)
            if _decrease_clears(costs - trial_costs):
                accepted = (eps, trial, trial_costs)
                break
            paths = None  # a rejected trial's ensemble is freed before the next one is simulated
        if accepted is None:
            status = "stalled"
            break
        rec.step_size = accepted[0]
        u, costs = accepted[1], accepted[2]
    return OptimizationResult(iterates, status, u)


def _largest_remainder(w: np.ndarray, R: int) -> np.ndarray:
    """Apportion R slots to weights w: floor allocation plus the largest
    remainders, ties to the lowest index."""
    scaled = w * R
    counts = np.floor(scaled).astype(int)
    short = R - counts.sum()
    if short > 0:
        order = np.argsort(-(scaled - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _interleave_slots(counts: np.ndarray, weights: np.ndarray, R: int) -> np.ndarray:
    """Order the apportioned slots so atoms alternate at the sub-slot scale:
    each slot goes to the atom with the largest cumulative deficit that still
    has quota left (ties to the lowest index)."""
    assigned = np.zeros(len(counts), dtype=int)
    order = np.empty(R, dtype=int)
    for s in range(R):
        deficit = weights * (s + 1) - assigned
        deficit[assigned >= counts] = -np.inf
        order[s] = int(np.argmax(deficit))
        assigned[order[s]] += 1
    return order


def realize_regular(u_relaxed: RelaxedControl, refinement: int, seed: int | None = None) -> RegularControl:
    """Chattering realization: subdivide each step into `refinement` sub-slots
    occupied by grid atoms in proportion to the relaxed weights.

    Largest-remainder apportionment keeps the per-step time-average of each
    atom within 1/refinement of its weight; within a step the slots alternate
    by a largest-deficit rule so the switching happens at the sub-slot scale.
    Passing a seed instead shuffles the slot order per (step, cell)
    reproducibly without changing the apportionment.
    """
    refinement = require_count(refinement, "refinement")
    N, C, K = u_relaxed.weights.shape
    d = u_relaxed.grid.d
    with allocating(N * refinement * C * d, f"realization of {N * refinement} slots"):
        values = np.empty((N * refinement, C, d))
    rng = Generator(Philox(key=require_seed(seed))) if seed is not None else None
    for k in range(N):
        for c in range(C):
            w = u_relaxed.weights[k, c]
            counts = _largest_remainder(w, refinement)
            slot_atoms = _interleave_slots(counts, w, refinement)
            if rng is not None:
                rng.shuffle(slot_atoms)
            values[k * refinement : (k + 1) * refinement, c] = u_relaxed.grid.points[slot_atoms]
    return RegularControl(values, u_relaxed.grid.box, u_relaxed.feedback_mode, u_relaxed.feedback)
