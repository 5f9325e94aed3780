"""Hamiltonian evaluation, pointwise minimization, and the descent loop.

The pathwise Hamiltonian pairs the adjoint triple with the coefficients at
each control atom.  Its averages over feedback cells, an (N, C, K) tensor,
are the conditional Hamiltonian whose per-cell minimizer is the
linear-minimization oracle of a conditional-gradient loop over the convex
set of relaxed controls: candidates are one-hot (extreme-point) controls,
iterates move by convex mixing under a halving line search on common random
numbers, and the nonnegative Hamiltonian excess of the current control
certifies optimality when it vanishes.  The backward sweep (`solve_bsde`)
already sums the atom Hamiltonians over the cells, so the field is those
sums divided by the cell occupancy; it evaluates no coefficient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .adjoint import AdjointEnsemble, BasisSpec, solve_bsde
from .control import (
    OBSERVATION_FEEDBACK,
    OPEN_LOOP,
    CellPartition,
    ControlGrid,
    RegularControl,
    RelaxedControl,
    mix,
)
from .errors import DomainError, ShapeMismatch
from .forward import PathEnsemble, pathwise_cost, sample_noise, simulate
from .problem import Problem, atom_hamiltonians, contract_atoms

INFO_FULL = "full"
INFO_PARTIAL = "partial"
LINE_SEARCH_FLOOR = 10  # smallest line-search step is 2**-LINE_SEARCH_FLOOR


def hamiltonian(p: Problem, grid: ControlGrid, t, x, psi, Q, phi_row, w) -> np.ndarray:
    """Relaxed-averaged Hamiltonian: the per-atom Hamiltonians of
    `atom_hamiltonians` averaged against the weight vector w.

    phi_row has shape (..., J, n) and is ignored for problems without jumps.
    Linear in w; batched over a leading path axis.
    """
    return contract_atoms(atom_hamiltonians(p, grid, t, x, psi, Q, phi_row)[0], w)


@dataclass(frozen=True)
class HamiltonianField:
    """Hamiltonian conditioned on the feedback cells of a control.

    cell_values[k, c, i] averages the pathwise Hamiltonian at atom i over the
    occupancy[k, c] paths in feedback cell c at step k (an empty cell takes
    the values of its nearest occupied cell): the adjoint's
    hamiltonian_sums divided by its occupancy, which the field shares.
    Pathwise values are not kept; `hamiltonian` with one-hot weights gives
    them.  Partial info_mode only checks that the control uses observation
    feedback, whose cells full mode conditions on too, so both modes give
    the same cell values.
    """

    cell_values: np.ndarray  # (N, C, K)
    occupancy: np.ndarray  # (N, C)
    info_mode: str
    grid: ControlGrid
    feedback_mode: str
    feedback: CellPartition | None
    dt: float


def _nearest_nonempty(cell_values_k, counts_k, centers):
    """Fill empty cells with the values of the nearest occupied cell."""
    empty = np.flatnonzero(counts_k == 0)
    if empty.size == 0:
        return
    occupied = np.flatnonzero(counts_k > 0)
    if centers is None:  # single cell, cannot be empty
        return
    for c in empty:
        d = np.linalg.norm(centers[occupied] - centers[c], axis=1)
        cell_values_k[c] = cell_values_k[occupied[int(np.argmin(d))]]


def hamiltonian_field(
    p: Problem,
    base: PathEnsemble,
    adjoint: AdjointEnsemble,
    info_mode: str = INFO_FULL,
) -> HamiltonianField:
    """Average the Hamiltonian at every grid atom over the feedback cells of
    the control in force.

    Cells are the control's own information: one cell per step for open-loop
    controls, state or observation cells for feedback; partial mode requires
    observation feedback.  solve_bsde already binned the atom Hamiltonians
    on these cells, so the field divides its sums by the occupancy and fills
    empty cells; it makes no coefficient call (p is not evaluated) and does
    not walk the paths.
    """
    u0 = base.control_used
    if not isinstance(u0, RelaxedControl):
        raise ShapeMismatch("the ensemble must be driven by a relaxed control")
    if info_mode == INFO_PARTIAL and u0.feedback_mode != OBSERVATION_FEEDBACK:
        raise DomainError("partial information needs an observation-feedback control")
    if info_mode not in (INFO_FULL, INFO_PARTIAL):
        raise DomainError(f"unknown info mode {info_mode!r}")
    sums, occupancy = adjoint.hamiltonian_sums, adjoint.occupancy
    if sums.shape != u0.weights.shape:
        raise ShapeMismatch("the adjoint was binned on other cells than the ensemble's control")
    centers = u0.feedback.centers() if u0.feedback is not None else None

    cell_values = np.zeros(sums.shape)
    for k, counts in enumerate(occupancy):
        nonzero = counts > 0
        cell_values[k, nonzero] = sums[k, nonzero] / counts[nonzero, None]
        _nearest_nonempty(cell_values[k], counts, centers)
    cell_values.setflags(write=False)
    return HamiltonianField(cell_values, occupancy, info_mode, u0.grid, u0.feedback_mode, u0.feedback, base.dt)


def pointwise_argmin(field: HamiltonianField) -> RelaxedControl:
    """One-hot relaxed control at the per-(step, cell) Hamiltonian minimizer.

    Ties break to the lowest atom index; the result is an extreme point of
    the relaxed control set with the field's own feedback structure.
    """
    idx = np.argmin(field.cell_values, axis=2)  # (N, C)
    N, C = idx.shape
    w = np.zeros((N, C, field.grid.K))
    k_ix, c_ix = np.meshgrid(np.arange(N), np.arange(C), indexing="ij")
    w[k_ix, c_ix, idx] = 1.0
    return RelaxedControl(field.grid, w, field.feedback_mode, field.feedback)


def smp_gap(field: HamiltonianField, u0: RelaxedControl) -> tuple[float, np.ndarray]:
    """Integrated Hamiltonian excess of u0 over the pointwise minimum.

    Per (step, cell): the cell Hamiltonian paired with u0's weights minus the
    cell minimum, weighted by cell occupancy; summed over cells and steps with
    the time step.  Nonnegative by construction; zero exactly at the
    pointwise argmin of the field.
    """
    N, C, K = field.cell_values.shape
    if not np.array_equal(u0.grid.points, field.grid.points):
        raise ShapeMismatch("control and field use different grids")
    if u0.feedback_mode == field.feedback_mode:
        w = u0.weights
        if w.shape != (N, C, K):
            raise ShapeMismatch("control weights do not match the field cells")
        if u0.feedback is not None and not u0.feedback.matches(field.feedback):
            raise ShapeMismatch("control and field bin their feedback differently")
    elif u0.feedback_mode == OPEN_LOOP:
        w = np.broadcast_to(u0.weights, (N, C, K))
    else:
        raise ShapeMismatch("control feedback structure does not match the field")
    paired = np.einsum("kci,kci->kc", field.cell_values, w)
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
    info_mode: str = INFO_FULL
    basis: BasisSpec = field(default_factory=BasisSpec)
    threads: int = 1

    def __post_init__(self):
        # the line search compares cost differences against their standard
        # error, which needs at least two paths
        if self.M < 2:
            raise DomainError("optimize needs at least 2 paths (M >= 2)")
        if self.max_iters < 0:
            raise DomainError("max_iters must be nonnegative")
        if not np.isfinite(self.tol) or self.tol < 0:
            raise DomainError(f"tol must be finite and nonnegative, got {self.tol!r}")


def optimize(p: Problem, u_init: RelaxedControl, params: OptimizeParams) -> OptimizationResult:
    """Conditional-gradient descent on the relaxed control set.

    Each iteration simulates under the current control on frozen common
    random numbers, solves the adjoint backward, builds the conditional
    Hamiltonian field, and takes its pointwise argmin as the candidate
    extreme point.  A halving line search over the mixing weight accepts the
    first step whose paired cost decrease clears one standard error of the
    difference estimate.  Stops when the Hamiltonian excess certificate
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
        J = float(costs.mean())
        se = float(costs.std(ddof=1) / np.sqrt(len(costs)))
        # the adjoint is dropped as soon as the field is binned from it
        fld = hamiltonian_field(p, paths, solve_bsde(p, paths, u, params.basis), params.info_mode)
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
            trial_paths = simulate(p, trial, noise, threads=params.threads)
            trial_costs = pathwise_cost(p, trial_paths)
            diff = costs - trial_costs
            se_diff = float(diff.std(ddof=1) / np.sqrt(len(diff)))
            if float(diff.mean()) >= se_diff:
                accepted = (eps, trial, trial_paths, trial_costs)
                break
        if accepted is None:
            status = "stalled"
            break
        rec.step_size = accepted[0]
        u, paths, costs = accepted[1], accepted[2], accepted[3]
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
    if refinement < 1:
        raise DomainError("refinement must be at least 1")
    N, C, K = u_relaxed.weights.shape
    d = u_relaxed.grid.d
    values = np.empty((N * refinement, C, d))
    rng = Generator(Philox(key=seed)) if seed is not None else None
    for k in range(N):
        for c in range(C):
            w = u_relaxed.weights[k, c]
            counts = _largest_remainder(w, refinement)
            slot_atoms = _interleave_slots(counts, w, refinement)
            if rng is not None:
                rng.shuffle(slot_atoms)
            values[k * refinement : (k + 1) * refinement, c] = u_relaxed.grid.points[slot_atoms]
    return RegularControl(values, u_relaxed.grid.box, u_relaxed.feedback_mode, u_relaxed.feedback)
