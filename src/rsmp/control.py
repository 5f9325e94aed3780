"""Probability-measure-valued controls on a finite control grid.

A relaxed control assigns, per time step and feedback cell, a probability
vector over a fixed set of control atoms.  Regular (point-valued) controls
embed as one-hot weight vectors; convex mixing and the duality pairing
against test functions operate directly on the weight arrays.

Both kinds share one information structure, checked and resolved here:
the mode is one of FEEDBACK_MODES; open loop has one cell and no partition,
state or observation feedback a CellPartition of the signal, with its cells
on the cell axis, whose dimension must equal the signal's width.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MissingPaths, ShapeMismatch, ValueOffGrid
from .errors import frozen_field, require_count, require_finite, require_positive, require_tolerance

OPEN_LOOP = "open_loop"
STATE_FEEDBACK = "state_feedback"
OBSERVATION_FEEDBACK = "observation_feedback"

FEEDBACK_MODES = (OPEN_LOOP, STATE_FEEDBACK, OBSERVATION_FEEDBACK)

SIMPLEX_TOL = 1e-12
SNAP_TOL = 1e-9


@dataclass(frozen=True)
class ControlGrid:
    """Finite set of K control atoms inside a bounding box of the control set.

    points has shape (K, d); box has shape (d, 2) with box[:, 0] <= box[:, 1].
    """

    points: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        pts = frozen_field(self, "points", 2, "grid points")
        box = frozen_field(self, "box", 2, "grid box")
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ShapeMismatch("grid needs at least one point of shape (K, d)")
        if box.shape != (pts.shape[1], 2):
            raise ShapeMismatch(f"box must have shape ({pts.shape[1]}, 2)")
        if np.any(pts < box[:, 0] - SNAP_TOL) or np.any(pts > box[:, 1] + SNAP_TOL):
            raise DomainError("grid points must lie inside the bounding box")
        for i in range(pts.shape[0]):
            for j in range(i + 1, pts.shape[0]):
                if np.array_equal(pts[i], pts[j]):
                    raise DomainError(f"grid points {i} and {j} coincide")

    @property
    def K(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def snap(self, values: np.ndarray, tol: float = SNAP_TOL) -> np.ndarray:
        """Map each value in (..., d) to the index of the coinciding grid point.

        Raises ValueOffGrid if a value is farther than tol from every point.
        """
        tol = require_tolerance(tol, "snap tolerance")
        v = np.asarray(values, dtype=float).reshape(-1, self.d)
        dist = np.linalg.norm(v[:, None, :] - self.points[None, :, :], axis=2)
        idx = np.argmin(dist, axis=1)
        worst = dist[np.arange(len(v)), idx]
        if np.any(worst > tol):
            bad = int(np.argmax(worst))
            raise ValueOffGrid(f"value {v[bad]} is {worst[bad]:.3e} from the nearest grid point")
        return idx.reshape(np.asarray(values).shape[:-1])


@dataclass(frozen=True)
class CellPartition:
    """Uniform hyper-rectangular binning of a feedback signal.

    bounds has shape (p, 2); cells_per_dim gives the bin count per coordinate.
    Signals outside the bounds clamp into the edge bins.
    """

    bounds: np.ndarray
    cells_per_dim: tuple

    def __post_init__(self):
        b = frozen_field(self, "bounds", 2, "partition bounds")
        cpd = tuple(require_count(c, "cells per dimension") for c in np.atleast_1d(self.cells_per_dim))
        object.__setattr__(self, "cells_per_dim", cpd)
        if b.shape != (len(cpd), 2):
            raise ShapeMismatch("bounds must have shape (p, 2) matching cells_per_dim")
        if np.any(b[:, 1] <= b[:, 0]):
            raise DomainError("each bound must satisfy lo < hi")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells_per_dim))

    def assign(self, signal: np.ndarray) -> np.ndarray:
        """Flat cell index for each row of signal (..., p).

        Raises DomainError on a NaN/Inf signal, which has no cell, and
        ShapeMismatch when the signal's width is not p.
        """
        s = np.asarray(signal, dtype=float)
        if not np.all(np.isfinite(s)):
            raise DomainError("feedback signal must be finite to assign a cell")
        p = len(self.cells_per_dim)
        if s.ndim == 1:
            s = s[:, None] if p == 1 else s[None, :]
        if s.shape[-1:] != (p,):
            raise ShapeMismatch(f"signal of shape {s.shape} does not fit a partition of dimension {p}")
        lo = self.bounds[:, 0]
        width = (self.bounds[:, 1] - lo) / np.asarray(self.cells_per_dim)
        raw = np.floor((s - lo) / width).astype(int)
        raw = np.clip(raw, 0, np.asarray(self.cells_per_dim) - 1)
        flat = np.zeros(s.shape[:-1], dtype=int)
        for dim, c in enumerate(self.cells_per_dim):
            flat = flat * c + raw[..., dim]
        return flat

    def matches(self, other: "CellPartition | None") -> bool:
        """True when other bins signals into the same cells: equal bounds and
        equal cell counts per coordinate."""
        return (
            other is not None
            and self.cells_per_dim == other.cells_per_dim
            and np.array_equal(self.bounds, other.bounds)
        )

    def centers(self) -> np.ndarray:
        """Cell center coordinates, shape (n_cells, p)."""
        axes = []
        for (lo, hi), c in zip(self.bounds, self.cells_per_dim):
            w = (hi - lo) / c
            axes.append(lo + w * (np.arange(c) + 0.5))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def _check_information(mode: str, feedback, cells: int) -> None:
    """A known feedback mode; for open loop no partition and one cell on the
    cell axis, for feedback a CellPartition with `cells` cells."""
    if mode not in FEEDBACK_MODES:
        raise DomainError(f"unknown feedback mode {mode!r}")
    if mode == OPEN_LOOP and (feedback is not None or cells != 1):
        raise ShapeMismatch("open-loop controls take one cell and no cell partition")
    if mode != OPEN_LOOP and not (isinstance(feedback, CellPartition) and cells == feedback.n_cells):
        raise ShapeMismatch("feedback controls need a cell partition matching their cell axis")


def _resolve(table: np.ndarray, feedback: CellPartition | None, signal):
    """Cell of each row of signal (Q, p) and the row of one step's (C, ...)
    table it uses.  Open loop (no partition): without a signal, no cells and
    table[0]; with one, cell 0 and table[0] broadcast to (Q, ...).  Feedback
    needs a signal (MissingPaths otherwise) and gathers the assigned cells'
    rows (`np.take`, the values of table[cells] at a fraction of the cost).
    """
    if feedback is None:
        if signal is None:
            return None, table[0]
        return np.zeros(len(signal), dtype=np.int64), np.broadcast_to(table[0], (len(signal),) + table.shape[1:])
    if signal is None:
        raise MissingPaths("feedback control needs a signal to resolve cells")
    cells = feedback.assign(signal)
    return cells, np.take(table, cells, axis=0)


def _partition_doc(feedback: CellPartition | None) -> dict | None:
    if feedback is None:
        return None
    return {"bounds": feedback.bounds.tolist(), "cells_per_dim": list(feedback.cells_per_dim)}


def _partition_from_doc(doc: dict) -> CellPartition | None:
    fb = doc.get("feedback")
    if fb is None:
        return None
    return CellPartition(np.array(fb["bounds"]), tuple(fb["cells_per_dim"]))


@dataclass(frozen=True)
class RelaxedControl:
    """Adapted measure-valued control: weights[k, c, i] is the mass on grid
    atom i at step k in feedback cell c.

    Open-loop controls use a single cell (C = 1, feedback = None); feedback
    controls resolve c from the state or the observation at step k, so the
    weights at step k depend only on information available at step k.
    """

    grid: ControlGrid
    weights: np.ndarray
    feedback_mode: str = OPEN_LOOP
    feedback: CellPartition | None = None

    def __post_init__(self):
        w = frozen_field(self, "weights", 0)
        if w.ndim == 2:  # an open-loop (N, K) array gains its cell axis
            w = w[:, None, :]
            object.__setattr__(self, "weights", w)
        if w.ndim != 3 or w.shape[2] != self.grid.K:
            raise ShapeMismatch("weights must have shape (N, C, K)")
        require_count(w.shape[0], "control time steps")
        _check_information(self.feedback_mode, self.feedback, w.shape[1])
        report = validate(w)
        if not report.ok:
            v = report.violations[0]
            raise DomainError(f"{v.kind} weights at step {v.step}, cell {v.cell}: off the simplex by {v.magnitude:.3e}")

    @property
    def time_steps(self) -> int:
        return self.weights.shape[0]

    @property
    def n_cells(self) -> int:
        return self.weights.shape[1]

    def weights_at(self, k: int, signal: np.ndarray | None = None) -> np.ndarray:
        """Per-path weight vectors at step k, shape (Q, K).

        signal carries the feedback variable (state or observation) with
        shape (Q, p); an open-loop control reads only its length, and
        without it returns its single (K,) weight vector.
        """
        return _resolve(self.weights[k], self.feedback, signal)[1]

    def same_structure(self, other: "RelaxedControl") -> bool:
        """True when other resolves the same cells on the same atoms: equal
        feedback mode, weight shape, grid points and feedback partition."""
        return (
            self.feedback_mode == other.feedback_mode
            and self.weights.shape == other.weights.shape
            and np.array_equal(self.grid.points, other.grid.points)
            and (self.feedback is None or self.feedback.matches(other.feedback))
        )

    def equals(self, other) -> bool:
        """True when other is a relaxed control with the same structure and
        the same weights, so it resolves the same weights on any paths."""
        return other is self or (
            isinstance(other, RelaxedControl)
            and self.same_structure(other)
            and np.array_equal(self.weights, other.weights)
        )

    def to_json(self) -> str:
        doc = {
            "grid": {"points": self.grid.points.tolist(), "box": self.grid.box.tolist()},
            "mode": self.feedback_mode,
            "weights": self.weights.tolist(),
            "feedback": _partition_doc(self.feedback),
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RelaxedControl":
        def build(doc):
            grid = ControlGrid(np.array(doc["grid"]["points"]), np.array(doc["grid"]["box"]))
            return RelaxedControl(grid, np.array(doc["weights"]), doc["mode"], _partition_from_doc(doc))

        return _from_json(text, build)


@dataclass(frozen=True)
class RegularControl:
    """Point-valued control: values[s, c] is the control vector used in time
    slot s and feedback cell c.

    The S slots partition [0, T] uniformly; S may exceed the simulation step
    count (rapid switching within a step).  The box has shape (d, 2), and the
    feedback mode, partition and cell axis are checked as for RelaxedControl.
    """

    values: np.ndarray
    box: np.ndarray
    feedback_mode: str = OPEN_LOOP
    feedback: CellPartition | None = None

    def __post_init__(self):
        v = frozen_field(self, "values", 0, "control values")
        if v.ndim == 2:  # an open-loop (S, d) array gains its cell axis
            v = v[:, None, :]
            object.__setattr__(self, "values", v)
        box = frozen_field(self, "box", 2, "control box")
        if v.ndim != 3:
            raise ShapeMismatch("values must have shape (S, C, d)")
        require_count(v.shape[0], "time slots")
        if box.shape != (v.shape[2], 2):
            raise ShapeMismatch(f"box must have shape ({v.shape[2]}, 2)")
        _check_information(self.feedback_mode, self.feedback, v.shape[1])
        if np.any(v < box[:, 0] - SNAP_TOL) or np.any(v > box[:, 1] + SNAP_TOL):
            raise DomainError("control values must lie inside the box")

    @property
    def slots(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[2]

    def values_at(self, k: int, n_steps: int, signal: np.ndarray | None = None) -> np.ndarray:
        """Control vectors in force at simulation step k of n_steps, shape (Q, d).

        Simulate on a grid at least as fine as the slot grid to resolve
        rapid switching; on a coarser grid each step samples the slot at its
        left endpoint.
        """
        return _resolve(self.values[(k * self.slots) // n_steps], self.feedback, signal)[1]

    def to_json(self) -> str:
        doc = {
            "values": self.values.tolist(),
            "box": self.box.tolist(),
            "mode": self.feedback_mode,
            "feedback": _partition_doc(self.feedback),
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RegularControl":
        def build(doc):
            return RegularControl(np.array(doc["values"]), np.array(doc["box"]), doc["mode"], _partition_from_doc(doc))

        return _from_json(text, build)


def _from_json(text: str, build):
    """`build(doc)` on the parsed control JSON; text that is not JSON, or a
    document missing a key or holding a value of the wrong type, raises
    DomainError instead of a parser exception."""
    try:
        return build(json.loads(text))
    except KeyError as exc:
        raise DomainError(f"control JSON lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed control JSON: {exc}") from None


def constant_control(grid: ControlGrid, time_steps: int, weights=None) -> RelaxedControl:
    """Open-loop control with the same weight vector at every step.

    Defaults to uniform weights over the grid atoms.
    """
    if weights is None:
        w = np.full(grid.K, 1.0 / grid.K)
    else:
        w = np.asarray(weights, dtype=float)
    return RelaxedControl(grid, np.tile(w, (require_count(time_steps, "time steps"), 1, 1)))


def refine_steps(u: RelaxedControl, factor: int) -> RelaxedControl:
    """The same control on a time grid `factor` times finer: each step's
    weights repeat over the sub-steps (the control is piecewise constant)."""
    w = np.repeat(u.weights, require_count(factor, "refinement factor"), axis=0)
    return RelaxedControl(u.grid, w, u.feedback_mode, u.feedback)


def dirac_embed(u: RegularControl, grid: ControlGrid) -> RelaxedControl:
    """Embed a point-valued control as a one-hot relaxed control.

    Every value of u must coincide with a grid atom (snap tolerance 1e-9).
    The embedding keeps u's time resolution: the result has one step per slot.
    """
    idx = grid.snap(u.values)
    w = np.zeros(u.values.shape[:2] + (grid.K,))
    s_ix, c_ix = np.meshgrid(np.arange(w.shape[0]), np.arange(w.shape[1]), indexing="ij")
    w[s_ix, c_ix, idx] = 1.0
    return RelaxedControl(grid, w, u.feedback_mode, u.feedback)


def mix(a: RelaxedControl, b: RelaxedControl, eps: float) -> RelaxedControl:
    """Convex combination (1 - eps) * a + eps * b, cellwise on the weights."""
    if require_tolerance(eps, "mixing weight") > 1.0:
        raise DomainError(f"mixing weight {eps} outside [0, 1]")
    if not a.same_structure(b):
        raise ShapeMismatch("controls must share grid, step count, feedback mode and partition")
    w = (1.0 - eps) * a.weights + eps * b.weights
    return RelaxedControl(a.grid, w, a.feedback_mode, a.feedback)


def pair(phi, u: RelaxedControl, paths=None, horizon: float | None = None) -> float:
    """Duality pairing of a test function against a relaxed control.

    Left-endpoint quadrature of sum_i phi(t_k, xi_i) * w[k, i] over the time
    grid; with feedback controls the weights are resolved per path from the
    supplied ensemble and the pairing is averaged over paths.

    phi is called as phi(t, xi) with xi a grid atom of shape (d,).
    """
    N = u.time_steps
    if paths is not None:
        T = paths.horizon
        if paths.n_steps != N:
            raise ShapeMismatch("path ensemble and control disagree on step count")
    elif u.feedback_mode != OPEN_LOOP:
        raise MissingPaths("feedback control cannot be paired without paths")
    elif horizon is None:
        raise DomainError("open-loop pairing needs an explicit horizon")
    else:
        T = require_positive(horizon, "horizon")
    dt = T / N
    phi_grid = require_finite(
        np.array([[float(phi(k * dt, u.grid.points[i])) for i in range(u.grid.K)] for k in range(N)]), "test function"
    )
    if u.feedback_mode == OPEN_LOOP:
        return float(dt * np.sum(phi_grid * u.weights[:, 0, :]))
    total = 0.0
    for k in range(N):
        w = u.weights_at(k, paths.feedback_signal(k, u.feedback_mode))
        total += dt * float(np.mean(w @ phi_grid[k]))
    return total


@dataclass(frozen=True)
class WeightViolation:
    step: int
    cell: int
    kind: str
    magnitude: float


@dataclass
class ControlReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(u, tol: float = SIMPLEX_TOL) -> ControlReport:
    """Report every (step, cell) whose weight vector leaves the simplex, in
    step, cell order: a row holding NaN or Inf is "non-finite" (magnitude:
    how many entries), otherwise "negative" (by its most negative entry)
    and "normalization" (by how far its sum is from 1) beyond tol.

    Accepts a RelaxedControl or a bare weight array of shape (N, C, K) or
    (N, K); the constructor raises on the first violation, so raw arrays are
    the usual subject (hand-assembled weights, edited files).
    """
    tol = require_tolerance(tol, "simplex tolerance")
    w = u.weights if isinstance(u, RelaxedControl) else np.asarray(u, dtype=float)
    if w.ndim < 3:
        w = w.reshape(-1, 1, w.shape[-1])
    entry_ok = np.isfinite(w)
    w = np.where(entry_ok, w, 0.0)
    magnitude = np.stack([np.sum(~entry_ok, axis=-1), -w.min(axis=-1), np.abs(w.sum(axis=-1) - 1.0)], axis=-1)
    bad = magnitude > tol
    bad[..., 1:] &= np.all(entry_ok, axis=-1)[..., None]
    kinds = ("non-finite", "negative", "normalization")
    return ControlReport(
        [WeightViolation(int(k), int(c), kinds[j], float(magnitude[k, c, j])) for k, c, j in np.argwhere(bad)]
    )
