"""Linearized state response to a control perturbation, and the cost derivative.

The variational ensemble integrates, along frozen base paths and their noise,
the linear recursion driven by the signed weight difference of two relaxed
controls.  Pairing it with the cost gradients gives the directional (Gateaux)
derivative of the cost, which serves as the independent check for the adjoint
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import RelaxedControl
from .errors import BlowUp, NonFiniteCoefficient, ShapeMismatch
from .forward import BLOWUP_GUARD, PathEnsemble, step_weights
from .problem import (
    Problem,
    averaged_diffusion,
    averaged_diffusion_x,
    averaged_drift,
    averaged_drift_x,
    averaged_jump,
    averaged_jump_x,
    averaged_running_cost,
    averaged_running_cost_x,
)


@dataclass(frozen=True)
class VariationEnsemble:
    """Pathwise derivative states y with y[:, 0] = 0."""

    y: np.ndarray  # (M, N+1, n)
    u: RelaxedControl
    u0: RelaxedControl
    base: PathEnsemble


def simulate_variational(
    p: Problem, base: PathEnsemble, u: RelaxedControl, u0: RelaxedControl
) -> VariationEnsemble:
    """Integrate the variational recursion for the direction u - u0.

    Reuses the base ensemble's Brownian increments and jump events exactly;
    the recursion is linear in y and in the weight difference, so scaling the
    direction scales the output.
    """
    if not u.same_structure(u0):
        raise ShapeMismatch("direction controls must share grid, steps, and mode")
    used = base.control_used
    if not isinstance(used, RelaxedControl) or not (used is u0 or np.array_equal(used.weights, u0.weights)):
        raise ShapeMismatch("base ensemble was not simulated under u0")
    if u.time_steps != base.n_steps:
        raise ShapeMismatch("controls and base ensemble disagree on step count")
    noise = base.noise
    M, N, dt = base.M, base.n_steps, base.dt
    grid = u0.grid
    lam = p.jump.intensities if p.jump is not None else None
    y = np.zeros((M, N + 1, p.n))
    for k in range(N):
        t = k * dt
        x = base.states[:, k]
        yk = y[:, k]
        w0 = step_weights(base, u0, k)
        dw = step_weights(base, u, k) - w0
        bx = averaged_drift_x(p, grid, t, x, w0)
        sx = averaged_diffusion_x(p, grid, t, x, w0)
        drift = np.einsum("qij,qj->qi", bx, yk) + averaged_drift(p, grid, t, x, dw)
        diff = np.einsum("qabl,ql->qab", sx, yk) + averaged_diffusion(p, grid, t, x, dw)
        y_next = yk + drift * dt + np.einsum("qnm,qm->qn", diff, noise.dW[:, k])
        if p.jump is not None:
            for j in range(p.jump.J):
                v = p.jump.marks[j]
                cx = averaged_jump_x(p, grid, t, x, v, w0)
                term = np.einsum("qij,qj->qi", cx, yk) + averaged_jump(p, grid, t, x, v, dw)
                factor = noise.jump_counts[:, k, j] - lam[j] * dt
                y_next = y_next + factor[:, None] * term
        norms = np.abs(y_next).max(axis=1)
        if np.any(norms > BLOWUP_GUARD):
            raise BlowUp(k, float(norms.max()))
        if not np.all(np.isfinite(y_next)):
            raise NonFiniteCoefficient(f"non-finite variational state at step {k}")
        y[:, k + 1] = y_next
    y.setflags(write=False)
    return VariationEnsemble(y, u, u0, base)


def response_functional(p: Problem, base: PathEnsemble, u0: RelaxedControl, var: VariationEnsemble) -> float:
    """State-response part of the cost derivative: running-cost and terminal
    gradients along the base paths paired with the variational states."""
    N, dt = base.n_steps, base.dt
    grid = u0.grid
    total = 0.0
    for k in range(N):
        x = base.states[:, k]
        w0 = step_weights(base, u0, k)
        lx = averaged_running_cost_x(p, grid, k * dt, x, w0)
        total += dt * float(np.mean(np.einsum("qi,qi->q", lx, var.y[:, k])))
    phix = np.asarray(p.phi_x(base.states[:, N]), dtype=float)
    total += float(np.mean(np.einsum("qi,qi->q", phix, var.y[:, N])))
    if not np.isfinite(total):
        raise NonFiniteCoefficient("response functional evaluated to a non-finite value")
    return total


def gateaux(p: Problem, base: PathEnsemble, var: VariationEnsemble, u: RelaxedControl, u0: RelaxedControl) -> float:
    """Directional derivative of the cost at u0 in the direction u - u0.

    Sum of the state-response functional and the direct term (running cost
    averaged against the signed weight difference), both as left-endpoint
    quadratures on the base paths.
    """
    N, dt = base.n_steps, base.dt
    grid = u0.grid
    total = response_functional(p, base, u0, var)
    for k in range(N):
        x = base.states[:, k]
        dw = step_weights(base, u, k) - step_weights(base, u0, k)
        total += dt * float(np.mean(averaged_running_cost(p, grid, k * dt, x, dw)))
    if not np.isfinite(total):
        raise NonFiniteCoefficient("gateaux derivative evaluated to a non-finite value")
    return total
