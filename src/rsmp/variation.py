"""Linearized state response to a control perturbation, and the cost derivative.

The variational ensemble integrates, along frozen base paths and their noise,
the linear recursion driven by the signed weight difference of two relaxed
controls.  Pairing it with the cost gradients gives the directional (Gateaux)
derivative of the cost, which serves as the independent check for the adjoint
machinery.  The sweep records both parts of that derivative per step while it
holds the step's states and weights (the running-cost gradient paired with
y_k, and the running cost of the weight difference), so `response_functional`
and `gateaux` read the record and evaluate no coefficient beyond the one
terminal gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import RelaxedControl
from .errors import NonFiniteCoefficient, ShapeMismatch
from .forward import PathEnsemble, guard_step, step_weights
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
    """Pathwise derivative states y with y[:, 0] = 0, and the left-endpoint
    quadrature terms of the cost derivative recorded per step k:
    response_terms[k] = dt * mean(l_x(w0) . y_k) and
    direct_terms[k] = dt * mean(l(w - w0))."""

    y: np.ndarray  # (M, N+1, n)
    u: RelaxedControl
    u0: RelaxedControl
    base: PathEnsemble
    response_terms: np.ndarray  # (N,)
    direct_terms: np.ndarray  # (N,)


def simulate_variational(
    p: Problem, base: PathEnsemble, u: RelaxedControl, u0: RelaxedControl
) -> VariationEnsemble:
    """Integrate the variational recursion for the direction u - u0.

    Reuses the base ensemble's Brownian increments and jump events exactly;
    the recursion is linear in y and in the weight difference, so scaling the
    direction scales the output.  u and u0 must share their structure
    (`RelaxedControl.same_structure`), and the base must be simulated under u0.
    """
    if not u.same_structure(u0):
        raise ShapeMismatch("direction controls must share grid, steps, mode and partition")
    if not u0.equals(base.control_used):
        raise ShapeMismatch("base ensemble was not simulated under u0")
    if u.time_steps != base.n_steps:
        raise ShapeMismatch("controls and base ensemble disagree on step count")
    noise = base.noise
    M, N, dt = base.M, base.n_steps, base.dt
    grid = u0.grid
    lam = p.jump.intensities if p.jump is not None else None
    y = np.zeros((M, N + 1, p.n))
    response_terms = np.empty(N)
    direct_terms = np.empty(N)
    for k in range(N):
        t = k * dt
        x = base.states[:, k]
        yk = y[:, k]
        w0 = step_weights(base, u0, k)
        dw = step_weights(base, u, k) - w0
        lx = averaged_running_cost_x(p, grid, t, x, w0)
        response_terms[k] = dt * float(np.mean(np.einsum("qi,qi->q", lx, yk)))
        direct_terms[k] = dt * float(np.mean(averaged_running_cost(p, grid, t, x, dw)))
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
        guard_step(y_next, k, "variational state")
        y[:, k + 1] = y_next
    for arr in (y, response_terms, direct_terms):
        arr.setflags(write=False)
    return VariationEnsemble(y, u, u0, base, response_terms, direct_terms)


def _left_sum(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added in step order."""
    for term in terms:
        total += float(term)
    return total


def _check_record(base: PathEnsemble, u0: RelaxedControl, var: VariationEnsemble) -> None:
    """ShapeMismatch unless var's record was taken along base around u0."""
    if var.base is not base:
        raise ShapeMismatch("the variational ensemble was integrated along another base ensemble")
    if not var.u0.equals(u0):
        raise ShapeMismatch("the variational ensemble was integrated around another control")


def response_functional(p: Problem, base: PathEnsemble, u0: RelaxedControl, var: VariationEnsemble) -> float:
    """State-response part of the cost derivative: running-cost and terminal
    gradients along the base paths paired with the variational states.

    The running-cost part is the sum of var.response_terms in step order;
    only the terminal gradient phi_x is evaluated here.
    """
    _check_record(base, u0, var)
    N = base.n_steps
    phix = np.asarray(p.phi_x(base.states[:, N]), dtype=float)
    total = _left_sum(0.0, var.response_terms)
    total += float(np.mean(np.einsum("qi,qi->q", phix, var.y[:, N])))
    if not np.isfinite(total):
        raise NonFiniteCoefficient("response functional evaluated to a non-finite value")
    return total


def gateaux(p: Problem, base: PathEnsemble, var: VariationEnsemble, u: RelaxedControl, u0: RelaxedControl) -> float:
    """Directional derivative of the cost at u0 in the direction u - u0.

    Sum of the state-response functional and the direct term (running cost
    averaged against the signed weight difference), both as left-endpoint
    quadratures on the base paths, read from the terms the variational sweep
    recorded for this direction.
    """
    if not var.u.equals(u):
        raise ShapeMismatch("the variational ensemble was integrated for another direction")
    total = _left_sum(response_functional(p, base, u0, var), var.direct_terms)
    if not np.isfinite(total):
        raise NonFiniteCoefficient("gateaux derivative evaluated to a non-finite value")
    return total
