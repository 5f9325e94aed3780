"""Linearized state response to a control perturbation, and the cost derivative.

The variational ensemble integrates, along frozen base paths and their noise,
the linear recursion driven by the signed weight difference of two relaxed
controls.  Pairing it with the cost gradients gives the directional (Gateaux)
derivative of the cost, which serves as the independent check for the adjoint
machinery.  The sweep records both parts of that derivative per step while it
holds the step's states and weights (the running-cost gradient paired with
y_k, and the running cost of the weight difference), so `response_functional`
and `gateaux` read the record and evaluate no coefficient beyond the one
terminal gradient.  The variational states are stored step-major, like the
base states and noise, so each step reads and writes contiguous [:, k] slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import RelaxedControl
from .errors import ShapeMismatch, require_finite
from .forward import PathEnsemble, _step_major, _step_weights, euler_step
from .problem import Problem, averaged_coefficients, averaged_linearization, terminal_gradient


@dataclass(frozen=True)
class VariationEnsemble:
    """Pathwise derivative states y with y[:, 0] = 0 for u - base.control_used,
    and the left-endpoint quadrature terms of the cost derivative per step k:
    response_terms[k] = dt * mean(l_x(w0) . y_k) and
    direct_terms[k] = dt * mean(l(w - w0))."""

    y: np.ndarray  # (M, N+1, n), step-major
    u: RelaxedControl
    base: PathEnsemble
    response_terms: np.ndarray  # (N,)
    direct_terms: np.ndarray  # (N,)


def simulate_variational(
    p: Problem, base: PathEnsemble, u: RelaxedControl, u0: RelaxedControl
) -> VariationEnsemble:
    """Integrate the variational recursion for the direction u - u0.

    Reuses the base ensemble's Brownian increments and jump events exactly;
    the recursion is linear in y and in the weight difference, so scaling the
    direction scales the output.  The base must be simulated under p and u0
    (`PathEnsemble.require`) and u share u0's structure, else ShapeMismatch;
    each step resolves u0's cells once and reads both controls' weights there.
    """
    if not u.same_structure(u0):
        raise ShapeMismatch("direction controls must share grid, steps, mode and partition")
    base.require(p, u0)
    M, N, dt = base.M, base.n_steps, base.dt
    grid = u0.grid
    y = _step_major(M, N + 1, (p.n,))
    y[:, 0] = 0.0
    response_terms = np.empty(N)
    direct_terms = np.empty(N)
    for k in range(N):
        t = k * dt
        x = base.states[:, k]
        yk = y[:, k]
        _, rows, dw = _step_weights(base, k, u)
        bx, sx, lx, cxs = averaged_linearization(p, grid, t, x, rows)
        b_dw, s_dw, l_dw, c_dws = averaged_coefficients(p, grid, t, x, dw, mass=0.0)
        response_terms[k] = dt * float(np.mean(np.einsum("qi,qi->q", lx, yk)))
        direct_terms[k] = dt * float(np.mean(l_dw))
        drift = np.einsum("qij,qj->qi", bx, yk) + b_dw
        diff = np.einsum("qabl,ql->qab", sx, yk) + s_dw
        jumps = [np.einsum("qij,qj->qi", cx, yk) + c_dw for cx, c_dw in zip(cxs, c_dws)]
        euler_step(p, base.noise, k, yk, drift, diff, jumps, y[:, k + 1], "variational state")
    for arr in (y, response_terms, direct_terms):
        arr.setflags(write=False)
    return VariationEnsemble(y, u, base, response_terms, direct_terms)


def _left_sum(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added in step order."""
    for term in terms:
        total += float(term)
    return total


def response_functional(p: Problem, base: PathEnsemble, u0: RelaxedControl, var: VariationEnsemble) -> float:
    """State-response part of the cost derivative: running-cost and terminal
    gradients along the base paths paired with the variational states.

    The running-cost part is the sum of var.response_terms in step order;
    only the terminal gradient phi_x is evaluated here.  ShapeMismatch unless
    base is var's own, simulated under p and u0 (`PathEnsemble.require`).
    """
    base.require(p, u0)
    if var.base is not base:
        raise ShapeMismatch("the variational ensemble was integrated along another base ensemble")
    N = base.n_steps
    phix = terminal_gradient(p, base.states[:, N])
    total = _left_sum(0.0, var.response_terms)
    total += float(np.mean(np.einsum("qi,qi->q", phix, var.y[:, N])))
    return require_finite(total, "response functional")


def gateaux(p: Problem, base: PathEnsemble, var: VariationEnsemble, u: RelaxedControl, u0: RelaxedControl) -> float:
    """Directional derivative of the cost at u0 in the direction u - u0.

    Sum of the state-response functional and the direct term (running cost
    averaged against the signed weight difference), both as left-endpoint
    quadratures on the base paths, read from the terms the variational sweep
    recorded for this direction u, with `response_functional`'s checks.
    """
    if not var.u.equals(u):
        raise ShapeMismatch("the variational ensemble was integrated for another direction")
    return require_finite(_left_sum(response_functional(p, base, u0, var), var.direct_terms), "gateaux derivative")
