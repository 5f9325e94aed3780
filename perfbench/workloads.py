"""The benchmark workloads: inputs made from a seed, a timed solve, oracle checks.

`setup(rsmp, seed)` builds the problem, grid, partition, controls and
directions and computes the oracle; it is timed as `setup_s`.  `solve(state)`
is the timed body: it calls only rsmp's public functions, looked up on the
module at call time so that a traced run sees its wrappers.  `check(state,
out)` returns one (name, passed) pair per oracle check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# One caller in one process; the rsmp worker cap is passed explicitly.
THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    setup: Callable
    solve: Callable
    check: Callable


def _random_interior(rsmp, grid, N, rng):
    """Open-loop control with every weight at least 0.1 before normalizing,
    as in acceptance criterion 1."""
    w = rng.uniform(0.1, 1.0, (N, 1, grid.K))
    w /= w.sum(axis=-1, keepdims=True)
    return rsmp.RelaxedControl(grid, w)


# optimize-lq1d: the acceptance criterion-3 configuration, run to convergence.
LQ = {"M": 20_000, "N": 64, "K": 9, "cells": 16, "directions": 0}
LQ_RICCATI_STEPS = 2560
LQ_COST_TOL = 0.015


def _lq_setup(rsmp, seed):
    riccati = rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), LQ_RICCATI_STEPS)
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", LQ["K"])
    part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=LQ["cells"])
    N, K = LQ["N"], LQ["K"]
    u0 = rsmp.RelaxedControl(grid, np.full((N, part.n_cells, K), 1.0 / K), rsmp.STATE_FEEDBACK, part)
    params = rsmp.OptimizeParams(
        M=LQ["M"], N=N, max_iters=40, tol=1e-3 * riccati.optimal_cost, seed=seed, threads=THREADS
    )
    return {"rsmp": rsmp, "p": p, "u0": u0, "params": params, "oracle": riccati.optimal_cost}


def _lq_solve(s):
    return s["rsmp"].optimize(s["p"], s["u0"], s["params"])


def _lq_check(s, result):
    rel = abs(result.iterates[-1].cost - s["oracle"]) / s["oracle"]
    return [("status converged", result.status == "converged"), ("cost within 1.5% of Riccati", rel <= LQ_COST_TOL)]


# sensitivity-jump-lq: one base path and adjoint, then per direction the
# variational derivative, the adjoint pairing and a central difference.
SENS = {"M": 20_000, "N": 64, "K": 9, "cells": 1, "directions": 3}
SENS_FD_STEP = 1e-3
SENS_TOL = 5e-3
# The adjoint pairing is a regression estimate whose error is absolute: over
# 72 random directions (24 seeds) at this M the gap never exceeded 1.6e-5,
# while the response L of a random direction can cancel down to 1e-4.  A
# purely relative test fails correct code on about half the seeds, so the gap
# may also sit under this floor, which is still far below the O(|L|) gap a
# broken adjoint leaves.
SENS_DUALITY_FLOOR = 5e-5


def _sens_setup(rsmp, seed):
    p = rsmp.make_benchmark("jump-lq")
    grid = rsmp.benchmark_grid("jump-lq", SENS["K"])
    rng = np.random.default_rng(seed)
    u0 = _random_interior(rsmp, grid, SENS["N"], rng)
    directions = [_random_interior(rsmp, grid, SENS["N"], rng) for _ in range(SENS["directions"])]
    return {"rsmp": rsmp, "p": p, "u0": u0, "directions": directions, "seed": seed}


def _sens_solve(s):
    rsmp, p, u0 = s["rsmp"], s["p"], s["u0"]
    noise = rsmp.sample_noise(p, SENS["M"], SENS["N"], s["seed"])
    base = rsmp.simulate(p, u0, noise, THREADS)
    adjoint = rsmp.solve_bsde(p, base, u0)
    out = []
    for u in s["directions"]:
        var = rsmp.simulate_variational(p, base, u, u0)
        derivative = rsmp.gateaux(p, base, var, u, u0)
        response = rsmp.response_functional(p, base, u0, var)
        pairing = rsmp.adjoint_pairing(p, base, u0, u, adjoint)
        step = SENS_FD_STEP * (u.weights - u0.weights)
        up, dn = (
            rsmp.pathwise_cost(p, rsmp.simulate(p, rsmp.RelaxedControl(u0.grid, w), noise, THREADS)).mean()
            for w in (u0.weights + step, u0.weights - step)
        )
        fd = (up - dn) / (2 * SENS_FD_STEP)
        out.append((derivative, fd, response, pairing))
    return out


def _sens_check(s, out):
    checks = []
    for i, (derivative, fd, response, pairing) in enumerate(out):
        checks.append((f"direction {i}: gateaux vs FD", abs(derivative - fd) / (abs(fd) + 1e-8) <= SENS_TOL))
        gap = abs(response - pairing)
        checks.append((
            f"direction {i}: duality gap {gap:.2e} at |L| {abs(response):.2e}",
            gap <= SENS_TOL * abs(response) + SENS_DUALITY_FLOOR,
        ))
    return checks


# chatter-nonconvex: regular realizations of the two-atom relaxed optimum.
CHAT = {"M": 100_000, "N": 128, "K": 2, "cells": 1, "directions": 0}
CHAT_COARSE_N = 8
CHAT_REFINEMENTS = (2, 4, 8, 16)
CHAT_EXCESS_TOL = 0.05


def _chat_setup(rsmp, seed):
    p = rsmp.make_benchmark("nonconvex-mix")
    grid = rsmp.benchmark_grid("nonconvex-mix")
    _, profile = rsmp.nonconvex_weight_oracle(N=CHAT_COARSE_N)
    u_star = rsmp.RelaxedControl(grid, np.stack([1.0 - profile, profile], axis=-1)[:, None, :])
    return {"rsmp": rsmp, "p": p, "u_star": u_star, "seed": seed}


def _chat_solve(s):
    rsmp, p, u_star = s["rsmp"], s["p"], s["u_star"]
    noise = rsmp.sample_noise(p, CHAT["M"], CHAT["N"], s["seed"])
    fine = rsmp.refine_steps(u_star, CHAT["N"] // CHAT_COARSE_N)
    relaxed = float(rsmp.pathwise_cost(p, rsmp.simulate(p, fine, noise, THREADS)).mean())
    excess = []
    for R in CHAT_REFINEMENTS:
        regular = rsmp.realize_regular(u_star, R)
        excess.append(float(rsmp.pathwise_cost(p, rsmp.simulate(p, regular, noise, THREADS)).mean()) - relaxed)
    return relaxed, excess


def _chat_check(s, out):
    relaxed, excess = out
    return [
        ("excess non-increasing in R", all(a >= b - 1e-12 for a, b in zip(excess, excess[1:]))),
        ("R=16 excess within 5% of |J|", excess[-1] <= CHAT_EXCESS_TOL * abs(relaxed)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("optimize-lq1d", LQ, _lq_setup, _lq_solve, _lq_check),
        Workload("sensitivity-jump-lq", SENS, _sens_setup, _sens_solve, _sens_check),
        Workload("chatter-nonconvex", CHAT, _chat_setup, _chat_solve, _chat_check),
    )
}
