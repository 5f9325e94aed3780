"""The overflow ladder: each coefficient of lq1d, jump-lq and nonconvex-mix
scaled alone by 1e150, 1e300, 1e306 and 1e308 (104 cases), run through the
whole pipeline at M = 64, N = 4, seed 3.  Every stage returns finite values
or raises an RsmpError; a numpy warning fails the test (the suite turns
RuntimeWarning into an error).  A coefficient scaled without its gradient is
a wrong gradient, so a run may end "stalled": that is not asserted against."""

import dataclasses

import numpy as np
import pytest

import rsmp
from rsmp import RsmpError
from rsmp.smp import smp_gap

M, N, SEED = 64, 4, 3
SCALES = (1e150, 1e300, 1e306, 1e308)
COEFFICIENTS = ("b", "sigma", "ell", "phi", "b_x", "sigma_x", "ell_x", "phi_x")
JUMP_COEFFICIENTS = ("C", "C_x")
CASES = [
    (name, key, scale)
    for name in ("lq1d", "jump-lq", "nonconvex-mix")
    for key in COEFFICIENTS + (JUMP_COEFFICIENTS if name == "jump-lq" else ())
    for scale in SCALES
]


def scaled(f, scale):
    """f times scale; a product beyond the float range is Inf, as a user's
    coefficient could return it."""

    def g(*args):
        with np.errstate(over="ignore"):
            return scale * np.asarray(f(*args), dtype=float)

    return g


def scaled_problem(name, key, scale):
    p = rsmp.make_benchmark(name)
    if key in JUMP_COEFFICIENTS:
        return dataclasses.replace(p, jump=dataclasses.replace(p.jump, **{key: scaled(getattr(p.jump, key), scale)}))
    return dataclasses.replace(p, **{key: scaled(getattr(p, key), scale)})


def finite(*values):
    for value in values:
        assert np.all(np.isfinite(value))


def pipeline(p, u0):
    """simulate, cost, solve_bsde, the field and its gap, the variational
    sweep toward the field's argmin, its gateaux derivative and the duality
    gap, each checked finite; the first RsmpError ends the walk."""
    paths = rsmp.simulate(p, u0, rsmp.sample_noise(p, M, N, SEED))
    finite(paths.states, paths.running_cost)
    finite(*rsmp.cost(p, paths))
    adj = rsmp.solve_bsde(p, paths, u0)
    finite(adj.psi, adj.psi_cont, adj.Q, adj.phi, adj.hamiltonian_sums, adj.pairing_sums)
    field = rsmp.hamiltonian_field(adj)
    finite(field.cell_values, *smp_gap(field, u0))
    u = rsmp.pointwise_argmin(field)
    var = rsmp.simulate_variational(p, paths, u, u0)
    finite(var.y, var.response_terms, var.direct_terms)
    finite(rsmp.gateaux(p, paths, var, u, u0), rsmp.duality_gap(adj, var))


@pytest.mark.parametrize("name, key, scale", CASES, ids=[f"{n}-{k}-{s:.0e}" for n, k, s in CASES])
def test_each_stage_is_finite_or_raises_a_typed_error(name, key, scale):
    p = scaled_problem(name, key, scale)
    grid = rsmp.benchmark_grid(name, 5)
    part = rsmp.benchmark_partition(name, rsmp.STATE_FEEDBACK, cells=4)
    u0 = rsmp.RelaxedControl(grid, np.full((N, part.n_cells, grid.K), 1.0 / grid.K), rsmp.STATE_FEEDBACK, part)
    try:
        pipeline(p, u0)
    except RsmpError:
        pass
    try:
        result = rsmp.optimize(p, u0, rsmp.OptimizeParams(M=M, N=N, max_iters=3, tol=0.0, seed=SEED))
    except RsmpError:
        return
    assert result.status in ("converged", "max_iters", "stalled")
    for rec in result.iterates:
        finite(rec.cost, rec.std_error, rec.smp_gap, rec.control.weights)
