"""Every record takes its numeric inputs one way: a read-only float copy that
must be finite, and integer counts with a lower bound.  Each row of the
tables below is an input the constructors or functions refuse with a typed
error; NaN or Inf inputs say "must be finite"."""

import contextlib
import dataclasses
import functools
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

import rsmp
from rsmp import (
    BasisSpec,
    CellPartition,
    ControlGrid,
    DomainError,
    GaussianInitial,
    JumpSpec,
    LQSpec,
    NonFiniteCoefficient,
    NonPSD,
    OptimizeParams,
    RegularControl,
    RelaxedControl,
    ShapeMismatch,
    ValueOffGrid,
)
from rsmp.cli import EXIT_CONFIG, RunConfig, main

NAN = np.nan
LQ1D = dict(A=[[-0.2]], B=[[0.8]], Sigma0=[[0.2]], R_x=[[0.25]], R_u=[[1.0]], G=[[0.3]], T=1.0, x0=[1.0])


def lq1d():
    return rsmp.make_benchmark("lq1d")


def problem(**changes):
    return dataclasses.replace(lq1d(), **changes)


def open_control(N=4):
    return rsmp.constant_control(rsmp.benchmark_grid("lq1d", 3), N)


def jump_c(t, x, v, xi):
    return np.broadcast_to(v, np.shape(x))


def pair_fn(t, xi):
    return t + xi[0]


def filled(tail, value=0.0):
    """A coefficient (t, x, ..., xi) or terminal cost (x) that is value at
    states x (..., n), with the per-path trailing shape tail."""
    return lambda *args: np.full(np.shape(args[0] if len(args) == 1 else args[1])[:-1] + tail, value)


def jump_lq_c(C):
    """jump-lq's jump spec with the jump coefficient C."""
    return dataclasses.replace(rsmp.make_benchmark("jump-lq").jump, C=C)


def with_part(name, key, part, tail):
    """A relaxed simulate (N = 4, M = 4) on the benchmark whose `Separable`
    key has the given part returning zeros of the per-path trailing shape
    tail, under the uniform control on 3 atoms."""
    p = rsmp.make_benchmark(name)
    f = p.jump.C if key == "C" else getattr(p, key)

    def wrong(*args):  # a state part's state follows t, a control part's control comes last
        return np.zeros(np.shape(args[-1] if part == "control" else args[1])[:-1] + tail)

    bad = rsmp.Separable(**{"state": f.state, "control": f.control, part: wrong})
    p = dataclasses.replace(p, **({"jump": dataclasses.replace(p.jump, C=bad)} if key == "C" else {key: bad}))
    return rsmp.simulate(p, rsmp.constant_control(rsmp.benchmark_grid(name, 3), 4), rsmp.sample_noise(p, 4, 4, 1))


def lq_hamiltonian(x=(4, 1), psi=(4, 1), Q=(4, 1, 1), w=5, name="lq1d", phi_row=None, weights=None, **changes):
    """rsmp.hamiltonian at t = 0 on a benchmark's 5-atom grid with arrays of ones
    of the given shapes (n = m = 1, M = 4 on lq1d) and uniform weights of
    shape w, or the given weights, on the benchmark with the given fields
    replaced."""
    p, grid = dataclasses.replace(rsmp.make_benchmark(name), **changes), rsmp.benchmark_grid(name, 5)
    phi_row = None if phi_row is None else np.ones(phi_row)
    w = np.full(w, 1.0 / 5) if weights is None else np.array(weights, dtype=float)
    return rsmp.hamiltonian(p, grid, 0.0, np.ones(x), np.ones(psi), np.ones(Q), phi_row, w)


@functools.lru_cache(maxsize=None)
def along(seed=1):
    """Records on lq1d along one base: the uniform control u0, the direction
    e_0, the base (M=500, N=8), its adjoint and the variational ensemble."""
    p = lq1d()
    grid = rsmp.benchmark_grid("lq1d")
    u0, u = rsmp.constant_control(grid, 8), rsmp.constant_control(grid, 8, np.eye(grid.K)[0])
    base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 500, 8, seed))
    return SimpleNamespace(u0=u0, u=u, base=base, adjoint=rsmp.solve_bsde(p, base, u0),
                           var=rsmp.simulate_variational(p, base, u, u0))


@functools.lru_cache(maxsize=None)
def terminal(key, tail):
    """(problem, base, u0, variational ensemble) on lq1d as in `along`, with
    phi or phi_x (key) returning zeros of the per-path trailing shape tail."""
    p = problem(**{key: filled(tail)})
    grid = rsmp.benchmark_grid("lq1d")
    u0, u = rsmp.constant_control(grid, 8), rsmp.constant_control(grid, 8, np.eye(grid.K)[0])
    base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 500, 8, 1))
    return p, base, u0, rsmp.simulate_variational(p, base, u, u0)


@functools.lru_cache(maxsize=None)
def riccati():
    """lq1d's Riccati solution on 20 ODE steps."""
    return rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 20)


def five_ell():
    """A copy of the base's problem whose running cost is 5 times lq1d's."""
    p = along().base.problem
    return dataclasses.replace(p, ell=lambda t, x, xi: 5 * p.ell(t, x, xi))


# (id, call, error, substring of the message)
REFUSED = [
    ("fractional cell count", lambda: CellPartition([[0.0, 1.0]], (2.7,)), DomainError, "integer"),
    ("integral float cell count", lambda: CellPartition([[0.0, 1.0]], (2.0,)), DomainError, "integer"),
    ("NaN cell count", lambda: CellPartition([[0.0, 1.0]], (NAN,)), DomainError, "must be finite"),
    ("zero cell count", lambda: CellPartition([[0.0, 1.0]], (0,)), DomainError, "at least 1"),
    ("fractional refinement factor", lambda: rsmp.refine_steps(open_control(), 2.5), DomainError, "integer"),
    ("NaN initial mean", lambda: GaussianInitial([NAN], [[1.0]]), DomainError, "must be finite"),
    ("Inf initial covariance", lambda: GaussianInitial([0.0], [[np.inf]]), DomainError, "must be finite"),
    ("asymmetric initial covariance", lambda: GaussianInitial([0.0, 0.0], [[1.0, 2.0], [0.0, 1.0]]), NonPSD,
     "^initial covariance is not symmetric$"),
    ("indefinite initial covariance", lambda: GaussianInitial([0.0], [[-1.0]]), NonPSD,
     "^initial covariance must be positive definite$"),
    ("NaN jump mark", lambda: JumpSpec([[NAN]], [1.0], jump_c), DomainError, "must be finite"),
    ("NaN jump intensity", lambda: JumpSpec([[1.0]], [NAN], jump_c), DomainError, "must be finite"),
    ("NaN LQ matrix", lambda: LQSpec(**{**LQ1D, "A": [[NAN]]}), DomainError, "must be finite"),
    ("NaN LQ horizon", lambda: LQSpec(**{**LQ1D, "T": NAN}), DomainError, "must be finite"),
    ("NaN horizon", lambda: problem(T=NAN), DomainError, "must be finite"),
    ("Inf horizon", lambda: problem(T=np.inf), DomainError, "must be finite"),
    ("NaN x0", lambda: problem(x0=np.array([NAN])), DomainError, "must be finite"),
    ("NaN control box", lambda: problem(control_box=[[NAN, 1.0]]), DomainError, "must be finite"),
    ("fractional state dimension", lambda: problem(n=1.5), DomainError, "integer"),
    ("boolean control dimension", lambda: problem(d=True), DomainError, "integer"),
    ("x0 of another length", lambda: problem(x0=np.array([1.0, 2.0])), ShapeMismatch, "x0"),
    ("Gaussian x0 of another length", lambda: problem(x0=GaussianInitial([0.0, 0.0], np.eye(2))), ShapeMismatch,
     "x0"),
    ("coarsen by 0", lambda: rsmp.sample_noise(lq1d(), 4, 4, 1).coarsen(0), DomainError, "at least 1"),
    ("fractional path count", lambda: rsmp.sample_noise(lq1d(), 10.5, 4, 1), DomainError, "integer"),
    ("fractional step count", lambda: rsmp.sample_noise(lq1d(), 10, 4.0, 1), DomainError, "integer"),
    ("fractional realization refinement", lambda: rsmp.realize_regular(open_control(), 2.5), DomainError,
     "integer"),
    ("negative basis degree", lambda: BasisSpec(-1), DomainError, "at least 0"),
    ("basis features of 1-D states", lambda: BasisSpec(2).features(np.array([1.0, 2.0, 3.0])), ShapeMismatch,
     r"states must be \(M, n\), got shape \(3,\)"),
    ("basis features too large to allocate", lambda: BasisSpec(10**18).features(np.zeros((2, 1))), DomainError,
     "^design matrix of 1000000000000000001 monomials on 2 paths, too large to allocate$"),
    ("hamiltonian Q with two rows", lambda: lq_hamiltonian(Q=(4, 2, 1)), ShapeMismatch,
     r"Q has shape \(4, 2, 1\), expected \(4, 1, 1\)"),
    ("hamiltonian Q with three columns", lambda: lq_hamiltonian(Q=(4, 1, 3)), ShapeMismatch, "Q has shape"),
    ("hamiltonian Q without a column axis", lambda: lq_hamiltonian(Q=(4, 1)), ShapeMismatch, "Q has shape"),
    ("hamiltonian weights of another length", lambda: lq_hamiltonian(w=6), ShapeMismatch,
     r"w has shape \(6,\), expected \(5,\) or \(4, 5\)"),
    ("hamiltonian psi of another path count", lambda: lq_hamiltonian(psi=(3, 1)), ShapeMismatch, "psi has shape"),
    ("hamiltonian states of another dimension", lambda: lq_hamiltonian(x=(4, 2)), ShapeMismatch, "x has shape"),
    ("hamiltonian jump row of another mark count", lambda: lq_hamiltonian(name="jump-lq", phi_row=(4, 1, 1)),
     ShapeMismatch, r"phi_row has shape \(4, 1, 1\), expected \(4, 2, 1\)"),
    ("hamiltonian drift of two components", lambda: lq_hamiltonian(b=filled((2,))), ShapeMismatch,
     r"^drift has shape \(4, 2\), expected \(4, 1\)$"),
    ("hamiltonian diffusion of two columns", lambda: lq_hamiltonian(sigma=filled((1, 2))), ShapeMismatch,
     r"^diffusion has shape \(4, 1, 2\), expected \(4, 1, 1\)$"),
    ("hamiltonian running cost with a trailing axis", lambda: lq_hamiltonian(ell=filled((3,))), ShapeMismatch,
     r"^running cost has shape \(4, 3\), expected \(4,\)$"),
    ("hamiltonian jump coefficient of two components",
     lambda: lq_hamiltonian(name="jump-lq", phi_row=(4, 2, 1), jump=jump_lq_c(filled((2,)))), ShapeMismatch,
     r"^jump coefficient has shape \(4, 2\), expected \(4, 1\)$"),
    ("hamiltonian with a negative weight", lambda: lq_hamiltonian(weights=[-0.2, 0.4, 0.4, 0.2, 0.2]),
     DomainError, r"^w is not a measure: negative weights in row 0, off the simplex by 2\.000e-01$"),
    ("hamiltonian with a row of mass 0.5", lambda: lq_hamiltonian(weights=[[0.2] * 5, [0.1] * 5, [0.2] * 5, [0.2] * 5]),
     DomainError, r"^w is not a measure: normalization weights in row 1, off the simplex by 5\.000e-01$"),
    ("hamiltonian with a NaN weight", lambda: lq_hamiltonian(weights=[NAN, 0.25, 0.25, 0.25, 0.25]), DomainError,
     r"^w is not a measure: non-finite weights in row 0, off the simplex by 1\.000e\+00$"),
    ("hamiltonian of another shape before the measure", lambda: lq_hamiltonian(Q=(4, 2, 1), weights=[NAN] * 5),
     ShapeMismatch, "Q has shape"),
    ("hamiltonian whose finite terms overflow", lambda: lq_hamiltonian(b=filled((1,), 1e308), ell=filled((), 1e308)),
     NonFiniteCoefficient, "^Hamiltonian produced NaN/Inf$"),
    ("pathwise cost of an (M, 1) terminal cost", lambda: rsmp.pathwise_cost(*terminal("phi", (1,))[:2]),
     ShapeMismatch, r"^terminal cost has shape \(500, 1\), expected \(500,\)$"),
    ("cost of an (M, 1) terminal cost", lambda: rsmp.cost(*terminal("phi", (1,))[:2]), ShapeMismatch,
     r"^terminal cost has shape \(500, 1\), expected \(500,\)$"),
    ("adjoint of an (M,) terminal gradient", lambda: rsmp.solve_bsde(*terminal("phi_x", ())[:3]), ShapeMismatch,
     r"^terminal cost gradient has shape \(500,\), expected \(500, 1\)$"),
    ("adjoint of an (M, n, 1) terminal gradient", lambda: rsmp.solve_bsde(*terminal("phi_x", (1, 1))[:3]),
     ShapeMismatch, r"^terminal cost gradient has shape \(500, 1, 1\), expected \(500, 1\)$"),
    ("response functional of an (M,) terminal gradient", lambda: rsmp.response_functional(*terminal("phi_x", ())),
     ShapeMismatch, r"^terminal cost gradient has shape \(500,\), expected \(500, 1\)$"),
    ("response functional of an (M, n, 1) terminal gradient",
     lambda: rsmp.response_functional(*terminal("phi_x", (1, 1))), ShapeMismatch,
     r"^terminal cost gradient has shape \(500, 1, 1\), expected \(500, 1\)$"),
    ("fractional worker cap", lambda: rsmp.simulate(lq1d(), open_control(), rsmp.sample_noise(lq1d(), 4, 4, 1), 1.5),
     DomainError, "integer"),
    ("one ODE step", lambda: rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 1), DomainError, "at least 2"),
    ("fractional ODE steps", lambda: rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 20.5), DomainError,
     "integer"),
    ("fractional optimize steps", lambda: OptimizeParams(M=10, N=4.5), DomainError, "integer"),
    ("negative optimize seed", lambda: OptimizeParams(M=10, N=4, seed=-1), DomainError, "at least 0"),
    ("fractional worker cap of optimize", lambda: OptimizeParams(M=10, N=4, threads=2.0), DomainError, "integer"),
    ("NaN config count", lambda: RunConfig(command="simulate", cells=NAN), DomainError, "must be finite"),
    ("NaN pairing horizon", lambda: rsmp.pair(pair_fn, open_control(), horizon=NAN), DomainError, "must be finite"),
    ("Inf pairing horizon", lambda: rsmp.pair(pair_fn, open_control(), horizon=np.inf), DomainError,
     "must be finite"),
    ("zero pairing horizon", lambda: rsmp.pair(pair_fn, open_control(), horizon=0.0), DomainError, "positive"),
    ("negative pairing horizon", lambda: rsmp.pair(pair_fn, open_control(), horizon=-1.0), DomainError, "positive"),
    ("fractional noise seed", lambda: rsmp.sample_noise(lq1d(), 4, 4, 1.5), DomainError, "integer"),
    ("boolean noise seed", lambda: rsmp.sample_noise(lq1d(), 4, 4, True), DomainError, "integer"),
    ("negative noise seed", lambda: rsmp.sample_noise(lq1d(), 4, 4, -1), DomainError, "at least 0"),
    ("noise seed past the key range", lambda: rsmp.sample_noise(lq1d(), 4, 4, 2**128), DomainError, "Philox key"),
    ("fractional realization seed", lambda: rsmp.realize_regular(open_control(), 2, seed=1.5), DomainError,
     "integer"),
    ("boolean realization seed", lambda: rsmp.realize_regular(open_control(), 2, seed=True), DomainError, "integer"),
    ("negative realization seed", lambda: rsmp.realize_regular(open_control(), 2, seed=-1), DomainError,
     "at least 0"),
    ("realization seed past the key range", lambda: rsmp.realize_regular(open_control(), 2, seed=2**128),
     DomainError, "Philox key"),
    ("pathwise cost under a 5x running-cost copy", lambda: rsmp.pathwise_cost(five_ell(), along().base),
     ShapeMismatch, "another problem"),
    ("adjoint under a 5x running-cost copy", lambda: rsmp.solve_bsde(five_ell(), along().base, along().u0),
     ShapeMismatch, "another problem"),
    ("variational sweep under a 5x running-cost copy",
     lambda: rsmp.simulate_variational(five_ell(), along().base, along().u, along().u0), ShapeMismatch,
     "another problem"),
    ("response functional under a 5x running-cost copy",
     lambda: rsmp.response_functional(five_ell(), along().base, along().u0, along().var), ShapeMismatch,
     "another problem"),
    ("gateaux under a 5x running-cost copy",
     lambda: rsmp.gateaux(five_ell(), along().base, along().var, along().u, along().u0), ShapeMismatch,
     "another problem"),
    ("adjoint pairing under a 5x running-cost copy",
     lambda: rsmp.adjoint_pairing(five_ell(), along().base, along().u0, along().u, along().adjoint), ShapeMismatch,
     "another problem"),
    ("duality gap of records along different bases", lambda: rsmp.duality_gap(along(2).adjoint, along().var),
     ShapeMismatch, "different bases"),
    ("string optimize tol", lambda: OptimizeParams(M=10, N=4, tol="0.1"), DomainError, "real number"),
    ("missing optimize tol", lambda: OptimizeParams(M=10, N=4, tol=None), DomainError, "real number"),
    ("boolean optimize tol", lambda: OptimizeParams(M=10, N=4, tol=True), DomainError, "real number"),
    ("NaN optimize tol", lambda: OptimizeParams(M=10, N=4, tol=NAN), DomainError, "must be finite"),
    ("negative optimize tol", lambda: OptimizeParams(M=10, N=4, tol=-0.1), DomainError, "nonnegative"),
    ("string config tol", lambda: RunConfig(command="optimize", tol="0.1"), DomainError, "real number"),
    ("boolean config tol", lambda: RunConfig(command="optimize", tol=True), DomainError, "real number"),
    ("NaN config tol", lambda: RunConfig(command="optimize", tol=NAN), DomainError, "must be finite"),
    ("NaN simplex tolerance", lambda: rsmp.validate(np.full((2, 3), 1 / 3), tol=NAN), DomainError, "must be finite"),
    ("string simplex tolerance", lambda: rsmp.validate(np.full((2, 3), 1 / 3), tol="1"), DomainError,
     "real number"),
    ("validation of a 0-d array", lambda: rsmp.validate(np.array(1.0)), ShapeMismatch,
     r"^weights must have shape \(N, C, K\) or \(N, K\) with K >= 1, got \(\)$"),
    ("validation of a 4-d array", lambda: rsmp.validate(np.full((2, 1, 1, 3), 1 / 3)), ShapeMismatch,
     r"got \(2, 1, 1, 3\)$"),
    ("validation of weights without atoms", lambda: rsmp.validate(np.zeros((2, 0))), ShapeMismatch, r"got \(2, 0\)$"),
    ("NaN snap tolerance", lambda: rsmp.benchmark_grid("lq1d", 3).snap([[0.0]], tol=NAN), DomainError,
     "must be finite"),
    ("snap of a NaN value", lambda: rsmp.benchmark_grid("lq1d", 3).snap([[NAN]]), ValueOffGrid,
     r"^value \[nan\] is nan from the nearest grid point$"),
    ("snap of values with a last axis of 2 on a 1-D grid", lambda: rsmp.benchmark_grid("lq1d", 3).snap([[0.0, 0.0]]),
     ShapeMismatch, r"^values of shape \(1, 2\) for a grid of dimension 1$"),
    ("dirac embedding of a 2-D regular control on a 1-D grid",
     lambda: rsmp.dirac_embed(RegularControl(np.zeros((3, 1, 2)), [[-1.0, 1.0]] * 2), rsmp.benchmark_grid("lq1d", 3)),
     ShapeMismatch, r"^values of shape \(3, 1, 2\) for a grid of dimension 1$"),
    ("pairing with a vector-valued test function",
     lambda: rsmp.pair(lambda t, xi: np.array([t, xi[0]]), open_control(), horizon=1.0), ShapeMismatch,
     r"^test function has shape \(2,\), expected \(\)$"),
    ("fractional constant-control steps", lambda: rsmp.constant_control(rsmp.benchmark_grid("lq1d", 3), 2.5),
     DomainError, "integer"),
    ("fractional benchmark grid size", lambda: rsmp.benchmark_grid("lq1d", 2.5), DomainError, "integer"),
    ("zero oracle steps", lambda: rsmp.nonconvex_weight_oracle(N=0), DomainError, "at least 1"),
    ("fractional oracle steps", lambda: rsmp.nonconvex_weight_oracle(N=2.5), DomainError, "integer"),
    ("oracle resolution off the mean lattice", lambda: rsmp.nonconvex_weight_oracle(N=4, resolution=0.2), DomainError,
     r"1/\(2 j\)"),
    ("oracle resolution above one half", lambda: rsmp.nonconvex_weight_oracle(N=4, resolution=2.0), DomainError,
     r"1/\(2 j\)"),
    ("zero oracle resolution", lambda: rsmp.nonconvex_weight_oracle(resolution=0.0), DomainError, "positive"),
    ("NaN oracle resolution", lambda: rsmp.nonconvex_weight_oracle(resolution=NAN), DomainError, "must be finite"),
    ("oracle resolution too fine to allocate", lambda: rsmp.nonconvex_weight_oracle(N=2, resolution=1e-300),
     DomainError, "^resolution 1e-300 gives a lattice of 4e\\+300 means, too large to allocate$"),
    ("string mixing weight", lambda: rsmp.mix(open_control(), open_control(), "0.5"), DomainError, "real number"),
    ("string pairing horizon", lambda: rsmp.pair(pair_fn, open_control(), horizon="1"), DomainError, "real number"),
    ("regular control without slots", lambda: RegularControl(np.zeros((0, 1)), [[-1.0, 1.0]]), DomainError,
     "at least 1"),
    ("zero finite-difference step", lambda: rsmp.fd_gradient(np.sin, step=0.0), DomainError, "positive"),
    ("string horizon", lambda: problem(T="1"), DomainError, "real number"),
    ("string LQ horizon", lambda: LQSpec(**{**LQ1D, "T": "1"}), DomainError, "real number"),
    ("relaxed control without time steps",
     lambda: RelaxedControl(rsmp.benchmark_grid("lq1d", 3), np.zeros((0, 1, 3))), DomainError, "at least 1"),
    ("optimize tol beyond the float range", lambda: OptimizeParams(M=10, N=4, tol=10**400), DomainError,
     "must be finite"),
    ("horizon beyond the float range", lambda: problem(T=10**400), DomainError, "must be finite"),
    ("drift that is not callable", lambda: problem(b=5.0), DomainError, "^b must be callable$"),
    ("terminal cost that is not callable", lambda: problem(phi=3.0), DomainError, "^phi must be callable$"),
    ("missing running cost", lambda: problem(ell=None), DomainError, "^ell must be callable$"),
    ("diffusion gradient that is not callable", lambda: problem(sigma_x=1.0), DomainError,
     "^sigma_x must be callable$"),
    ("observation that is not callable", lambda: problem(observe=2), DomainError, "^observe must be callable$"),
    ("jump coefficient that is not callable", lambda: JumpSpec([[0.5]], [1.0], 7), DomainError,
     "^C must be callable$"),
    ("jump gradient that is not callable", lambda: JumpSpec([[0.5]], [1.0], jump_c, 7), DomainError,
     "^C_x must be callable$"),
    ("Separable state part that is not callable", lambda: rsmp.Separable(3.0, pair_fn), DomainError,
     "^Separable state part must be callable$"),
    ("Separable control part that is not callable", lambda: rsmp.Separable(pair_fn, None), DomainError,
     "^Separable control part must be callable$"),
    ("drift state part of two components", lambda: with_part("lq1d", "b", "state", (2,)), ShapeMismatch,
     r"^drift state part has shape \(4, 2\), expected \(4, 1\)$"),
    ("drift control part without its axis", lambda: with_part("lq1d", "b", "control", ()), ShapeMismatch,
     r"^drift control part has shape \(3,\), expected \(3, 1\)$"),
    ("running cost state part with an axis", lambda: with_part("lq1d", "ell", "state", (1,)), ShapeMismatch,
     r"^running cost state part has shape \(4, 1\), expected \(4,\)$"),
    ("running cost control part with an axis", lambda: with_part("lq1d", "ell", "control", (1,)), ShapeMismatch,
     r"^running cost control part has shape \(3, 1\), expected \(3,\)$"),
    ("jump coefficient control part of two components", lambda: with_part("jump-lq", "C", "control", (2,)),
     ShapeMismatch, r"^jump coefficient control part has shape \(3, 2\), expected \(3, 1\)$"),
    ("NaN oracle sigma", lambda: rsmp.nonconvex_weight_oracle(N=4, sigma=NAN), DomainError, "must be finite"),
    ("string oracle sigma", lambda: rsmp.nonconvex_weight_oracle(N=4, sigma="a"), DomainError, "real number"),
    ("negative oracle sigma", lambda: rsmp.nonconvex_weight_oracle(N=4, sigma=-0.5), DomainError, "nonnegative"),
    ("NaN oracle horizon", lambda: rsmp.nonconvex_weight_oracle(N=4, T=NAN), DomainError, "must be finite"),
    ("zero oracle horizon", lambda: rsmp.nonconvex_weight_oracle(N=4, T=0.0), DomainError, "positive"),
    ("Riccati gain at a NaN time", lambda: riccati().gain_at(NAN), DomainError, "must be finite"),
    ("Riccati matrix at a NaN time", lambda: riccati().P_at(NAN), DomainError, "must be finite"),
    ("Riccati feedback at a NaN time", lambda: riccati().feedback(NAN, np.ones((2, 1))), DomainError,
     "must be finite"),
    ("Riccati gain at an infinite time", lambda: riccati().gain_at(np.inf), DomainError, "must be finite"),
    ("Riccati gain at a string time", lambda: riccati().gain_at("a"), DomainError, "must be finite"),
    ("Riccati matrix at a string time", lambda: riccati().P_at("a"), DomainError, "must be finite"),
    ("Riccati feedback at a string time", lambda: riccati().feedback("a", np.ones((2, 1))), DomainError,
     "must be finite"),
    ("Riccati gain at no time", lambda: riccati().gain_at(None), DomainError, "must be finite"),
    ("oracle horizon whose cost overflows", lambda: rsmp.nonconvex_weight_oracle(N=4, T=1e300), DomainError,
     "horizon T=1e\\+300"),
    ("oracle sigma whose cost overflows", lambda: rsmp.nonconvex_weight_oracle(N=4, sigma=1e200), DomainError,
     "beyond the float range"),
    ("open-loop partition of an unknown benchmark", lambda: rsmp.benchmark_partition("bogus", rsmp.OPEN_LOOP),
     rsmp.UnknownBenchmark, "bogus"),
    ("negative horizon beyond the float range", lambda: problem(T=-(10**400)), DomainError, "must be finite"),
    # sizes beyond numpy's largest array, refused before anything is allocated
    ("noise of 2**62 paths", lambda: rsmp.sample_noise(lq1d(), 2**62, 4, 1), DomainError,
     "^noise of 4611686018427387904 paths and 4 steps, too large to allocate$"),
    ("constant control of 2**62 steps", lambda: rsmp.constant_control(rsmp.benchmark_grid("lq1d", 3), 2**62),
     DomainError, "too large to allocate$"),
    ("refinement by 2**62", lambda: rsmp.refine_steps(open_control(), 2**62), DomainError,
     "^refinement by 4611686018427387904, too large to allocate$"),
    ("realization refinement of 2**62", lambda: rsmp.realize_regular(open_control(), 2**62), DomainError,
     "too large to allocate$"),
    ("benchmark grid of 2**62 atoms", lambda: rsmp.benchmark_grid("lq1d", 2**62), DomainError,
     "too large to allocate$"),
    ("Riccati oracle on 2**62 steps", lambda: rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 2**62),
     DomainError, "too large to allocate$"),
]


@pytest.mark.parametrize("call, error, text", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED])
def test_input_is_refused_with_a_typed_error(call, error, text):
    with pytest.raises(error, match=text):
        call()


def test_integer_counts_of_numpy_type_are_accepted():
    part = CellPartition([[0.0, 1.0]], (np.int64(3),))
    assert part.cells_per_dim == (3,) and type(part.cells_per_dim[0]) is int
    assert rsmp.refine_steps(open_control(2), np.int32(2)).time_steps == 4


# (record class, its array inputs by field name)
RECORDS = [
    (GaussianInitial, {"mean": [0.0, 1.0], "cov": [[1.0, 0.0], [0.0, 2.0]]}),
    (JumpSpec, {"marks": [[0.3], [-0.2]], "intensities": [1.0, 1.5]}),
    (ControlGrid, {"points": [[-1.0], [1.0]], "box": [[-1.0, 1.0]]}),
    (CellPartition, {"bounds": [[-1.0, 1.0]]}),
    (RegularControl, {"values": [[[0.5]], [[-0.5]]], "box": [[-1.0, 1.0]]}),
    (LQSpec, {name: LQ1D[name] for name in ("A", "B", "Sigma0", "R_x", "R_u", "G")}),
]

EXTRA = {
    JumpSpec: {"C": jump_c},
    CellPartition: {"cells_per_dim": (2,)},
    LQSpec: {"T": 1.0, "x0": [1.0]},
}


@pytest.mark.parametrize("cls, arrays", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_freezes_a_copy_and_leaves_the_caller_array_writable(cls, arrays):
    given = {name: np.array(value, dtype=float) for name, value in arrays.items()}
    record = cls(**given, **EXTRA.get(cls, {}))
    for name, arr in given.items():
        held = getattr(record, name)
        assert not held.flags.writeable, name
        assert not np.shares_memory(held, arr), name
        assert arr.flags.writeable, name
        arr[...] = 0.5  # the record keeps its own values
        assert not np.all(held == 0.5), name


def test_problem_and_relaxed_control_freeze_copies():
    x0, box = np.array([1.0]), np.array([[-2.0, 2.0]])
    p = problem(x0=x0, control_box=box)
    w = np.full((4, 3), 1.0 / 3)
    u = RelaxedControl(rsmp.benchmark_grid("lq1d", 3), w)
    for held, given in ((p.x0, x0), (p.control_box, box), (u.weights, w)):
        assert not held.flags.writeable
        assert given.flags.writeable and not np.shares_memory(held, given)


def test_shared_benchmark_spec_is_read_only():
    spec = rsmp.benchmark_lq_spec("lq1d")
    for name in ("A", "B", "Sigma0", "R_x", "R_u", "G", "x0"):
        assert not getattr(spec, name).flags.writeable, name
    with pytest.raises(ValueError):
        spec.A[0, 0] = 1.0


@pytest.mark.parametrize("count", [2.7, 2.0])
def test_control_file_with_a_float_cell_count_exits_2(tmp_path, count):
    grid = rsmp.benchmark_grid("lq1d", 3)
    part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=2)
    doc = json.loads(RelaxedControl(grid, np.full((4, 2, 3), 1.0 / 3), rsmp.STATE_FEEDBACK, part).to_json())
    doc["feedback"]["cells_per_dim"] = [count]
    path = tmp_path / "control.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--bench", "lq1d", "--M", "20", "--N", "4", "--seed", "1", "--control", str(path)])
    assert code == EXIT_CONFIG
    assert err.getvalue().startswith("error: ") and "integer" in err.getvalue()


def test_path_count_beyond_numpy_s_largest_array_exits_2():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--bench", "lq1d", "--M", str(2**62), "--N", "64", "--seed", "1"])
    assert code == EXIT_CONFIG
    assert err.getvalue() == "error: noise of 4611686018427387904 paths and 64 steps, too large to allocate\n"


def test_command_out_of_memory_exits_2(monkeypatch):
    def exhausted(config):
        raise MemoryError("Unable to allocate 46.6 TiB")

    monkeypatch.setitem(rsmp.cli._COMMANDS, "simulate", (exhausted, "simulate"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--bench", "lq1d", "--M", "20", "--N", "4", "--seed", "1"])
    assert code == EXIT_CONFIG and err.getvalue() == "out of memory: Unable to allocate 46.6 TiB\n"


def test_validate_reports_non_finite_weights():
    report = rsmp.validate(np.array([[NAN, 1.0], [0.5, 0.5], [np.inf, -np.inf]]))
    assert not report.ok
    assert [(v.step, v.cell, v.kind, v.magnitude) for v in report.violations] == [
        (0, 0, "non-finite", 1.0),
        (2, 0, "non-finite", 2.0),
    ]


def loop_validate(w, tol=1e-12):
    """The per-row loop `validate` replaced, as its reference on finite rows."""
    found = []
    for k in range(w.shape[0]):
        for c in range(w.shape[1]):
            row = w[k, c]
            if row.min() < -tol:
                found.append((k, c, "negative", float(-row.min())))
            if abs(row.sum() - 1.0) > tol:
                found.append((k, c, "normalization", float(abs(row.sum() - 1.0))))
    return found


@pytest.mark.parametrize("seed", range(5))
def test_validate_equals_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(4), size=(6, 3))
    w[rng.random((6, 3)) < 0.3] += rng.normal(0.0, 0.2, 4)
    found = [(v.step, v.cell, v.kind, v.magnitude) for v in rsmp.validate(w).violations]
    assert found == loop_validate(w) and found


@pytest.mark.parametrize("control", ["relaxed", "regular", "policy"])
def test_diffusion_of_a_wrong_trailing_shape_is_shape_mismatch(control):
    p = problem(sigma=filled((2, 1)))
    u = {
        "relaxed": open_control(),
        "regular": RegularControl(np.zeros((4, 1)), [[-2.0, 2.0]]),
        "policy": lambda t, x: np.zeros((len(x), 1)),
    }[control]
    with pytest.raises(ShapeMismatch, match=r"diffusion has shape \(\d+, 2, 1\), expected \(\d+, 1, 1\)"):
        rsmp.simulate(p, u, rsmp.sample_noise(p, 10, 4, 1))


def test_jump_coefficient_of_a_wrong_trailing_shape_is_shape_mismatch():
    p = dataclasses.replace(rsmp.make_benchmark("jump-lq"), jump=jump_lq_c(filled((2,))))
    with pytest.raises(ShapeMismatch, match="jump coefficient has shape"):
        rsmp.simulate(p, open_control(), rsmp.sample_noise(p, 10, 4, 1))


def test_gradient_of_a_wrong_trailing_shape_is_shape_mismatch():
    p = problem(sigma_x=filled((1, 1)))
    u = open_control()
    base = rsmp.simulate(p, u, rsmp.sample_noise(p, 50, 4, 1))
    with pytest.raises(ShapeMismatch, match=r"diffusion gradient has shape \(50, 1, 1\), expected \(50, 1, 1, 1\)"):
        rsmp.solve_bsde(p, base, u)
    with pytest.raises(ShapeMismatch, match="diffusion gradient has shape"):
        rsmp.simulate_variational(p, base, u, u)
