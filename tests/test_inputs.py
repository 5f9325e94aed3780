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
    OptimizeParams,
    RegularControl,
    RelaxedControl,
    Semimartingale,
    ShapeMismatch,
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


def semimartingale(dt):
    return Semimartingale(np.zeros((2, 3, 1)), np.zeros((2, 3, 1, 1)), dt)


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
    ("NaN jump mark", lambda: JumpSpec([[NAN]], [1.0], jump_c), DomainError, "must be finite"),
    ("NaN jump intensity", lambda: JumpSpec([[1.0]], [NAN], jump_c), DomainError, "must be finite"),
    ("NaN LQ matrix", lambda: LQSpec(**{**LQ1D, "A": [[NAN]]}), DomainError, "must be finite"),
    ("NaN LQ horizon", lambda: LQSpec(**{**LQ1D, "T": NAN}), DomainError, "must be finite"),
    ("NaN semimartingale dt", lambda: semimartingale(NAN), DomainError, "must be finite"),
    ("Inf semimartingale dt", lambda: semimartingale(np.inf), DomainError, "must be finite"),
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
    ("fractional worker cap", lambda: rsmp.simulate(lq1d(), open_control(), rsmp.sample_noise(lq1d(), 4, 4, 1), 1.5),
     DomainError, "integer"),
    ("one ODE step", lambda: rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 1), DomainError, "at least 2"),
    ("fractional ODE steps", lambda: rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 20.5), DomainError,
     "integer"),
    ("fractional assumption samples", lambda: rsmp.validate_assumptions(lq1d(), samples=2.5), DomainError,
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
    ("fractional assumption seed", lambda: rsmp.validate_assumptions(lq1d(), 5, seed=1.5), DomainError, "integer"),
    ("boolean assumption seed", lambda: rsmp.validate_assumptions(lq1d(), 5, seed=True), DomainError, "integer"),
    ("negative assumption seed", lambda: rsmp.validate_assumptions(lq1d(), 5, seed=-1), DomainError, "at least 0"),
    ("assumption seed past the key range", lambda: rsmp.validate_assumptions(lq1d(), 5, seed=2**128), DomainError,
     "Philox key"),
    ("NaN assumption scale", lambda: rsmp.validate_assumptions(lq1d(), 5, scale=NAN), DomainError, "must be finite"),
    ("zero assumption scale", lambda: rsmp.validate_assumptions(lq1d(), 5, scale=0.0), DomainError, "positive"),
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
    ("NaN snap tolerance", lambda: rsmp.benchmark_grid("lq1d", 3).snap([[0.0]], tol=NAN), DomainError,
     "must be finite"),
    ("fractional constant-control steps", lambda: rsmp.constant_control(rsmp.benchmark_grid("lq1d", 3), 2.5),
     DomainError, "integer"),
    ("fractional benchmark grid size", lambda: rsmp.benchmark_grid("lq1d", 2.5), DomainError, "integer"),
    ("zero oracle steps", lambda: rsmp.nonconvex_weight_oracle(N=0), DomainError, "at least 1"),
    ("fractional oracle steps", lambda: rsmp.nonconvex_weight_oracle(N=2.5), DomainError, "integer"),
    ("zero oracle resolution", lambda: rsmp.nonconvex_weight_oracle(resolution=0.0), DomainError, "positive"),
    ("NaN oracle resolution", lambda: rsmp.nonconvex_weight_oracle(resolution=NAN), DomainError, "must be finite"),
    ("string mixing weight", lambda: rsmp.mix(open_control(), open_control(), "0.5"), DomainError, "real number"),
    ("string pairing horizon", lambda: rsmp.pair(pair_fn, open_control(), horizon="1"), DomainError, "real number"),
    ("regular control without slots", lambda: RegularControl(np.zeros((0, 1)), [[-1.0, 1.0]]), DomainError,
     "at least 1"),
    ("zero finite-difference step", lambda: rsmp.fd_gradient(np.sin, step=0.0), DomainError, "positive"),
    ("string horizon", lambda: problem(T="1"), DomainError, "real number"),
    ("string LQ horizon", lambda: LQSpec(**{**LQ1D, "T": "1"}), DomainError, "real number"),
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


def wrong_sigma(t, x, xi):
    return np.zeros(np.shape(x)[:-1] + (2, 1))


def wrong_sigma_x(t, x, xi):
    return np.zeros(np.shape(x)[:-1] + (1, 1))


def wrong_jump(t, x, v, xi):
    return np.zeros(np.shape(x)[:-1] + (2,))


@pytest.mark.parametrize("control", ["relaxed", "regular", "policy"])
def test_diffusion_of_a_wrong_trailing_shape_is_shape_mismatch(control):
    p = problem(sigma=wrong_sigma)
    u = {
        "relaxed": open_control(),
        "regular": RegularControl(np.zeros((4, 1)), [[-2.0, 2.0]]),
        "policy": lambda t, x: np.zeros((len(x), 1)),
    }[control]
    with pytest.raises(ShapeMismatch, match=r"diffusion has shape \(\d+, 2, 1\), expected \(\d+, 1, 1\)"):
        rsmp.simulate(p, u, rsmp.sample_noise(p, 10, 4, 1))


def test_jump_coefficient_of_a_wrong_trailing_shape_is_shape_mismatch():
    p = rsmp.make_benchmark("jump-lq")
    p = dataclasses.replace(p, jump=JumpSpec(p.jump.marks, p.jump.intensities, wrong_jump, p.jump.C_x))
    with pytest.raises(ShapeMismatch, match="jump coefficient has shape"):
        rsmp.simulate(p, open_control(), rsmp.sample_noise(p, 10, 4, 1))


def test_gradient_of_a_wrong_trailing_shape_is_shape_mismatch():
    p = problem(sigma_x=wrong_sigma_x)
    u = open_control()
    base = rsmp.simulate(p, u, rsmp.sample_noise(p, 50, 4, 1))
    with pytest.raises(ShapeMismatch, match=r"diffusion gradient has shape \(50, 1, 1\), expected \(50, 1, 1, 1\)"):
        rsmp.solve_bsde(p, base, u)
    with pytest.raises(ShapeMismatch, match="diffusion gradient has shape"):
        rsmp.simulate_variational(p, base, u, u)
