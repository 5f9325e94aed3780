"""The benchmark tracer in perfbench/spans.py finds rsmp's functions by name.

A refactor that moves or renames one of them must fail here rather than in a
benchmark run.  The tracer's source is executed into a fresh namespace, so
nothing is written under perfbench/.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import rsmp

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    mod = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_every_target_resolves(spans):
    for home, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"


def test_every_method_resolves(spans):
    for home, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{home}.{cls_name}.{attr}"


def test_traced_pipeline_records_every_span(spans):
    tracer = spans.Tracer(0)
    lq = tracer.wrap_problem(rsmp.make_benchmark("lq1d"))
    jump = tracer.wrap_problem(rsmp.make_benchmark("jump-lq"))
    lq_grid, jump_grid = rsmp.benchmark_grid("lq1d", 5), rsmp.benchmark_grid("jump-lq", 5)
    N = 4

    def solve():
        rsmp.optimize(lq, rsmp.constant_control(lq_grid, N), rsmp.OptimizeParams(M=300, N=N, max_iters=1, tol=0.0))
        u0 = rsmp.constant_control(jump_grid, N)
        u = rsmp.constant_control(jump_grid, N, np.eye(jump_grid.K)[0])
        base = rsmp.simulate(jump, u0, rsmp.sample_noise(jump, 300, N, 1))
        adj = rsmp.solve_bsde(jump, base, u0)
        rsmp.hamiltonian_field(adj)  # optimize bins its field without calling it
        var = rsmp.simulate_variational(jump, base, u, u0)
        rsmp.gateaux(jump, base, var, u, u0)
        rsmp.adjoint_pairing(jump, base, u0, u, adj)
        rsmp.hamiltonian(jump, jump_grid, 0.0, base.states[:, 0], adj.psi_cont[:, 0], adj.Q[:, 0],
                         adj.phi[:, 0], u0.weights[0, 0])
        rsmp.realize_regular(rsmp.refine_steps(u0, 2), 2)
        # sweeps read the cells simulate recorded; a feedback pairing resolves its own by weights_at
        part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=2)
        uf = rsmp.RelaxedControl(lq_grid, np.full((N, 2, lq_grid.K), 1.0 / lq_grid.K), rsmp.STATE_FEEDBACK, part)
        rsmp.pair(lambda t, xi: 0.0, uf, rsmp.simulate(lq, uf, rsmp.sample_noise(lq, 300, N, 2)))

    with spans.instrument(tracer):
        tracer.wrap(solve, spans.ROOT_SPAN)()
    calls = tracer.summary()["calls"]
    names = {name for _, _, name, _ in spans.TARGETS} | {name for _, _, _, name in spans.METHODS}
    assert {name for name in names if calls[name] == 0} == set()
    assert calls["problem.coef"] > 0
    for key in ("forward.noise_bytes", "forward.path_steps", "smp.optimize.iterations"):
        assert tracer.counts[key] > 0, key
