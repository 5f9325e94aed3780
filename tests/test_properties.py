"""Property tests for the invariants the acceptance suite spot-checks:
mixing linearity and simplex closure, the sign and zero of the SMP gap, and
the chattering apportionment bound; and for the CLI's refusal of a control
file holding a non-finite number.  Derandomized, so every run draws the same
examples."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmp
from rsmp import CellPartition, ControlGrid, RelaxedControl
from rsmp.cli import EXIT_CONFIG, main
from rsmp.smp import HamiltonianField, _largest_remainder

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def random_control(rng, grid, N, C):
    w = rng.dirichlet(np.ones(grid.K), size=(N, C))
    if C == 1:
        return RelaxedControl(grid, w)
    return RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, CellPartition([[0.0, 1.0]], (C,)))


def line_grid(K):
    return ControlGrid(np.linspace(-1.0, 1.0, K)[:, None], [[-1.0, 1.0]])


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    N=st.integers(1, 5),
    C=st.integers(1, 4),
    e1=st.floats(0.0, 1.0),
    e2=st.floats(0.0, 1.0),
)
def test_mix_is_linear_in_eps_and_closed_on_the_simplex(seed, K, N, C, e1, e2):
    rng = np.random.default_rng(seed)
    grid = line_grid(K)
    a, b = random_control(rng, grid, N, C), random_control(rng, grid, N, C)
    m1, m2 = rsmp.mix(a, b, e1), rsmp.mix(a, b, e2)
    for m, eps in ((m1, e1), (m2, e2)):
        assert rsmp.validate(m).ok
        assert np.allclose(m.weights, a.weights + eps * (b.weights - a.weights), rtol=0, atol=1e-15)
    mid = rsmp.mix(a, b, 0.5 * (e1 + e2))
    assert np.allclose(mid.weights, 0.5 * (m1.weights + m2.weights), rtol=0, atol=1e-15)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    N=st.integers(1, 5),
    C=st.integers(1, 4),
    scale=st.floats(1e-3, 1e3),
)
def test_smp_gap_is_nonnegative_and_zero_at_the_argmin(seed, K, N, C, scale):
    rng = np.random.default_rng(seed)
    grid = line_grid(K)
    u0 = random_control(rng, grid, N, C)
    cell_values = scale * rng.standard_normal((N, C, K))
    occupancy = rng.integers(0, 5, size=(N, C))
    field = HamiltonianField(
        cell_values=cell_values,
        occupancy=occupancy,
        control=u0,
        dt=0.1,
    )
    gap, per_step = rsmp.smp_gap(field, u0)
    # a convex combination rounds at most a few ulps below the minimum
    assert gap >= -1e-12 * scale
    assert np.all(per_step >= -1e-12 * scale)
    assert rsmp.smp_gap(field, rsmp.pointwise_argmin(field))[0] == 0.0


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8), R=st.integers(1, 64))
def test_apportionment_sums_to_R_within_one_slot(seed, K, R):
    w = np.random.default_rng(seed).dirichlet(np.ones(K))
    counts = _largest_remainder(w, R)
    assert counts.sum() == R
    assert np.all(counts >= 0)
    assert np.all(np.abs(counts / R - w) < 1.0 / R)


CONTROL_COMMANDS = ("simulate", "adjoint", "optimize", "certify", "chatter")


def numeric_leaves(node, path=()):
    """Key paths of every number in a parsed JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from numeric_leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from numeric_leaves(item, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@PROPERTY
@given(feedback=st.booleans(), bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_non_finite_control_file_exits_2_from_every_command(feedback, bad, data):
    grid = rsmp.benchmark_grid("lq1d", 3)
    part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=2) if feedback else None
    mode = rsmp.STATE_FEEDBACK if feedback else rsmp.OPEN_LOOP
    cells = 1 if part is None else part.n_cells
    doc = json.loads(RelaxedControl(grid, np.full((4, cells, 3), 1.0 / 3), mode, part).to_json())
    path = data.draw(st.sampled_from(list(numeric_leaves(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        control = os.path.join(tmp, "control.json")
        with open(control, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        for command in CONTROL_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--bench", "lq1d", "--M", "20", "--N", "4", "--seed", "1",
                             "--control", control])
            assert code == EXIT_CONFIG, (command, path)
            assert err.getvalue().startswith("error: ") and "must be finite" in err.getvalue()
