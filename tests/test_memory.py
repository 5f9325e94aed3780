"""Memory bounds of the descent loop, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is deterministic for fixed sizes.  Sizes: lq1d, M=4000 paths, N=32 steps,
K=9 atoms, 16 state cells.  A field keeps only its (N, C, K) cell tensor, so
it scales with M·N, not M·N·K.  optimize bins its field in a backward sweep
that holds the adjoint state of two steps and the current step's Q and φ,
not an adjoint process, so its peak is the paths and noise it simulates.
The noise is drawn a few rows at a time, through one small reused buffer
and small jump-count draws, into its step-major arrays, so it never holds
a second full noise tensor or a block-sized temporary.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

import rsmp
from rsmp import RelaxedControl
from rsmp.adjoint import _sweep
from rsmp.forward import _BLOCK, _DRAW_FLOATS
from rsmp.problem import averaged_linearization

M, N, K, CELLS = 4000, 32, 9, 16


def traced(fn):
    """fn's result, the bytes it left allocated and its peak allocation."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained, peak


@pytest.fixture(scope="module")
def lq1d():
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", K)
    part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=CELLS)
    u = RelaxedControl(grid, np.full((N, part.n_cells, K), 1.0 / K), rsmp.STATE_FEEDBACK, part)
    return p, u


def test_optimize_peak_is_a_few_path_tensors(lq1d):
    p, u = lq1d
    params = rsmp.OptimizeParams(M=M, N=N, max_iters=3, tol=0.0, seed=3)
    res, _, peak = traced(lambda: rsmp.optimize(p, u, params))
    assert len(res.iterates) >= 2  # at least one accepted step, so a second adjoint was solved
    assert peak <= 10 * M * (N + 1) * 8


def test_optimize_peak_holds_no_adjoint_process(lq1d):
    # solving a full adjoint per iteration (solve_bsde) peaks at about 6.8x here
    p, u = lq1d
    params = rsmp.OptimizeParams(M=M, N=N, max_iters=3, tol=0.0, seed=3)
    res, _, peak = traced(lambda: rsmp.optimize(p, u, params))
    assert len(res.iterates) >= 2
    assert peak <= 5 * M * (N + 1) * 8


def test_field_sweep_keeps_no_adjoint_process(lq1d):
    # solve_bsde, which keeps psi, psi_cont, Q, phi and the pairing sums,
    # peaks at about 4.6 M·N·8 bytes here
    p, u = lq1d
    base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=4))
    (sums, occupancy, kept, _), _, peak = traced(lambda: _sweep(p, base, u, rsmp.BasisSpec(), record=False))
    assert kept == () and sums.shape == (N, CELLS, K) and occupancy.shape == (N, CELLS)
    assert peak <= 2 * M * N * 8


def test_field_keeps_only_its_cell_tensor(lq1d):
    p, u = lq1d
    base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=4))
    adj = rsmp.solve_bsde(p, base, u)
    fld, retained, peak = traced(lambda: rsmp.hamiltonian_field(adj))
    for f in dataclasses.fields(fld):
        value = getattr(fld, f.name)
        if isinstance(value, np.ndarray):
            assert M not in value.shape, f.name
    assert fld.cell_values.shape == (N, CELLS, K)
    assert retained - fld.cell_values.nbytes - fld.occupancy.nbytes < M * 8
    assert peak <= 3 * M * N * 8


@pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
def test_sample_noise_peak_is_its_outputs_plus_draw_buffers(name):
    p = rsmp.make_benchmark(name)
    paths = 2 * _BLOCK + 100  # three blocks, the last one short
    noise, retained, peak = traced(lambda: rsmp.sample_noise(p, paths, N, seed=5))
    outputs = sum(a.nbytes for a in (noise.dW, noise.jump_counts, noise.initial_normals) if a is not None)
    # the reused Brownian draw buffer and the few rows of jump counts drawn
    # with it (Generator.poisson has no out=) share one _DRAW_FLOATS budget
    buffers = 8 * _DRAW_FLOATS
    assert retained <= outputs + 64 * 1024
    assert peak <= outputs + buffers + 64 * 1024


def test_control_free_linearization_builds_no_atom_tensor():
    # lq1d's b_x, sigma_x and l_x do not depend on the control, so each is
    # evaluated once for all atoms and scaled by the weight row sum: the
    # averages under per-path weights never hold a (K, M, ...) tensor
    paths, atoms = 20_000, 9
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", atoms)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((paths, 1))
    w = rng.dirichlet(np.ones(atoms), paths)
    _, _, peak = traced(lambda: averaged_linearization(p, grid, 0.3, x, w))
    assert peak < atoms * paths * 8
