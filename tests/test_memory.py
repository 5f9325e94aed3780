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


def test_line_search_holds_one_ensemble(lq1d, monkeypatch):
    # the current iterate's ensemble is dropped once its sweep is done, and a
    # rejected trial's before the next trial, so when a trial is simulated
    # optimize holds the noise and no ensemble: the trial's is the only one
    p, u = lq1d
    params = rsmp.OptimizeParams(M=M, N=N, max_iters=3, tol=0.0, seed=3)
    simulate, held = rsmp.smp.simulate, []

    def recorded(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(rsmp.smp, "simulate", recorded)
    res, _, _ = traced(lambda: rsmp.optimize(p, u, params))
    noise = rsmp.sample_noise(p, M, N, seed=3)
    assert len(res.iterates) >= 2 and len(held) >= 2  # the first iterate and at least one trial
    assert max(held) - noise.dW.nbytes <= M * (N + 1) * p.n * 8 // 2  # less than one ensemble's states


def test_field_sweep_keeps_no_adjoint_process(lq1d):
    # solve_bsde, which keeps psi, psi_cont, Q, phi and the pairing sums,
    # peaks at about 4.6 M·N·8 bytes here
    p, u = lq1d
    base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=4))
    (sums, occupancy, kept, _), _, peak = traced(lambda: _sweep(base, rsmp.BasisSpec(), record=False))
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
    # evaluated once for all atoms and averaged as it is: the averages under
    # per-path weights never hold a (K, M, ...) tensor
    paths, atoms = 20_000, 9
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", atoms)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((paths, 1))
    w = rng.dirichlet(np.ones(atoms), paths)
    _, _, peak = traced(lambda: averaged_linearization(p, grid, 0.3, x, w))
    assert peak < atoms * paths * 8


def test_linearization_under_per_path_rows_builds_no_jacobian_array():
    # lq1d's b_x and sigma_x are evaluated once and the same on every path,
    # so under per-path weights (M, K) they stay one broadcast row: beyond
    # l_x's own evaluation the averages allocate less than one (M, n, n)
    # array, and no row sums of the weights
    paths, atoms = 20_000, 9
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", atoms)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((paths, p.n))
    w = rng.dirichlet(np.ones(atoms), paths)
    (bx, sx, _, _), _, peak = traced(lambda: averaged_linearization(p, grid, 0.3, x, w))
    _, _, own = traced(lambda: p.ell_x(0.3, x[None], grid.points[:, None]))
    assert bx.strides[0] == sx.strides[0] == 0
    assert peak - own < paths * p.n * p.n * 8


def test_relaxed_simulate_of_path_constant_coefficients_holds_no_copies():
    # nonconvex-mix's drift xi and diffusion are the same on every path: each
    # is averaged as one row and read as a broadcast, never copied to all M
    # paths, and each Euler step is formed in its own row of the states
    # (about 8.5 M·8 bytes above the states when the rows are copied)
    paths = 4000
    p = rsmp.make_benchmark("nonconvex-mix")
    grid = rsmp.benchmark_grid("nonconvex-mix")
    u = RelaxedControl(grid, np.full((N, 1, grid.K), 1.0 / grid.K))
    noise = rsmp.sample_noise(p, paths, N, seed=3)
    out, _, peak = traced(lambda: rsmp.simulate(p, u, noise))
    assert peak - out.states.nbytes <= 6 * paths * 8
