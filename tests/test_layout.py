"""Storage layout of the per-step arrays.

Every per-step array keeps its public (M, steps, ...) shape but is stored
step-major, so the slice arr[:, k] that a sweep reads or writes at step k is
one contiguous run.  The storage order is not part of the noise stream: a
path-major copy of the noise drives every sweep to the same bits.
"""

import dataclasses

import numpy as np
import pytest

import rsmp
from rsmp.container import paths_to_binary, read_section
from rsmp.forward import _BLOCK

M, N, K, CELLS = 300, 8, 5, 4


def assert_step_major(arr, shape):
    assert arr.shape == shape
    for k in range(shape[1]):
        assert arr[:, k].flags.c_contiguous, k


@pytest.fixture(scope="module", params=["lq1d", "lq2d", "jump-lq"])
def pipeline(request):
    name = request.param
    p = rsmp.make_benchmark(name)
    grid = rsmp.benchmark_grid(name, K)
    part = rsmp.benchmark_partition(name, rsmp.STATE_FEEDBACK, cells=CELLS)
    rng = np.random.default_rng(2)

    def control():
        w = rng.uniform(0.1, 1.0, (N, part.n_cells, K))
        return rsmp.RelaxedControl(grid, w / w.sum(axis=-1, keepdims=True), rsmp.STATE_FEEDBACK, part)

    u0, u = control(), control()
    base = rsmp.simulate(p, u0, rsmp.sample_noise(p, M, N, seed=5))
    return p, u0, u, base


def test_noise_is_step_major(pipeline):
    p, _, _, base = pipeline
    assert_step_major(base.noise.dW, (M, N, p.m))
    if p.jump is not None:
        assert_step_major(base.noise.jump_counts, (M, N, p.jump.J))
        assert base.noise.jump_counts.dtype == np.int64


def test_states_are_step_major(pipeline):
    p, _, _, base = pipeline
    assert_step_major(base.states, (M, N + 1, p.n))


def test_variational_states_are_step_major(pipeline):
    p, u0, u, base = pipeline
    var = rsmp.simulate_variational(p, base, u, u0)
    assert_step_major(var.y, (M, N + 1, p.n))
    assert not var.y[:, 0].any()


def test_adjoint_arrays_are_step_major(pipeline):
    p, u0, _, base = pipeline
    adj = rsmp.solve_bsde(p, base, u0)
    assert_step_major(adj.psi, (M, N + 1, p.n))
    assert_step_major(adj.psi_cont, (M, N, p.n))
    assert_step_major(adj.Q, (M, N, p.n, p.m))
    if p.jump is not None:
        assert_step_major(adj.phi, (M, N, p.jump.J, p.n))
    else:
        assert adj.phi is None


def test_path_major_noise_gives_identical_sweeps(pipeline, tmp_path):
    # a container holds the noise in path-major C order, as the old layout did
    p, u0, u, base = pipeline
    paths_to_binary(base, str(tmp_path / "paths.bin"))
    _, _, arrays = read_section(str(tmp_path / "paths.bin"))
    counts = arrays.get("jump_counts")
    noise = dataclasses.replace(
        base.noise,
        dW=np.ascontiguousarray(base.noise.dW),
        jump_counts=np.ascontiguousarray(base.noise.jump_counts),
    )
    assert noise.dW.flags.c_contiguous and np.array_equal(noise.dW, arrays["dW"])
    if counts is not None:
        assert noise.jump_counts.flags.c_contiguous and np.array_equal(noise.jump_counts, counts)
    again = rsmp.simulate(p, u0, noise)
    assert np.array_equal(again.states, base.states)
    assert np.array_equal(again.running_cost, base.running_cost)
    var_a, var_b = (rsmp.simulate_variational(p, e, u, u0) for e in (again, base))
    assert np.array_equal(var_a.y, var_b.y)
    adj_a, adj_b = (rsmp.solve_bsde(p, e, u0) for e in (again, base))
    for name in ("psi", "psi_cont", "Q", "hamiltonian_sums", "pairing_sums"):
        assert np.array_equal(getattr(adj_a, name), getattr(adj_b, name)), name


@pytest.mark.parametrize("factor", [4, 16])
def test_coarsen_is_the_path_major_reshape_sum(factor):
    # factor 16 sums 16 steps along the contiguous axis of a path-major m=1
    # array, where numpy adds pairwise rather than in sequence
    p = rsmp.make_benchmark("jump-lq")
    Mf, Nf = _BLOCK + 5, 32
    fine = rsmp.sample_noise(p, Mf, Nf, seed=6)
    coarse = fine.coarsen(factor)
    Nc = Nf // factor
    dW = np.ascontiguousarray(fine.dW).reshape(Mf, Nc, factor, p.m).sum(axis=2)
    counts = np.ascontiguousarray(fine.jump_counts).reshape(Mf, Nc, factor, p.jump.J).sum(axis=2)
    assert coarse.dW.tobytes() == dW.tobytes()
    assert coarse.jump_counts.dtype == counts.dtype and coarse.jump_counts.tobytes() == counts.tobytes()
    assert_step_major(coarse.dW, (Mf, Nc, p.m))
    assert_step_major(coarse.jump_counts, (Mf, Nc, p.jump.J))
    assert coarse.N == Nc and coarse.dt == fine.dt * factor
