"""A diffusion is a jump diffusion with zero marks.

A problem built with jump=None holds the JumpSpec with J = 0 marks, and the
records downstream carry jump arrays of width 0: the noise's (M, N, 0)
counts and the adjoint's (M, N, 0, n) jump intensity.  The files written for
a diffusion hold neither array, as before.
"""

import dataclasses

import numpy as np
import pytest

import rsmp
from rsmp import DomainError, JumpSpec, ShapeMismatch
from rsmp.container import adjoint_to_binary, paths_to_binary, read_section
from rsmp.forward import _BLOCK
from rsmp.problem import fd_gradient

M, N, K, CELLS = 400, 6, 5, 4
MODES = (rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK)


def controls(name, mode, count, seed):
    grid = rsmp.benchmark_grid(name, K)  # nonconvex-mix keeps its two atoms
    part = None if mode == rsmp.OPEN_LOOP else rsmp.benchmark_partition(name, mode, cells=CELLS)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.uniform(0.1, 1.0, (N, 1 if part is None else part.n_cells, grid.K))
        out.append(rsmp.RelaxedControl(grid, w / w.sum(axis=-1, keepdims=True), mode, part))
    return out


def sweeps(p, u0, u):
    base = rsmp.simulate(p, u0, rsmp.sample_noise(p, M, N, seed=8))
    adj = rsmp.solve_bsde(p, base, u0)
    var = rsmp.simulate_variational(p, base, u, u0)
    return base, adj, rsmp.gateaux(p, base, var, u, u0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["lq1d", "lq2d", "nonconvex-mix"])
def test_no_jumps_and_the_empty_spec_give_the_same_bits(name, mode):
    p = rsmp.make_benchmark(name)
    none = dataclasses.replace(p, jump=None)
    empty = dataclasses.replace(p, jump=JumpSpec(np.zeros((0, p.n)), np.zeros(0), None))
    assert none.jump.J == empty.jump.J == 0
    u0, u = controls(name, mode, 2, seed=9)
    (base_a, adj_a, gat_a), (base_b, adj_b, gat_b) = sweeps(none, u0, u), sweeps(empty, u0, u)
    assert np.array_equal(base_a.states, base_b.states)
    for field in ("psi", "phi", "hamiltonian_sums", "pairing_sums"):
        assert np.array_equal(getattr(adj_a, field), getattr(adj_b, field)), field
    assert gat_a == gat_b


def test_diffusion_records_carry_width_zero_jump_arrays():
    p = rsmp.make_benchmark("lq2d")
    noise = rsmp.sample_noise(p, _BLOCK + 3, N, seed=1)  # two path blocks
    for counts, steps in ((noise.jump_counts, N), (noise.coarsen(2).jump_counts, N // 2)):
        assert counts.shape == (_BLOCK + 3, steps, 0) and counts.dtype == np.int64
        assert not counts.flags.writeable
        assert all(counts[:, k].flags.c_contiguous for k in range(steps))
    (u0,) = controls("lq2d", rsmp.STATE_FEEDBACK, 1, seed=2)
    adj = rsmp.solve_bsde(p, rsmp.simulate(p, u0, rsmp.sample_noise(p, M, N, seed=3)), u0)
    assert adj.phi.shape == (M, N, 0, p.n) and not adj.phi.flags.writeable


def test_noise_of_another_jump_width_is_refused():
    diffusion, jumps = rsmp.make_benchmark("lq1d"), rsmp.make_benchmark("jump-lq")
    u = rsmp.constant_control(rsmp.benchmark_grid("lq1d", 3), N)
    for p, q in ((diffusion, jumps), (jumps, diffusion)):
        with pytest.raises(ShapeMismatch, match="jump counts"):
            rsmp.simulate(p, u, rsmp.sample_noise(q, 10, N, seed=4))


def jump_c(t, x, v, xi):
    return x * v


def test_jump_spec_with_marks_needs_its_coefficient():
    with pytest.raises(DomainError, match="jump coefficient C"):
        JumpSpec([[1.0]], [2.0], None)
    empty = JumpSpec(np.zeros((0, 1)), np.zeros(0), None)
    assert empty.J == 0 and empty.intensities.sum() == 0.0


def test_jump_spec_fills_its_gradient():
    spec = JumpSpec([[0.5]], [2.0], jump_c)
    x, v, xi = np.array([[2.0], [-1.0]]), np.array([0.5]), np.array([0.0])
    assert np.array_equal(spec.C_x(0.0, x, v, xi), fd_gradient(jump_c)(0.0, x, v, xi))
    assert np.allclose(spec.C_x(0.0, x, v, xi), 0.5)
    given = JumpSpec([[0.5]], [2.0], jump_c, fd_gradient(jump_c))
    assert dataclasses.replace(given, C=jump_c).C_x is given.C_x


@pytest.mark.parametrize("name", ["lq1d", "jump-lq"])
def test_files_hold_jump_arrays_only_with_marks(name, tmp_path):
    p = rsmp.make_benchmark(name)
    (u0,) = controls(name, rsmp.OPEN_LOOP, 1, seed=5)
    base = rsmp.simulate(p, u0, rsmp.sample_noise(p, 50, N, seed=6))
    paths_to_binary(base, str(tmp_path / "paths.bin"))
    adjoint_to_binary(rsmp.solve_bsde(p, base, u0), str(tmp_path / "adjoint.bin"))
    _, _, path_arrays = read_section(str(tmp_path / "paths.bin"))
    _, meta, adj_arrays = read_section(str(tmp_path / "adjoint.bin"))
    has_jumps = p.jump.J > 0
    assert ("jump_counts" in path_arrays) == has_jumps
    assert ("phi" in adj_arrays) == ("J" in meta) == has_jumps
