"""Shared pytest hooks, fixtures and helpers: surface the acceptance
criterion verdicts, a problem whose diffusion depends on the state, lq1d
with scaled costs, the plain twin of a problem, and the per-path
Hamiltonian rows of the backward sweep's pairing."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import rsmp
from rsmp.problem import cell_hamiltonians

criterion_lines = []


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


def plain(f):
    """f, or for a `Separable` a plain callable of the same values, which
    every sweep evaluates at the atoms and averages or sums per atom."""
    return (lambda *args: f(*args)) if isinstance(f, rsmp.Separable) else f


def plain_twin(p):
    """p with each `Separable` of b, sigma, ell and C wrapped as `plain`."""
    changes = {key: plain(getattr(p, key)) for key in ("b", "sigma", "ell")}
    return dataclasses.replace(p, jump=dataclasses.replace(p.jump, C=plain(p.jump.C)), **changes)


def per_path_hamiltonians(p, grid, t, x, psi, Q, phi_row, checked=False):
    """`problem.cell_hamiltonians` with one cell per path: the (M, K)
    pathwise Hamiltonian at every atom, a `Separable` paired by its state
    part and its table."""
    M = len(x)
    ham, _ = cell_hamiltonians(p, grid, t, x, psi, Q, phi_row, lambda rows: np.stack(rows, axis=1), np.ones(M),
                               pairing=False, checked=checked)
    return ham


@pytest.fixture
def sigma_x_case():
    """A jump diffusion with sigma_x != 0, unlike every benchmark: n = m = 2,
    d = 1, b = A x + B xi, sigma = S0 + T.x + xi C1 (so sigma_x = T, a fixed
    random (2, 2, 2) tensor), two marks v with C = 0.3 x * v, running cost
    (|x|^2 + xi^2) / 2 and terminal cost x^T G x / 2, every gradient exact;
    on a 3-atom grid with a random open-loop control u0 of N = 6 steps."""
    rng = np.random.default_rng(0)
    n, N = 2, 6
    A, B = 0.3 * rng.standard_normal((n, n)), rng.standard_normal((n, 1))
    S0, C1 = 0.5 * np.eye(n) + 0.05 * rng.standard_normal((n, n)), 0.3 * rng.standard_normal((n, n))
    T = 0.25 * rng.standard_normal((n, n, n))
    G = np.array([[1.0, 0.3], [0.3, 0.8]])

    def lead(x, xi):
        return np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1])

    def b(t, x, xi):
        return x @ A.T + xi @ B.T

    def sigma(t, x, xi):
        return S0 + np.einsum("abl,...l->...ab", T, x) + xi[..., None] * C1

    def ell(t, x, xi):
        return 0.5 * (np.sum(x**2, axis=-1) + xi[..., 0] ** 2)

    def jump_c(t, x, v, xi):
        return 0.3 * x * v

    p = rsmp.Problem(
        n=n, m=n, d=1, T=1.0, x0=rsmp.GaussianInitial([0.5, -0.3], 0.2 * np.eye(n)), b=b, sigma=sigma, ell=ell,
        phi=lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, G, x), control_box=[[-1.0, 1.0]],
        b_x=lambda t, x, xi: np.broadcast_to(A, lead(x, xi) + (n, n)),
        sigma_x=lambda t, x, xi: np.broadcast_to(T, lead(x, xi) + T.shape),
        ell_x=lambda t, x, xi: np.broadcast_to(x, lead(x, xi) + (n,)),
        phi_x=lambda x: x @ G,
        jump=rsmp.JumpSpec([[0.5, -0.4], [-0.3, 0.6]], [1.0, 2.0], jump_c,
                           lambda t, x, v, xi: np.broadcast_to(0.3 * np.diag(v), lead(x, xi) + (n, n))),
    )
    grid = rsmp.ControlGrid([[-1.0], [0.0], [1.0]], [[-1.0, 1.0]])
    u0 = rsmp.RelaxedControl(grid, rng.dirichlet(np.ones(grid.K), (N, 1)))
    return SimpleNamespace(p=p, grid=grid, u0=u0)


@pytest.fixture
def scaled_cost_lq1d():
    """lq1d with ell, ell_x, phi and phi_x multiplied by a scale s, as
    problem(s), and the uniform state-feedback control u on 5 atoms and 8
    state cells over N = 8 steps."""
    base = rsmp.make_benchmark("lq1d")

    def problem(s):
        return dataclasses.replace(
            base,
            ell=lambda t, x, xi: s * base.ell(t, x, xi),
            ell_x=lambda t, x, xi: s * base.ell_x(t, x, xi),
            phi=lambda x: s * base.phi(x),
            phi_x=lambda x: s * base.phi_x(x),
        )

    grid = rsmp.benchmark_grid("lq1d", 5)
    part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=8)
    u = rsmp.RelaxedControl(grid, np.full((8, part.n_cells, grid.K), 1.0 / grid.K), rsmp.STATE_FEEDBACK, part)
    return SimpleNamespace(problem=problem, u=u)
