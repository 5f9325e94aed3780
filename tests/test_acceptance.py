"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured quantities, then
asserts.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines
live.  Expensive objects (oracles, optimization runs) are module-scoped.
"""

import time

import numpy as np
import pytest

import conftest
import rsmp
from rsmp import RelaxedControl
from rsmp.cli import main as cli_main
from rsmp.forward import pathwise_cost
from rsmp.variation import response_functional

pytestmark = pytest.mark.acceptance

GATEAUX_INSTANCES = ("lq1d", "jump-lq")


def _report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    conftest.criterion_lines.append(line)
    assert ok, f"criterion {num}: {detail}"


def _random_interior(grid, N, rng, floor=0.1):
    w = rng.uniform(floor, 1.0, (N, 1, grid.K))
    w /= w.sum(axis=-1, keepdims=True)
    return RelaxedControl(grid, w)


def _make_field(cell_values, grid):
    from rsmp.smp import HamiltonianField

    cell_values = np.asarray(cell_values, dtype=float)
    N, C, _ = cell_values.shape
    return HamiltonianField(
        cell_values=cell_values,
        occupancy=np.ones((N, C), dtype=np.int64),
        control=RelaxedControl(grid, np.full(cell_values.shape, 1.0 / grid.K)),
        dt=0.25,
    )


@pytest.fixture(scope="module")
def riccati():
    return rsmp.lq_riccati_oracle(rsmp.benchmark_lq_spec("lq1d"), 2560)


@pytest.fixture(scope="module")
def lq_full_run(riccati):
    """Criterion 3 configuration: lq1d, N=64, M=20000, K=9, state feedback."""
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", 9)
    part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=16)
    N = 64
    u0 = RelaxedControl(grid, np.full((N, part.n_cells, grid.K), 1.0 / grid.K),
                        rsmp.STATE_FEEDBACK, part)
    params = rsmp.OptimizeParams(M=20_000, N=N, max_iters=40,
                                 tol=1e-3 * riccati.optimal_cost, seed=42)
    start = time.time()
    res = rsmp.optimize(p, u0, params)
    return res, time.time() - start


@pytest.fixture(scope="module")
def nonconvex_run():
    """Relaxed optimum of the two-atom benchmark from a one-hot start."""
    p = rsmp.make_benchmark("nonconvex-mix")
    grid = rsmp.benchmark_grid("nonconvex-mix")
    N = 8
    w = np.zeros((N, 1, 2))
    w[:, :, 1] = 1.0
    u_init = RelaxedControl(grid, w)
    params = rsmp.OptimizeParams(M=20_000, N=N, max_iters=30, tol=1e-4, seed=7)
    return rsmp.optimize(p, u_init, params)


def test_criterion_1_gateaux_matches_finite_differences():
    start = time.time()
    worst = 0.0
    for name in GATEAUX_INSTANCES:
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 9)
        N, M = 64, 20_000
        rng = np.random.default_rng(101)
        u0 = _random_interior(grid, N, rng)
        noise = rsmp.sample_noise(p, M, N, seed=11)
        base = rsmp.simulate(p, u0, noise)
        eps = 1e-3
        for _ in range(20):
            u1 = _random_interior(grid, N, rng)
            var = rsmp.simulate_variational(p, base, u1, u0)
            got = rsmp.gateaux(p, base, var, u1, u0)
            step = u1.weights - u0.weights
            up = RelaxedControl(grid, u0.weights + eps * step)
            dn = RelaxedControl(grid, u0.weights - eps * step)
            fd = (pathwise_cost(p, rsmp.simulate(p, up, noise)).mean()
                  - pathwise_cost(p, rsmp.simulate(p, dn, noise)).mean()) / (2 * eps)
            worst = max(worst, abs(got - fd) / (abs(fd) + 1e-8))
    elapsed = time.time() - start
    ok = worst <= 5e-3 and elapsed <= 120
    _report(1, ok, f"max relative gateaux-vs-FD error {worst:.2e} "
                   f"(tol 5e-3) over 20 directions x {GATEAUX_INSTANCES}, {elapsed:.0f}s (cap 120s)")


def test_criterion_2_riesz_duality_identity():
    start = time.time()
    worst = 0.0
    for name in GATEAUX_INSTANCES:
        p = rsmp.make_benchmark(name)
        grid = rsmp.benchmark_grid(name, 9)
        N, M = 64, 50_000
        rng = np.random.default_rng(202)
        u0 = _random_interior(grid, N, rng)
        noise = rsmp.sample_noise(p, M, N, seed=22)
        base = rsmp.simulate(p, u0, noise)
        adj = rsmp.solve_bsde(p, base, u0)
        for _ in range(5):
            u1 = _random_interior(grid, N, rng)
            var = rsmp.simulate_variational(p, base, u1, u0)
            L = response_functional(p, base, u0, var)
            gap = rsmp.duality_gap(adj, var)
            worst = max(worst, gap / (abs(L) + 1e-6))
    elapsed = time.time() - start
    ok = worst <= 5e-3 and elapsed <= 300
    _report(2, ok, f"max relative duality gap {worst:.2e} (tol 5e-3) at M=50000, "
                   f"{elapsed:.0f}s (cap 300s)")


def test_criterion_3_lq_optimality(lq_full_run, riccati):
    res, elapsed = lq_full_run
    final = res.iterates[-1]
    rel_excess = (final.cost - riccati.optimal_cost) / riccati.optimal_cost
    gap_ok = final.smp_gap <= 1e-3 * abs(final.cost)
    ok = abs(rel_excess) <= 0.015 and gap_ok and elapsed <= 600
    _report(3, ok, f"cost {final.cost:.5f} vs Riccati {riccati.optimal_cost:.5f} "
                   f"({rel_excess * 100:+.2f}%, tol 1.5%), smp gap {final.smp_gap:.2e} "
                   f"<= 1e-3|J|={1e-3 * abs(final.cost):.2e}: {gap_ok}, {elapsed:.0f}s (cap 600s)")


def test_criterion_4_adjoint_matches_riccati(riccati):
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", 9)
    part = rsmp.benchmark_partition("lq1d", rsmp.STATE_FEEDBACK, cells=16)
    N, M = 64, 50_000
    atoms = grid.points[:, 0]
    centers = part.centers()[:, 0]
    dt = p.T / N
    # project the oracle feedback on the cells, mixing adjacent atoms so the
    # averaged drift reproduces the feedback exactly at the cell centers
    w = np.zeros((N, part.n_cells, grid.K))
    for k in range(N):
        gain = riccati.gain_at(k * dt)[0, 0]
        for c, xc in enumerate(centers):
            target = float(np.clip(-gain * xc, atoms[0], atoms[-1]))
            j = int(np.clip(np.searchsorted(atoms, target) - 1, 0, grid.K - 2))
            lam = (target - atoms[j]) / (atoms[j + 1] - atoms[j])
            w[k, c, j] = 1.0 - lam
            w[k, c, j + 1] = lam
    u = RelaxedControl(grid, w, rsmp.STATE_FEEDBACK, part)
    base = rsmp.simulate(p, u, rsmp.sample_noise(p, M, N, seed=99))
    adj = rsmp.solve_bsde(p, base, u)
    err2 = ref2 = 0.0
    for k in range(N + 1):
        target = 2.0 * riccati.P_at(k * dt)[0, 0] * base.states[:, k, 0]
        err2 += float(((adj.psi[:, k, 0] - target) ** 2).sum())
        ref2 += float((target ** 2).sum())
    rel = float(np.sqrt(err2 / ref2))
    _report(4, rel <= 0.02, f"psi vs 2P(t)x relative L2 error {rel * 100:.3f}% (tol 2%) at M=50000")


def test_criterion_5_relaxation_beats_regular(nonconvex_run):
    p = rsmp.make_benchmark("nonconvex-mix")
    grid = rsmp.benchmark_grid("nonconvex-mix")
    M, N = 20_000, 8
    noise = rsmp.sample_noise(p, M, N, seed=7)
    best_regular, profile = rsmp.best_regular_open_loop(p, grid, noise)
    relaxed = pathwise_cost(p, rsmp.simulate(p, nonconvex_run.final_control, noise))
    diff = best_regular - relaxed
    margin = float(diff.mean())
    se = float(diff.std(ddof=1) / np.sqrt(M))
    # the optimizer should also land near the balanced oracle profile
    _, oracle_profile = rsmp.nonconvex_weight_oracle(N=N)
    w_final = nonconvex_run.final_control.weights[:, 0, 1]
    interior_ok = bool(np.all(np.abs(w_final[:-1] - oracle_profile[:-1]) <= 0.1))
    ok = margin > 3 * se and interior_ok
    _report(5, ok, f"relaxed beats best one-hot profile {profile.tolist()} by {margin:.5f} "
                   f"(3 se = {3 * se:.5f}); final weights within 0.1 of the "
                   f"balanced profile: {interior_ok}")


def test_criterion_6_chattering_realization(nonconvex_run):
    p = rsmp.make_benchmark("nonconvex-mix")
    u_star = nonconvex_run.final_control
    refinement = 16
    Nf = u_star.time_steps * refinement
    noise = rsmp.sample_noise(p, 20_000, Nf, seed=13)
    relaxed = pathwise_cost(p, rsmp.simulate(p, rsmp.refine_steps(u_star, refinement), noise))
    excesses = []
    for R in (2, 4, 8, 16):
        reg = rsmp.realize_regular(u_star, R)
        costs = pathwise_cost(p, rsmp.simulate(p, reg, noise))
        excesses.append(float(costs.mean() - relaxed.mean()))
    non_increasing = all(a >= b - 1e-12 for a, b in zip(excesses, excesses[1:]))
    final_ok = excesses[-1] <= 0.05 * abs(float(relaxed.mean()))
    ok = non_increasing and final_ok
    _report(6, ok, f"chattering excess over R=(2,4,8,16): "
                   f"{[f'{e:.5f}' for e in excesses]} non-increasing: {non_increasing}, "
                   f"R=16 excess <= 5% of |J|={abs(float(relaxed.mean())):.5f}: {final_ok}")


def test_criterion_7_jump_machinery():
    # q-martingale property: compensated pure-jump integral has mean ~ 0
    c, lam = 0.7, 3.0
    jump = rsmp.JumpSpec(np.array([[1.0]]), np.array([lam]),
                         C=lambda t, x, v, xi: np.full(np.shape(x), c))

    def zero_b(t, x, xi):
        return np.zeros(np.shape(x))

    def zero_sigma(t, x, xi):
        return np.zeros(np.shape(x)[:-1] + (1, 1))

    def zero_ell(t, x, xi):
        return np.zeros(np.shape(x)[:-1])

    def zero_phi(x):
        return np.zeros(np.shape(x)[:-1])

    M = 50_000
    p1 = rsmp.Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.0]), b=zero_b, sigma=zero_sigma,
                      ell=zero_ell, phi=zero_phi, control_box=[[-1.0, 1.0]], jump=jump)
    grid = rsmp.ControlGrid([[0.0]], p1.control_box)
    u = rsmp.constant_control(grid, 64)
    paths = rsmp.simulate(p1, u, rsmp.sample_noise(p1, M, 64, seed=17))
    drift = paths.states[:, -1, 0] - paths.states[:, 0, 0]
    bound = 4 * c * np.sqrt(lam * p1.T / M)
    mean_ok = abs(float(drift.mean())) <= bound

    # linear-terminal-gradient jump problem: phi is constant per mark
    a = 0.5
    marks = np.array([[0.4], [-0.25]])
    rates = np.array([2.0, 1.5])
    jump2 = rsmp.JumpSpec(marks, rates,
                          C=lambda t, x, v, xi: np.broadcast_to(v, np.shape(x)),
                          C_x=lambda t, x, v, xi: np.zeros(np.shape(x)[:-1] + (1, 1)))

    def quad_phi(x):
        x = np.asarray(x)
        return a * np.einsum("...i,...i->...", x, x)

    def quad_phi_x(x):
        return 2.0 * a * np.asarray(x)

    p2 = rsmp.Problem(n=1, m=1, d=1, T=1.0, x0=np.array([0.3]), b=zero_b, sigma=zero_sigma,
                      ell=zero_ell, phi=quad_phi, control_box=[[-1.0, 1.0]], jump=jump2,
                      phi_x=quad_phi_x)
    base = rsmp.simulate(p2, rsmp.constant_control(grid, 64), rsmp.sample_noise(p2, M, 64, seed=18))
    adj = rsmp.solve_bsde(p2, base, rsmp.constant_control(grid, 64))
    phi_hat = adj.phi.mean(axis=(0, 1))[:, 0]
    expected = 2.0 * a * marks[:, 0]
    rel = float(np.abs(phi_hat - expected).max() / np.abs(expected).min())
    phi_ok = rel <= 0.02
    ok = mean_ok and phi_ok
    _report(7, ok, f"compensated mean {float(drift.mean()):+.5f} within {bound:.5f}: {mean_ok}; "
                   f"phi {phi_hat.tolist()} vs closed form {expected.tolist()} "
                   f"max rel err {rel * 100:.2f}% (tol 2%): {phi_ok}")


def test_criterion_8_invariant_suites(tmp_path):
    rng = np.random.default_rng(808)
    grid = rsmp.benchmark_grid("lq1d", 5)
    checks = {}

    # simplex validity after mixing and argmin extremality
    mix_exact = True
    simplex_ok = True
    for _ in range(100):
        wa = rng.uniform(0.01, 1.0, (6, 1, 5))
        wa /= wa.sum(-1, keepdims=True)
        wb = rng.uniform(0.01, 1.0, (6, 1, 5))
        wb /= wb.sum(-1, keepdims=True)
        eps = float(rng.uniform())
        mixed = rsmp.mix(RelaxedControl(grid, wa), RelaxedControl(grid, wb), eps)
        mix_exact &= bool(np.array_equal(mixed.weights, (1 - eps) * wa + eps * wb))
        simplex_ok &= rsmp.validate(mixed).ok
    checks["mixing identity"] = mix_exact
    checks["simplex validity"] = simplex_ok

    # Hamiltonian affinity in the measure
    p = rsmp.make_benchmark("lq1d")
    x = rng.standard_normal((20, 1))
    psi = rng.standard_normal((20, 1))
    Q = rng.standard_normal((20, 1, 1))
    affine = True
    for _ in range(50):
        w1 = rng.uniform(0.01, 1.0, 5)
        w1 /= w1.sum()
        w2 = rng.uniform(0.01, 1.0, 5)
        w2 /= w2.sum()
        eps = float(rng.uniform())
        lhs = rsmp.hamiltonian(p, grid, 0.5, x, psi, Q, None, (1 - eps) * w1 + eps * w2)
        rhs = (1 - eps) * rsmp.hamiltonian(p, grid, 0.5, x, psi, Q, None, w1) \
            + eps * rsmp.hamiltonian(p, grid, 0.5, x, psi, Q, None, w2)
        affine &= bool(np.abs(lhs - rhs).max() <= 1e-12)
    checks["hamiltonian affinity"] = affine

    # argmin extremality, gap nonnegativity, exact zero at the argmin
    extremal = nonneg = zero_at_argmin = True
    for _ in range(50):
        field = _make_field(rng.standard_normal((4, 1, 5)), grid)
        cand = rsmp.pointwise_argmin(field)
        extremal &= bool(np.all((cand.weights == 0) | (cand.weights == 1)))
        gap0, per0 = rsmp.smp_gap(field, cand)
        zero_at_argmin &= gap0 == 0.0 and bool(np.all(per0 == 0.0))
        wr = rng.uniform(0.01, 1.0, (4, 1, 5))
        wr /= wr.sum(-1, keepdims=True)
        gap, per = rsmp.smp_gap(field, RelaxedControl(grid, wr))
        nonneg &= gap >= 0.0 and bool(np.all(per >= 0.0))
    checks["argmin extremality"] = extremal
    checks["smp gap nonnegative"] = nonneg
    checks["smp gap zero at argmin"] = zero_at_argmin

    # terminal condition exactness
    u = rsmp.constant_control(grid, 8)
    base = rsmp.simulate(p, u, rsmp.sample_noise(p, 300, 8, seed=5))
    adj = rsmp.solve_bsde(p, base, u)
    checks["terminal exactness"] = bool(
        np.abs(adj.psi[:, -1] - p.phi_x(base.states[:, -1])).max() == 0.0
    )

    # replay determinism through the CLI artifacts
    out = tmp_path / "replay"
    args = ["simulate", "--bench", "lq1d", "--M", "100", "--N", "8", "--seed", "3",
            "--format", "csv,bin", "--out", str(out)]
    cli_main(args)
    with open(out / "paths.csv", "rb") as fh:
        first = fh.read()
    cli_main(["simulate", "--config", str(out / "config.json")])
    with open(out / "paths.csv", "rb") as fh:
        second = fh.read()
    checks["replay determinism"] = first == second

    ok = all(checks.values())
    detail = ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
    _report(8, ok, detail)


def test_criterion_9_partial_information(lq_full_run, riccati):
    p = rsmp.make_benchmark("lq1d")
    grid = rsmp.benchmark_grid("lq1d", 9)
    part = rsmp.benchmark_partition("lq1d", rsmp.OBSERVATION_FEEDBACK, cells=2)
    N = 64
    u0 = RelaxedControl(grid, np.full((N, 2, grid.K), 1.0 / grid.K),
                        rsmp.OBSERVATION_FEEDBACK, part)
    params = rsmp.OptimizeParams(M=20_000, N=N, max_iters=40,
                                 tol=1e-3 * riccati.optimal_cost, seed=42)
    res = rsmp.optimize(p, u0, params)
    final = res.iterates[-1]
    gap_ok = final.smp_gap <= 1e-3 * abs(final.cost)
    full_final = lq_full_run[0].iterates[-1]
    mono_ok = final.cost >= full_final.cost - 2 * final.std_error
    ok = gap_ok and mono_ok
    _report(9, ok, f"partial-info cost {final.cost:.5f} gap {final.smp_gap:.2e} "
                   f"<= 1e-3|J|: {gap_ok}; >= full-info cost {full_final.cost:.5f} - 2se: {mono_ok}")
