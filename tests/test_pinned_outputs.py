"""The bits of 12 `optimize` results, pinned by the SHA-256 of their JSON,
and of every file one small run of each CLI command writes.

A change that reorders a sum, fuses a product or calls another BLAS routine
moves these digests; a change that keeps them keeps every result an older
configuration replays.  The bits depend on numpy and on the BLAS it calls,
so the digests are stored with the fingerprint of the stack that produced
them.  On another stack the CLI checks skip, and the `optimize` results are
compared by value with their stored JSON (`pinned_optimize.json`) instead.
A change that moves the bits on purpose bumps
`rsmp.forward.NUMERICS_VERSION`, re-pins them, the stored results and the
version they were taken at in the same diff, and says so.
"""

import functools
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import rsmp
from rsmp.cli import main
from rsmp.forward import NUMERICS_VERSION

MODES = (rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK)

FINGERPRINT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "machine": "x86_64"}
# the rsmp NUMERICS_VERSION the digests below were taken at
PINNED_NUMERICS_VERSION = 4

# optimize(M=1500, N=8, K=5 (2 on nonconvex-mix), 4 cells per signal
# coordinate, uniform start, max_iters=4, tol=0, seed=3).to_json()
DIGESTS = {
    ("lq1d", "open_loop"): "dd706ecf794b27c5f6cdb55648439127de233b114a9999c5c15b860443071813",
    ("lq1d", "state_feedback"): "5a870bdb8a33afb5f9f6d8e09c72f9d79d1ead98c57bd40886e3c85efeb6d9db",
    ("lq1d", "observation_feedback"): "b328329ddb3a9db9a7763c29c67fb556b306bff4fdfe0efce7f5ff32d00a8044",
    ("lq2d", "open_loop"): "018454a3cd458eba9e6ce8092feab38eb1546cc50a1cbfe01f8760a244870db4",
    ("lq2d", "state_feedback"): "f1b6fcd66ebceb635cd345c0416f9a83db022404de5b2a9557f0de5ae6d5bafa",
    ("lq2d", "observation_feedback"): "e29b7ca153d7a517ab333010fc254150e52625769fd6a4bfc2523a2af041ee23",
    ("nonconvex-mix", "open_loop"): "fe476f297ad83d14b692483c477f5376c5a2b6227d328bc6bc70182991c473f9",
    ("nonconvex-mix", "state_feedback"): "f16d6a0e7e2f4f25055c460dd4fb59e01288924732d2d8d33cd9b0a979450c25",
    ("nonconvex-mix", "observation_feedback"): "04e643366194fc5a3b30d4eb2c902fd610e97028cd2fcb8d0ea956e9d8725856",
    ("jump-lq", "open_loop"): "efff2cd389d1e496beebbe258e7497edcd3eb592d9c181b3e4868506513e53ac",
    ("jump-lq", "state_feedback"): "d03bb485b88c20bf6ec9398cd5860b687af08e86c0e87b35056bbef3e7b37085",
    ("jump-lq", "observation_feedback"): "3424b8c63545ed1529e9313481cc50e2d9b2fbe47fb11586af3579de30e9b302",
}

# the same 12 results' JSON, keyed "<benchmark>/<mode>"
STORED = json.loads((Path(__file__).resolve().parent / "pinned_optimize.json").read_text(encoding="utf-8"))

# On another stack the sums and solves round differently: statuses, step
# sizes and final controls must still be equal, and costs, standard errors
# and SMP gaps must agree within RTOL relative.  Changes of summation order
# moved them by at most 6e-13 relative; a change of method moves them at
# the Monte Carlo scale, about 1e-3.
RTOL = 1e-9


def fingerprint() -> dict | None:
    """numpy's version, the name and version of its BLAS, and the machine;
    None for a numpy that does not report its build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine()}


@functools.cache
def optimized(name: str, mode: str) -> str:
    """The JSON of one pinned `optimize` run, computed once per session."""
    p, grid = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 5)
    part = rsmp.benchmark_partition(name, mode, cells=4)
    C = 1 if part is None else part.n_cells
    u0 = rsmp.RelaxedControl(grid, np.full((8, C, grid.K), 1.0 / grid.K), mode, part)
    return rsmp.optimize(p, u0, rsmp.OptimizeParams(M=1500, N=8, max_iters=4, tol=0.0, seed=3)).to_json()


def assert_matches_stored(found: dict, stored: dict) -> None:
    """found agrees with the stored result: equal status, iterations, step
    sizes and final control, costs, standard errors and SMP gaps within RTOL."""
    assert found["status"] == stored["status"]
    assert found["final_control"] == stored["final_control"]
    assert [(it["iteration"], it["step_size"]) for it in found["iterates"]] == [
        (it["iteration"], it["step_size"]) for it in stored["iterates"]
    ]
    for got, want in zip(found["iterates"], stored["iterates"]):
        for key in ("cost", "std_error", "smp_gap"):
            assert math.isclose(got[key], want[key], rel_tol=RTOL, abs_tol=0.0), (got["iteration"], key)


def check_optimize_result(name: str, mode: str) -> None:
    """The pinned run keeps its digest on the pinned stack, and its stored
    values within RTOL on any other."""
    payload = optimized(name, mode)
    if fingerprint() == FINGERPRINT:
        assert hashlib.sha256(payload.encode()).hexdigest() == DIGESTS[name, mode]
    else:
        assert_matches_stored(json.loads(payload), STORED[f"{name}/{mode}"])


@pytest.mark.parametrize("name, mode", list(DIGESTS))
def test_optimize_result_keeps_its_bits(name, mode):
    check_optimize_result(name, mode)


@pytest.mark.parametrize("name, mode", list(DIGESTS))
def test_another_stack_compares_the_stored_values(name, mode, monkeypatch):
    # the value comparison that another numpy, BLAS or machine runs
    monkeypatch.setattr(sys.modules[__name__], "fingerprint", lambda: {**FINGERPRINT, "blas": "another BLAS"})
    check_optimize_result(name, mode)


def test_stored_results_are_the_pinned_results():
    # the stored JSON is re-pinned with the digests: each hashes to its digest
    assert set(STORED) == {f"{name}/{mode}" for name, mode in DIGESTS}
    for (name, mode), digest in DIGESTS.items():
        text = json.dumps(STORED[f"{name}/{mode}"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_value_comparison_sees_a_moved_value():
    stored = STORED["lq1d/state_feedback"]
    assert_matches_stored(json.loads(json.dumps(stored)), stored)
    for key, scale in (("cost", 1 + 1e-8), ("smp_gap", 1 + 1e-8), ("step_size", 1 + 1e-15)):
        moved = json.loads(json.dumps(stored))
        moved["iterates"][0][key] *= scale
        with pytest.raises(AssertionError):
            assert_matches_stored(moved, stored)
    moved = json.loads(json.dumps(stored))
    moved["status"] = "stalled"
    with pytest.raises(AssertionError):
        assert_matches_stored(moved, stored)


def test_digests_were_taken_at_this_numerics_version():
    # a change that moves pinned bits bumps NUMERICS_VERSION and re-pins in
    # the same diff: a re-pin without the bump fails here, and so does a
    # bump without a re-pin
    assert PINNED_NUMERICS_VERSION == NUMERICS_VERSION


def test_digests_cover_every_benchmark_and_mode():
    assert set(DIGESTS) == {(name, mode) for name in rsmp.BENCHMARK_NAMES for mode in MODES}


# One small run per CLI command, each writing into its own --out directory,
# named relatively so that the artifacts that record the configuration do
# not depend on where the test runs.
SMALL = ["--M", "200", "--N", "8", "--K", "5", "--seed", "3"]
CLI_RUNS = {
    "describe": ["describe", "--bench", "jump-lq"],
    "simulate": ["simulate", "--bench", "jump-lq", "--mode", "state", "--format", "csv,json,bin", *SMALL],
    "adjoint": ["adjoint", "--bench", "jump-lq", "--mode", "obs", "--format", "bin", *SMALL],
    "optimize": ["optimize", "--bench", "lq1d", "--mode", "state", "--max-iters", "3", "--tol", "0", *SMALL],
    "certify": ["certify", "--bench", "lq2d", "--mode", "open", *SMALL],
    "chatter": ["chatter", "--bench", "nonconvex-mix", "--mode", "open", "--R", "4", *SMALL],
}

# the SHA-256 of every file each run of CLI_RUNS writes
CLI_DIGESTS = {
    "describe": {
        "bench.json": "d3b2f39e606c008845f9e4ee9bdb80860cdb8d07d8d915ed122d7f8692c890d7",
        "config.json": "f418b6c600e0b1f7c3bad4be3ec0b175f98ad386ad641cac83c973ae1d564ac1",
    },
    "simulate": {
        "config.json": "31ac1dbab1fc21221690ec60cf12917b97d98b9f4b571106180186c670e57ba7",
        "cost.json": "d196fd4bf64ea3519bcab8366e46ac81a40ac6ceb0574ce8bf00c93f94bb86a5",
        "paths.bin": "2b7bf72ff79249101b5e6287e64baff56d325c7d5f55e2666ab532c73cef2b35",
        "paths.csv": "6f6567a04c300bf9390d5f42df0f736d77be640c6fedde1c288415bbfb288b17",
    },
    "adjoint": {
        "adjoint.bin": "e6032247e007dc67e47b8a450416ad940370ef4a9734a276b337d92d6ffd53dd",
        "config.json": "7953f89894e97e3ed88e4336005d1948e7c6acca841c6fa898a1cf434503c5b5",
        "duality.json": "2d1f2b4b20411109d5ba548c678843dbe263035f59ef83ad71f84e1eeb4155d0",
    },
    "optimize": {
        "config.json": "e10145e774a2d2fe2ee555b4b2d7717224bb3dfd18eb729056761c877ab4a154",
        "final_control.json": "e8c83bcc6b32336ddd91becc8be265f96d32c7d540b21904e6ea2d346b94fcba",
        "iterates.json": "312d7d12eb6789de2856ed962b3f5c47cfe7988500ba9e6bc8c699c1ada8c7a3",
    },
    "certify": {
        "certify.json": "138435e9e162b63a3f3fd9a98e7706ac65a61a7b89d34d7f6fc66b0997134af9",
        "config.json": "8e56000a7c4cec9de41f51dcff4376d96d1392a201dced5341af85c570d480dd",
    },
    "chatter": {
        "chatter.json": "28f90654e32bd463b39897abda674b8290cbb2db7763f0d3ee6b8183c82dc071",
        "config.json": "5bf3ce0a61e6055e2fb89cc9d926935d8095c545d608e1ed047d0b7aa724ee5d",
    },
}


@pytest.mark.parametrize("run", list(CLI_RUNS))
def test_cli_artifacts_keep_their_bits(run, tmp_path, monkeypatch):
    found = fingerprint()
    if found != FINGERPRINT:
        pytest.skip(f"digests pinned on {FINGERPRINT}, this stack is {found}")
    monkeypatch.chdir(tmp_path)
    assert main([*CLI_RUNS[run], "--out", run]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted((tmp_path / run).iterdir())}
    assert written == CLI_DIGESTS[run]
