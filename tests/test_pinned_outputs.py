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
PINNED_NUMERICS_VERSION = 6

# optimize(M=1500, N=8, K=5 (2 on nonconvex-mix), 4 cells per signal
# coordinate, uniform start, max_iters=4, tol=0, seed=3).to_json()
DIGESTS = {
    ("lq1d", "open_loop"): "dd706ecf794b27c5f6cdb55648439127de233b114a9999c5c15b860443071813",
    ("lq1d", "state_feedback"): "94a33feec11aa8f828cce1030c9dcebb89d66ff8b859224b84a5497b12fb33bb",
    ("lq1d", "observation_feedback"): "60d4ce902e7aeb6b2f2d9c78c5cd8695034d75eee96c038749cd30a738c407aa",
    ("lq2d", "open_loop"): "54f1336a6a18b772f8b3aa1b7e00c2ecde3daa4f558612680e95be1657516187",
    ("lq2d", "state_feedback"): "7d9dc71b722a4aa05d6ca65f803cbef14a5b210caa8f2b2f8f3a60f6e9718ac5",
    ("lq2d", "observation_feedback"): "4adbfd98e5ac518eec5fd56324086d78f42e179c1bb4f50218314fc0d3c8b654",
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
        "bench.json": "06c265de7422cc355cd18cb4d90708918bbc2f1bba3fa038a310af590e39db0f",
        "config.json": "8ded85a0e8fc1050fe015a4ef566641dfd3883eeca4c70ca0e43e61a39e4b09f",
    },
    "simulate": {
        "config.json": "384edf948d3d8b086a09cf35b7a7de318ef5109cff2384a6497f02490c544d4a",
        "cost.json": "c661d21e501d5760206133bf32dd2c95bdf4a3712b4e17161c5a11d4f74db769",
        "paths.bin": "a5965d0394c784c696b5df01576ad51eb048f45d12b7e44c56410eb6f118e17b",
        "paths.csv": "f01496e26111cc403a8f8c3ae9c796cca47603174684f1c319e339de43bb9509",
    },
    "adjoint": {
        "adjoint.bin": "56e3466b004e9320df7b3b9f3fe26a1c72c343b360344b2fa3a764924b99765b",
        "config.json": "a86a8bed31f44ebe7fa8bf5c223ced5b71e486927d8a5081bce6813b5467f3a8",
        "duality.json": "867760d2824c0f0fbc136932667702086d507f07494d86b5a917096ad2ced01a",
    },
    "optimize": {
        "config.json": "7aa2d0a3586bc444df8500156241ad684a2ad9904d3ca42d1e95888c4efdb248",
        "final_control.json": "e8c83bcc6b32336ddd91becc8be265f96d32c7d540b21904e6ea2d346b94fcba",
        "iterates.json": "089aeb6cbd8b19e29eff5ddff6b8d091bb6393575e91120496e38775077fb28a",
    },
    "certify": {
        "certify.json": "6de8c74029b5f942542aa6be1f9961692a03ed79c58ac153f72571af1863feab",
        "config.json": "cb3516153a5e3c06f9d6481d2dea4c9e85782aba1f0fdc2d2fae7b49ec5cfb66",
    },
    "chatter": {
        "chatter.json": "f415a4a7ce05560cca4e2a457a5b706f3d95c6041da0e8c9948b3baf89208314",
        "config.json": "b799711b2af76e1035fa33c6a7822ca1804e71c77f26516e3f6b9c8ce1fe9546",
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
