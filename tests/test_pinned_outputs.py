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
PINNED_NUMERICS_VERSION = 3

# optimize(M=1500, N=8, K=5 (2 on nonconvex-mix), 4 cells per signal
# coordinate, uniform start, max_iters=4, tol=0, seed=3).to_json()
DIGESTS = {
    ("lq1d", "open_loop"): "35e9e3bddbd40014ea9ccb5937a2f6e158daa3c1ebd1f56dca2843eddc1afc49",
    ("lq1d", "state_feedback"): "2c0842b8f1d1e347099c7f8aeb325b55f389015830bcedde20d292ad9f4df6e1",
    ("lq1d", "observation_feedback"): "b3b328af7d53e098080a8e814e3dfe4f0c24066a35375a4c77318965006d48af",
    ("lq2d", "open_loop"): "c3ea7ec3de40e1ee43b771a9e6db7037b31cc3f223fc1745258250af4cca897b",
    ("lq2d", "state_feedback"): "153e314ac5bc7f60442b3d881b2714126d8aab7140fae1455a89e573914e2d66",
    ("lq2d", "observation_feedback"): "d643a16d27f83d530b20dd5e74785d71aa367a2bebc22ed83157448cdce953da",
    ("nonconvex-mix", "open_loop"): "fe476f297ad83d14b692483c477f5376c5a2b6227d328bc6bc70182991c473f9",
    ("nonconvex-mix", "state_feedback"): "f16d6a0e7e2f4f25055c460dd4fb59e01288924732d2d8d33cd9b0a979450c25",
    ("nonconvex-mix", "observation_feedback"): "04e643366194fc5a3b30d4eb2c902fd610e97028cd2fcb8d0ea956e9d8725856",
    ("jump-lq", "open_loop"): "64fc20e91acdfd86655a0235d0636686812a0787de65d74e7d203baea555a195",
    ("jump-lq", "state_feedback"): "05afafc18b3d3da46ce86e3739b464bd6d9aa43460d4e55ce6035b44f1925bae",
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
        "bench.json": "0be3f62a84d6d9fbee3fb4813b9a108a465a968023597f20c16f94e552bd0c9c",
        "config.json": "853928c60d43a6b9a43b5e71cfeb7b8288fdabe109839c203851f99fceff437d",
    },
    "simulate": {
        "config.json": "422c2bba74d7de199c8beab5f4b6a56034c11d511cca54eae29dea980d0dc3b6",
        "cost.json": "de27628d082d5cf0f158032a9155c8916009de09fe5beb3440f043f8038edbac",
        "paths.bin": "b8290b7ccaf742bbd491099036a7b620518c2615b6aa0dcf2b24b1686cca796d",
        "paths.csv": "6f6567a04c300bf9390d5f42df0f736d77be640c6fedde1c288415bbfb288b17",
    },
    "adjoint": {
        "adjoint.bin": "f081008c6547e9b20b501b726f20753d93da418eae6ab9245cc096a244721e33",
        "config.json": "9950e78dcc6d5a59286db8f3011ecc7652d5fc1b81f6a843cfd5f58323b31993",
        "duality.json": "51a25b62b55d3554a0281619c1cb0a3684942dfef0b380a73ef1748a0fef24ca",
    },
    "optimize": {
        "config.json": "b3dfa4a3351cde262889648372d92e71acc24b68ba09c46d4f1b1de696fdb1ea",
        "final_control.json": "e8c83bcc6b32336ddd91becc8be265f96d32c7d540b21904e6ea2d346b94fcba",
        "iterates.json": "9c6932b70a579fbd39f638b7896f647d56965f7e90560962df326aedff4930eb",
    },
    "certify": {
        "certify.json": "9da421afe7dd40c02752954dfdbb9bf1344f454dcb875928a890b94b0c40f490",
        "config.json": "c2212259601520bf30b1c69678e18264bd7bf48c46c8c9e248d11ff5111ada39",
    },
    "chatter": {
        "chatter.json": "f43ef97a3ed0807e7e1b4234a20247048c2c457859f226edc04d0a97bb2ff0a1",
        "config.json": "f29a004f556fffd3becf1338cfa288699c10931e816139713c77cafcb5e4e6a9",
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
