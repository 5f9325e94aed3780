"""The bits of 12 `optimize` results, pinned by the SHA-256 of their JSON,
and of every file one small run of each CLI command writes.

A change that reorders a sum, fuses a product or calls another BLAS routine
moves these digests; a change that keeps them keeps every result an older
configuration replays.  The bits depend on numpy and on the BLAS it calls,
so the digests are stored with the fingerprint of the stack that produced
them.  On another stack the `optimize` results are compared by value with
their stored JSON (`pinned_optimize.json`) instead, and so are the JSON
files of the CLI runs (`pinned_cli.json`, their text); the binary and CSV
files of the CLI runs are compared on the pinned stack only.  A change that
moves the bits on purpose bumps `rsmp.forward.NUMERICS_VERSION`, re-pins
them, the stored results and the version they were taken at in the same
diff, and says so.
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
PINNED_NUMERICS_VERSION = 7

# optimize(M=1500, N=8, K=5 (2 on nonconvex-mix), 4 cells per signal
# coordinate, uniform start, max_iters=4, tol=0, seed=3).to_json()
DIGESTS = {
    ("lq1d", "open_loop"): "2931ce478ad549a25bc89f85622ed9edcabb4966f080c27eadade2e9761a18d7",
    ("lq1d", "state_feedback"): "40e9fb119a46d697adf3828983da61e5ce564295c04449f6ccfdc1d013a572f2",
    ("lq1d", "observation_feedback"): "5ceb7d3fd1234227db60ddfa0fddb479879c9d1585a07271360c62175c0b9d36",
    ("lq2d", "open_loop"): "2c2e8998b5aa619e1a64ab138afd1c7b9682c4f4b44fe906268a45c94b615035",
    ("lq2d", "state_feedback"): "f5c414362bb7fcb387b2cbfbafa9cfe166d05c502ddda940a515b5a905cc3c36",
    ("lq2d", "observation_feedback"): "b2a73b5f0442eeb5c17a19e22bb1f5bbc4001bf44c87cca32f36b134fd20f118",
    ("nonconvex-mix", "open_loop"): "43df7effc39c19c5ef1e0651d42b9456c4345f2aeebf2eeb1ee735c65144bd6b",
    ("nonconvex-mix", "state_feedback"): "4d359ae0c9ae90085a296d6bbfe277ef171bb941a7c31d48c92541555c052c60",
    ("nonconvex-mix", "observation_feedback"): "229814d185e4dc5ae9356abc0c9e36dafff034c053645496665aa7487b907d68",
    ("jump-lq", "open_loop"): "70b6bd0a6e80e167c8cc5bccab29cef57a2265b39cad92817b77da830db20aa4",
    ("jump-lq", "state_feedback"): "ae601c0dd717c153d153cbdf5c4d36e91bf30b35582e7f7aa2a5f795923f6014",
    ("jump-lq", "observation_feedback"): "5527d0f9988e351e0cf95cdbb9b21d1b8593adbd1a5645775b6db2d342f78648",
}

# the same 12 results' JSON, keyed "<benchmark>/<mode>"
HERE = Path(__file__).resolve().parent
STORED = json.loads((HERE / "pinned_optimize.json").read_text(encoding="utf-8"))

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
        "bench.json": "6af74d16062d662a7813698aaca77b2d75fd9f595d2b7c0de9a3e0ff02f461d8",
        "config.json": "138f709e731a7eef03bd1b5aaa141245fe94b97f21fe15d732223661416d8537",
    },
    "simulate": {
        "config.json": "2509a9622039c3c95cdd944bd8afb20c9e4999a001f0477fbd4c0f0258ead819",
        "cost.json": "fc939410fe5509b188688b5bba101e1085a447dee258e41f0250f7a63a426c28",
        "paths.bin": "3cdffeb5e34c841308f0b4db947359d9ad27fa0881adc2e79db857b3c5e3b957",
        "paths.csv": "a50fe57b97c77ea3497aea54f17c2c64d4a1ce31350778ad59918b494be07fdf",
    },
    "adjoint": {
        "adjoint.bin": "5381e63e57df61a84e27c9671ad8531e7728c6448befaab0a1f34e01f0a34966",
        "config.json": "709566e40274c6a8494b2217fd0395dd49dd89ca516aac2a8bce786aaa8a516a",
        "duality.json": "031f3ed50233ffed4da295a3584758dc82ec8322e57472858b9111e43469fbd4",
    },
    "optimize": {
        "config.json": "8ce968d6e4558c2e2491904319d188d8d01543bdedba87b7b3c55f47e7b50fba",
        "final_control.json": "e8c83bcc6b32336ddd91becc8be265f96d32c7d540b21904e6ea2d346b94fcba",
        "iterates.json": "4ad621466e9cd68744a6784de96ecaf33c931b3c3e048f19cf5815b3cfcc0e28",
    },
    "certify": {
        "certify.json": "b93e4c21c4e8b6497b14d344ad3806c6c0df8308e4a9e6ee899633af380e23a1",
        "config.json": "22bde2d20f8dd89163b4a92cd9b194230ffe6872b3672ecdf05d861d934bd79f",
    },
    "chatter": {
        "chatter.json": "bdbb2c64fe1b1384333035f304eee6e3329db9766524ac7a2ed8aeaef686c7a9",
        "config.json": "a0c2b4a61dd547216944c531345dee3e67f87b48b8bc8aabc257c94299f4b22a",
    },
}

# the text of every JSON file of CLI_DIGESTS, keyed "<run>/<file>"
CLI_STORED = json.loads((HERE / "pinned_cli.json").read_text(encoding="utf-8"))


def assert_values_close(found, stored, where: str = "") -> None:
    """found has stored's structure and values: every float within RTOL
    relative, every other value equal."""
    assert type(found) is type(stored), where
    if isinstance(stored, dict):
        assert sorted(found) == sorted(stored), where
        for key in stored:
            assert_values_close(found[key], stored[key], f"{where}/{key}")
    elif isinstance(stored, list):
        assert len(found) == len(stored), where
        for i, (got, want) in enumerate(zip(found, stored)):
            assert_values_close(got, want, f"{where}[{i}]")
    elif isinstance(stored, float):
        assert math.isclose(found, stored, rel_tol=RTOL, abs_tol=0.0), where
    else:
        assert found == stored, where


def check_cli_run(run: str, tmp_path, monkeypatch) -> None:
    """One CLI run writes the pinned files: each with its digest on the
    pinned stack; on any other, each JSON file with its stored values
    within RTOL (the binary and CSV files are not compared there)."""
    monkeypatch.chdir(tmp_path)
    assert main([*CLI_RUNS[run], "--out", run]) == 0
    paths = sorted((tmp_path / run).iterdir())
    assert [path.name for path in paths] == sorted(CLI_DIGESTS[run])
    if fingerprint() == FINGERPRINT:
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths} == CLI_DIGESTS[run]
        return
    for path in (path for path in paths if path.suffix == ".json"):
        stored = json.loads(CLI_STORED[f"{run}/{path.name}"])
        assert_values_close(json.loads(path.read_text(encoding="utf-8")), stored, f"{run}/{path.name}")


@pytest.mark.parametrize("run", list(CLI_RUNS))
def test_cli_artifacts_keep_their_bits(run, tmp_path, monkeypatch):
    check_cli_run(run, tmp_path, monkeypatch)


@pytest.mark.parametrize("run", list(CLI_RUNS))
def test_another_stack_compares_the_stored_cli_values(run, tmp_path, monkeypatch):
    # the value comparison that another numpy, BLAS or machine runs
    monkeypatch.setattr(sys.modules[__name__], "fingerprint", lambda: {**FINGERPRINT, "blas": "another BLAS"})
    check_cli_run(run, tmp_path, monkeypatch)


def test_stored_cli_payloads_are_the_pinned_payloads():
    # the stored texts are re-pinned with the digests: each hashes to its digest
    pinned = {f"{run}/{name}": digest for run, files in CLI_DIGESTS.items() for name, digest in files.items()}
    assert set(CLI_STORED) == {key for key in pinned if key.endswith(".json")}
    for key, text in CLI_STORED.items():
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[key], key


def test_cli_value_comparison_sees_a_moved_value():
    stored = json.loads(CLI_STORED["adjoint/duality.json"])
    assert_values_close(json.loads(json.dumps(stored)), stored)
    moved = {"duality_gap": stored["duality_gap"] * (1 + 1e-8), "config": {**stored["config"], "seed": 4}}
    for key, value in moved.items():
        with pytest.raises(AssertionError):
            assert_values_close({**stored, key: value}, stored)
