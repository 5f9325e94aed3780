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
PINNED_NUMERICS_VERSION = 8

# optimize(M=1500, N=8, K=5 (2 on nonconvex-mix), 4 cells per signal
# coordinate, uniform start, max_iters=4, tol=0, seed=3).to_json()
DIGESTS = {
    ("lq1d", "open_loop"): "119feaeb7a1e951b2b2bc883d0ee524695589487fb40134e46445732f56bffd5",
    ("lq1d", "state_feedback"): "6f9440274492891218e6bf2b4f3b816eb756d9154d849ca247ad71652cf380a1",
    ("lq1d", "observation_feedback"): "cf1079932e1ae2f77773aa696c085044dcf90bb3efd000cec042b5c341cc08e0",
    ("lq2d", "open_loop"): "c6e7d6d84e0ed10b142ca3dfce2e6e8740319b78c524b04e6061b29118407a8d",
    ("lq2d", "state_feedback"): "b890ac0e42fb1ceaf87171482277eb37497eaab5dfe40a51f602e0d7320b125a",
    ("lq2d", "observation_feedback"): "fb1ca64a9469563cf1b6e65e719ce0b872365be6cf5370ff3a40459f6b3fb271",
    ("nonconvex-mix", "open_loop"): "c4138b15f99195a40d3349b1e2feb2e3b921bce8594fc7a49cb88d858e790b2e",
    ("nonconvex-mix", "state_feedback"): "52434627ba2d0d135eecf3342c42f06d72f6ddf350e848244b4a00fcddfe240d",
    ("nonconvex-mix", "observation_feedback"): "cfd1c6e987939e0905f738df70dd875b246044e4c74018e7d800d30060c7b1bc",
    ("jump-lq", "open_loop"): "c19b4e82a15ec38fd8e31f3fd1ecc7cca81da4ed64e847b76f6d7b8d19e20fa7",
    ("jump-lq", "state_feedback"): "ab4619b64814bf2c35ceeaf48231343f32e363f51895fe093075a4aafc0e4e20",
    ("jump-lq", "observation_feedback"): "c316ee3b2c4da663d29fcf5d43063669a455f089ec5ec655f99fb49dd00faaf8",
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
        "bench.json": "b3fcdfc1709726494eae78fb4f2d315b276dd4ed0eada8b07b9564eba0666bd1",
        "config.json": "7703a342a733ef83728effad34dc9185640822012d36e14f283d640bde6112c2",
    },
    "simulate": {
        "config.json": "b48fc87ffc3a6baec32b0d7df5c2d6a6483f8a7d74067873f3ea30f90c92e042",
        "cost.json": "b659653061ab3c489ac24b2f38b8ab1cd611807d423f3f0e8fc411175c8b85d2",
        "paths.bin": "dea2eeafe7dcff61180b7664674291a548055ced0ffc566b667db6e9795a6865",
        "paths.csv": "a50fe57b97c77ea3497aea54f17c2c64d4a1ce31350778ad59918b494be07fdf",
    },
    "adjoint": {
        "adjoint.bin": "eec84fdbfd4f7bf3dc68f7796d3b1a076ac072dd97e148cb40cf74be3a9e12fe",
        "config.json": "2cd09d7fc933cbabfd99b5a5011bd44f29bc528a6a3249860df101393c5da2db",
        "duality.json": "fff0aa8f38cc990eb386485b67754a3797581a27fe6e625715c8a034fa16820e",
    },
    "optimize": {
        "config.json": "eba2f8fea8562e7a52c98bd85d34774c8e01d92dce546a9bfd8adfbf38759f98",
        "final_control.json": "e8c83bcc6b32336ddd91becc8be265f96d32c7d540b21904e6ea2d346b94fcba",
        "iterates.json": "bcbb3ed4b78c5992bbabad2777a91cbce59ff7fba44242fc0be27f476357d4be",
    },
    "certify": {
        "certify.json": "8f9364673812b73e68bb69b586d12d7a3fbdf3c8c398e737d09368d16a33194b",
        "config.json": "044f724df68333a7962893f8cee839126684e7a373be8547dde8b33dfd86819c",
    },
    "chatter": {
        "chatter.json": "12d1b2e48b12c8214e6e4d2f49a6ad245939f038a2f2b1032b76c5c05818e57d",
        "config.json": "c765ba79a7a32845e0fbc86b4e05877310fef59da77a23703d22389a76329035",
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
