"""The bits of 12 `optimize` results, pinned by the SHA-256 of their JSON,
and of every file one small run of each CLI command writes.

A change that reorders a sum, fuses a product or calls another BLAS routine
moves these digests; a change that keeps them keeps every result an older
configuration replays.  The bits depend on numpy and on the BLAS it calls,
so the digests are stored with the fingerprint of the stack that produced
them, and on another stack the test skips.  A change that moves the bits on
purpose re-pins them in the same diff and says so.
"""

import hashlib
import platform

import numpy as np
import pytest

import rsmp
from rsmp.cli import main

MODES = (rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK)

FINGERPRINT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "machine": "x86_64"}

# optimize(M=1500, N=8, K=5 (2 on nonconvex-mix), 4 cells per signal
# coordinate, uniform start, max_iters=4, tol=0, seed=3).to_json()
DIGESTS = {
    ("lq1d", "open_loop"): "0cfaf492cc1e97a85a6b346c4db8fc3cfb0d13b32e2b6bf181fbf43f77a7f65b",
    ("lq1d", "state_feedback"): "21629f13a13b930f8951910be17c3635d91d18b5cc4b1aacc885185263c9de3d",
    ("lq1d", "observation_feedback"): "cf1f397740cd416afa2dda6fec86e00ed838d8585b7413cbc01fcaa3be46d8d4",
    ("lq2d", "open_loop"): "68b8118cffa41f36390d18f6d34fd54778fa86dd316d27a949fecab8c298ada1",
    ("lq2d", "state_feedback"): "0fbfa60a2cda2e9148138a36b45599cd3e6aacd69ebc3681883b55c8656e1a88",
    ("lq2d", "observation_feedback"): "05125e1eec7938249c4b3df7c42940245481c9e9aba748c684569455f8e14dde",
    ("nonconvex-mix", "open_loop"): "3a2c3c3407326f5a6b16f467941667361916c97db507534f275de805c3d57e34",
    ("nonconvex-mix", "state_feedback"): "f4eeebce52d5e96be23dbf32d618178cc619da45b271576c5658d53aaf88f4f8",
    ("nonconvex-mix", "observation_feedback"): "211f66c7dfcfd995087db1601a987fba1997f0513f35670bf23ab4cfb2222d69",
    ("jump-lq", "open_loop"): "f2805bc83398cf9f3bd78f48f219291e5a0a5007b50ff06baf3b8032ce6ae0ef",
    ("jump-lq", "state_feedback"): "d2e5a81a0067dcf87167a4bcdfed78b577817a38b3dec738670197c6a7742147",
    ("jump-lq", "observation_feedback"): "a44c529cd68ff20aeeac98087a94a57754ce274c20209aa7f60569b65e1a9667",
}


def fingerprint() -> dict | None:
    """numpy's version, the name and version of its BLAS, and the machine;
    None for a numpy that does not report its build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine()}


@pytest.mark.parametrize("name, mode", list(DIGESTS))
def test_optimize_result_keeps_its_bits(name, mode):
    found = fingerprint()
    if found != FINGERPRINT:
        pytest.skip(f"digests pinned on {FINGERPRINT}, this stack is {found}")
    p, grid = rsmp.make_benchmark(name), rsmp.benchmark_grid(name, 5)
    part = rsmp.benchmark_partition(name, mode, cells=4)
    C = 1 if part is None else part.n_cells
    u0 = rsmp.RelaxedControl(grid, np.full((8, C, grid.K), 1.0 / grid.K), mode, part)
    result = rsmp.optimize(p, u0, rsmp.OptimizeParams(M=1500, N=8, max_iters=4, tol=0.0, seed=3))
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == DIGESTS[name, mode]


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
        "bench.json": "34850696c3ab4f1d38856386dc1853afda98cc1acc3d443e35e8d1d31154ca11",
        "config.json": "4c416a33c3185a8976922f0fdec2882826fbe2ac5be783e94858d518001453ac",
    },
    "simulate": {
        "config.json": "900a6224e7bf5cdcfe071fd9c59ee4da385890aa8957beb0715df97166a91216",
        "cost.json": "219f70b6b6e517be83d2bf198a9489399ea211ac788d7766c816e6954055d375",
        "paths.bin": "0869275090d3e612a9119873a7e320207404e330ab2b62a91683c28e3bfb9160",
        "paths.csv": "6f6567a04c300bf9390d5f42df0f736d77be640c6fedde1c288415bbfb288b17",
    },
    "adjoint": {
        "adjoint.bin": "86b802154e4ce15c70f41d795af0826600fcff5c0f6c6fd22fd3bf44cc3d46cb",
        "config.json": "4bc2c05283bf1de26cc97c75e30d8f963d8e7c399043fc3d34ea6e55ab495e6d",
        "duality.json": "ffd02c90dc265bc79c1e03caaf34238a8480b57c534a7e5a35fd84e14e9f7b0d",
    },
    "optimize": {
        "config.json": "c1e5839f6e3ff0589fb83db42920ef4852b2337f32d4db77a040fdaa0930c16b",
        "final_control.json": "e8c83bcc6b32336ddd91becc8be265f96d32c7d540b21904e6ea2d346b94fcba",
        "iterates.json": "af44e5af2e7db48c06e4c9683a6f3afe86142cb9956a1b2fd23ae4432bd19f3f",
    },
    "certify": {
        "certify.json": "7e357fb230523e24be1eaadb82fe2b715462405b1cf0f73c1cdba2e3cbb551a0",
        "config.json": "7298bcce9538e72ec19820c139b4d19ef8dbeff9137b74490cd5852385ddcbfc",
    },
    "chatter": {
        "chatter.json": "44aa42891e18de6a2e42de2161bc3db54cf108e8832d78e6ad5c8fa6ab42e529",
        "config.json": "82b9c46f20cdc9dc05c35f1bb40ce4f26682cd91fbe506098906ef02d1682945",
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
