"""The bits of 12 `optimize` results, pinned by the SHA-256 of their JSON,
and of every file one small run of each CLI command writes.

A change that reorders a sum, fuses a product or calls another BLAS routine
moves these digests; a change that keeps them keeps every result an older
configuration replays.  The bits depend on numpy and on the BLAS it calls,
so the digests are stored with the fingerprint of the stack that produced
them, and on another stack the test skips.  A change that moves the bits on
purpose bumps `rsmp.forward.NUMERICS_VERSION`, re-pins them and the version
they were taken at in the same diff, and says so.
"""

import hashlib
import platform

import numpy as np
import pytest

import rsmp
from rsmp.cli import main
from rsmp.forward import NUMERICS_VERSION

MODES = (rsmp.OPEN_LOOP, rsmp.STATE_FEEDBACK, rsmp.OBSERVATION_FEEDBACK)

FINGERPRINT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "machine": "x86_64"}
# the rsmp NUMERICS_VERSION the digests below were taken at
PINNED_NUMERICS_VERSION = 2

# optimize(M=1500, N=8, K=5 (2 on nonconvex-mix), 4 cells per signal
# coordinate, uniform start, max_iters=4, tol=0, seed=3).to_json()
DIGESTS = {
    ("lq1d", "open_loop"): "713f2ebafdcc655c127f31e2966e8e817643a423c8d648b5747c9908ab1c85f8",
    ("lq1d", "state_feedback"): "5f9ba564b49cde814c9837978aeb6cba1205ef5eaa4d935e2c3f578e8b9de5f7",
    ("lq1d", "observation_feedback"): "fd801fae6c791af0d1e3045111c550b100c4c97bd63223bdcca6e527972d36ab",
    ("lq2d", "open_loop"): "2bd115b0252965d972ebc435e6d792a614eb1556691e5f4f7f918adff73c2a30",
    ("lq2d", "state_feedback"): "85065ba81e0698f29956a393e4dfa178856a5829100cbc00f1457edd3516df39",
    ("lq2d", "observation_feedback"): "44c4c4d7b22eb580b6e93feaea8833cf044c285fbd1868aa8cc3aedfb36b02a5",
    ("nonconvex-mix", "open_loop"): "474af10311737b4aa9b6c733429df8e6ad7c440284bf975f804fbfb23e1bc1c3",
    ("nonconvex-mix", "state_feedback"): "8961a851115977678ccc95daf00bca6c4127f1a8b4b19d8c07443faf5488e491",
    ("nonconvex-mix", "observation_feedback"): "b0cc456c4807da1a31895424d0467697b5acd7f2fba00244557db5ecace802d1",
    ("jump-lq", "open_loop"): "3260ec8c1551e7e4cff9b95477480adb6672651df6f156224850b295700da500",
    ("jump-lq", "state_feedback"): "f8eceb3267e0aa526b2516aef248dcfbe03e67f196832be8b34a80441dd15c1d",
    ("jump-lq", "observation_feedback"): "d9dddf87af5b714391423e745e0ae337ada798d15b071cd5dc71d18a6964b8b3",
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
        "bench.json": "078635af3e939999bbb21d0e62e77a4bca0a9a92832e0c4f400f6cbb951441bd",
        "config.json": "f1b06a77b50ba12f806c9ca9253fef0f08c5e0f8d5b67bce9c2821e224fe0cc4",
    },
    "simulate": {
        "config.json": "9481c67b823e5a4c5b97bae1f3bb0ddcb136795a5dbf9f02c6f9e3384fa86ad4",
        "cost.json": "8c4d0829aa6e45c7161be59bfa98da7ba630d651d5ff90ac44e2e040b80fdd0d",
        "paths.bin": "230b9fd5f2ebd5d2f6800468cd33b90dd01e83ce1708cb729c4c3b33c85f4342",
        "paths.csv": "6f6567a04c300bf9390d5f42df0f736d77be640c6fedde1c288415bbfb288b17",
    },
    "adjoint": {
        "adjoint.bin": "7d5aeac3303248c5d69457e8ee518a5d66c5d4e81e298f9ddc8eb2294cfc90ad",
        "config.json": "5ef1a29ecb5a85a3a2bf4f54b2c335b52527d747402425ab20a629aa6ff606eb",
        "duality.json": "3d00aebad0fb0796fd1c7c17c23b7b4ebe528d9ececd927219eecce0959e617a",
    },
    "optimize": {
        "config.json": "7bed3428ad616d10762902a80c3c0247ac9888a2990a60a98ce09b2f4ca17bbb",
        "final_control.json": "e8c83bcc6b32336ddd91becc8be265f96d32c7d540b21904e6ea2d346b94fcba",
        "iterates.json": "35ba3cf80ce4757cbcb24e9013e30d3db3e3553fe94c58560f0b67e43f51a70a",
    },
    "certify": {
        "certify.json": "9e7233ae3f65d25e40d001fa099f7d11750953bf77234794d604cfc85b1eb9a9",
        "config.json": "fa2f2bc9bcafb84c4a319045bfa5eede098d1d48097aea0aef9192172e6947eb",
    },
    "chatter": {
        "chatter.json": "256a8dec4fa253de07167c5483c7117766016a52096340cf0e6c7124de279ffe",
        "config.json": "dba07db32a3d01367dfc0fd84d883599f0af8ce6f7442d134f44b8114b264b75",
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
