import json
import os

import pytest

from rsmp import DomainError, OptimizeParams
from rsmp.cli import EXIT_CONFIG, EXIT_OK, RunConfig, main
from rsmp.forward import STREAM_VERSION


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_round_trip(self):
        config = RunConfig(command="simulate", bench="lq1d", M=100, N=8, K=5, seed=3,
                           formats=["csv", "json"], out="/tmp/x")
        assert RunConfig.from_json(config.to_json()) == config

    def test_rejects_bad_format(self):
        with pytest.raises(Exception):
            RunConfig(command="simulate", formats=["parquet"])

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(Exception):
            RunConfig(command="simulate", M=0)


class TestDescribe:
    def test_prints_constants(self, capsys):
        assert main(["describe", "--bench", "lq1d"]) == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["n"] == 1

    def test_unknown_benchmark_is_config_error(self, capsys):
        assert main(["describe", "--bench", "nope"]) == EXIT_CONFIG


class TestSimulate:
    def test_replay_is_byte_identical(self, tmp_path):
        # regenerate into the same directory from the embedded config
        out = tmp_path / "run"
        args = ["simulate", "--bench", "lq1d", "--M", "200", "--N", "8", "--seed", "5",
                "--format", "csv,json,bin", "--out", str(out)]
        assert main(args) == EXIT_OK
        names = ("config.json", "paths.csv", "cost.json", "paths.bin")
        snapshot = {name: read(out / name) for name in names}
        assert main(["simulate", "--config", str(out / "config.json")]) == EXIT_OK
        for name in names:
            assert read(out / name) == snapshot[name]

    def test_same_seed_same_numbers_across_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--bench", "lq1d", "--M", "200", "--N", "8", "--seed", "5",
                "--format", "csv,bin"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        for name in ("paths.csv", "paths.bin"):
            assert read(a / name) == read(b / name)

    def test_replay_from_emitted_config(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--bench", "lq1d", "--M", "100", "--N", "4", "--seed", "9",
                     "--format", "csv", "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", str(a / "config.json"), "--out", str(b)]) == EXIT_OK
        assert read(a / "paths.csv") == read(b / "paths.csv")
        # the emitted config differs only in the output directory
        ca = json.loads(read(a / "config.json"))
        cb = json.loads(read(b / "config.json"))
        ca.pop("out"), cb.pop("out")
        assert ca == cb

    @pytest.mark.parametrize("stale", ["version-1", "missing"])
    def test_config_from_another_stream_version_is_config_error(self, tmp_path, stale):
        out = tmp_path / "run"
        names = ("config.json", "paths.csv", "paths.bin")
        assert main(["simulate", "--bench", "lq1d", "--M", "50", "--N", "4", "--seed", "6",
                     "--format", "csv,bin", "--out", str(out)]) == EXIT_OK
        snapshot = {name: read(out / name) for name in names}
        doc = json.loads(snapshot["config.json"])
        assert doc["stream_version"] == STREAM_VERSION
        # the emitted config replays byte for byte
        assert main(["simulate", "--config", str(out / "config.json")]) == EXIT_OK
        for name in names:
            assert read(out / name) == snapshot[name]
        # a config without the key predates it and was drawn as version 1
        if stale == "version-1":
            doc["stream_version"] = 1
        else:
            del doc["stream_version"]
        doc["out"] = str(tmp_path / "stale")
        (tmp_path / "stale.json").write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(tmp_path / "stale.json")]) == EXIT_CONFIG
        assert not (tmp_path / "stale").exists()

    @pytest.mark.parametrize("text", ['{"mode": "open_loop", "weights": [[[1.0]]]}', "not json"])
    def test_malformed_control_file_is_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["simulate", "--bench", "lq1d", "--M", "10", "--N", "4", "--seed", "1",
                     "--control", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_is_config_error(self):
        assert main(["simulate", "--bench", "lq1d", "--M", "10", "--N", "4", "--seed", "-1"]) == EXIT_CONFIG

    def test_unreadable_control_file_is_config_error(self, tmp_path):
        assert main(["simulate", "--bench", "lq1d", "--M", "10", "--N", "4", "--seed", "1",
                     "--control", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_csv_is_lf_terminated(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--bench", "lq1d", "--M", "10", "--N", "4", "--seed", "1",
              "--format", "csv", "--out", str(out)])
        data = read(out / "paths.csv")
        assert b"\r" not in data
        assert data.decode("utf-8").startswith("path,step,t,x0\n")


class TestOptimizeAndCertify:
    def test_optimize_then_certify_round_trip(self, tmp_path):
        out = tmp_path / "opt"
        args = ["optimize", "--bench", "lq1d", "--M", "2000", "--N", "16", "--K", "9",
                "--seed", "21", "--max-iters", "8", "--tol", "0.002", "--cells", "8",
                "--out", str(out)]
        assert main(args) == EXIT_OK
        doc = json.loads(read(out / "iterates.json"))
        costs = [row["cost"] for row in doc["iterates"]]
        errs = [row["std_error"] for row in doc["iterates"]]
        for (c0, e0), c1 in zip(zip(costs, errs), costs[1:]):
            assert c1 <= c0 + 2 * e0
        cert = tmp_path / "cert"
        assert main(["certify", "--bench", "lq1d", "--M", "2000", "--N", "16", "--seed", "21",
                     "--tol", "0.01", "--control", str(out / "final_control.json"),
                     "--out", str(cert)]) == EXIT_OK
        gap_doc = json.loads(read(cert / "certify.json"))
        assert gap_doc["smp_gap"] <= 0.01
        assert gap_doc["passed"] is True

    def test_chatter_excess_shrinks(self, tmp_path):
        out = tmp_path / "opt"
        main(["optimize", "--bench", "nonconvex-mix", "--M", "2000", "--N", "8", "--seed", "3",
              "--max-iters", "6", "--tol", "1e-4", "--mode", "open", "--out", str(out)])
        chat = tmp_path / "chat"
        assert main(["chatter", "--bench", "nonconvex-mix", "--M", "2000", "--N", "8",
                     "--seed", "3", "--mode", "open", "--R", "8",
                     "--control", str(out / "final_control.json"), "--out", str(chat)]) == EXIT_OK
        doc = json.loads(read(chat / "chatter.json"))
        excesses = [row["excess"] for row in doc["ladder"]]
        assert excesses == sorted(excesses, reverse=True)

    def test_optimize_rejects_single_path(self):
        # one path has no standard error, so no line-search step could ever be accepted
        with pytest.raises(DomainError):
            OptimizeParams(M=1, N=4)
        assert main(["optimize", "--bench", "lq1d", "--M", "1", "--N", "4", "--seed", "1"]) == EXIT_CONFIG

    def test_adjoint_duality_artifact(self, tmp_path):
        out = tmp_path / "adj"
        assert main(["adjoint", "--bench", "lq1d", "--M", "3000", "--N", "16", "--seed", "13",
                     "--format", "json,bin", "--out", str(out)]) == EXIT_OK
        doc = json.loads(read(out / "duality.json"))
        assert doc["relative_gap"] <= 5e-3
        assert os.path.exists(out / "adjoint.bin")


class TestThreadsEnv:
    def test_rsmp_threads_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RSMP_THREADS", "2")
        out = tmp_path / "t"
        assert main(["simulate", "--bench", "lq1d", "--M", "50", "--N", "4", "--seed", "2",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(read(out / "config.json"))
        assert doc["threads"] == 2
