import json
import os
from dataclasses import fields

import pytest

from rsmp import ControlGrid, DomainError, OptimizeParams, constant_control
from rsmp.cli import _COMMANDS, EXIT_CONFIG, EXIT_OK, RunConfig, _build_parser, main
from rsmp.container import read_section
from rsmp.forward import NUMERICS_VERSION, STREAM_VERSION


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

    @pytest.mark.parametrize(
        "key,value",
        [("mode", "bogus"), ("M", 50.5), ("N", 4.0), ("K", 2.5), ("out", 5), ("seed", 1.5),
         ("M", True), ("max_iters", "3"), ("control", 5), ("bench", 7), ("tol", "0.1"), ("formats", 5)],
    )
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys, key, value):
        doc = {"command": "simulate", "bench": "lq1d", "M": 50, "N": 4, "K": 3, "seed": 1, key: value}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(tmp_path / "c.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        with pytest.raises(DomainError):
            RunConfig(**doc)

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        # configs written while the CLI had an info setting carry that key
        doc = {"command": "simulate", "bench": "lq1d", "M": 50, "N": 4, "seed": 1, "info": "full"}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(tmp_path / "c.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown config key(s) ['info']\n"
        with pytest.raises(DomainError, match=r"unknown config key\(s\) \['info'\]"):
            RunConfig.from_json(json.dumps(doc))


class TestFlagParity:
    """Flag overrides are read from the parsed arguments as they stand, so
    the parser's flags and the RunConfig fields must be the same names."""

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_flags_are_the_config_fields(self, command):
        dests = set(vars(_build_parser().parse_args([command]))) - {"config"}
        assert dests == {f.name for f in fields(RunConfig)} - {"stream_version", "numerics_version"}


class TestOutputError:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_out_under_a_regular_file_is_output_error(self, tmp_path, capsys, command):
        # the result line is printed only once every artifact is written
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        assert main([command, "--bench", "lq1d", "--M", "50", "--N", "4", "--seed", "1", "--max-iters", "1",
                     "--R", "2", "--format", "csv,json,bin", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err


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

    @pytest.mark.parametrize("stale", ["version-1", "missing"])
    def test_config_from_another_numerics_version_is_config_error(self, tmp_path, capsys, stale):
        # refused as a foreign stream_version is; both binary files record the version
        out = tmp_path / "run"
        for command in ("simulate", "adjoint"):
            assert main([command, "--bench", "jump-lq", "--M", "50", "--N", "4", "--seed", "6",
                         "--format", "bin", "--out", str(out)]) == EXIT_OK
        for name in ("paths.bin", "adjoint.bin"):
            assert read_section(str(out / name))[1]["numerics_version"] == NUMERICS_VERSION
        doc = json.loads(read(out / "config.json"))
        assert doc["numerics_version"] == NUMERICS_VERSION
        # a config without the key predates it and was run at version 1
        if stale == "version-1":
            doc["numerics_version"] = 1
        else:
            del doc["numerics_version"]
        doc["out"] = str(tmp_path / "stale")
        (tmp_path / "stale.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["adjoint", "--config", str(tmp_path / "stale.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config uses numerics_version 1, this build runs {NUMERICS_VERSION}; "
            "its artifacts cannot be replayed\n"
        )
        assert not (tmp_path / "stale").exists()

    @pytest.mark.parametrize("text", ['{"mode": "open_loop", "weights": [[[1.0]]]}', "not json"])
    def test_malformed_control_file_is_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["simulate", "--bench", "lq1d", "--M", "10", "--N", "4", "--seed", "1",
                     "--control", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_control_of_another_dimension_is_config_error(self, tmp_path, capsys):
        grid = ControlGrid([[0.0, 0.0], [0.5, 0.5]], [[-1.0, 1.0], [-1.0, 1.0]])
        bad = tmp_path / "two_d.json"
        bad.write_text(constant_control(grid, 4).to_json())
        assert main(["simulate", "--bench", "lq1d", "--M", "10", "--N", "4", "--seed", "1",
                     "--control", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

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

    def test_optimize_rejects_negative_iteration_cap(self):
        with pytest.raises(DomainError):
            OptimizeParams(M=50, N=4, max_iters=-1)
        assert main(["optimize", "--bench", "lq1d", "--M", "50", "--N", "4", "--max-iters", "-1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["optimize", "certify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
    def test_bad_tolerance_is_config_error(self, command, tol):
        with pytest.raises(DomainError):
            RunConfig(command=command, tol=float(tol))
        assert main([command, "--bench", "lq1d", "--M", "50", "--N", "4", "--seed", "1", "--tol", tol]) == EXIT_CONFIG

    def test_adjoint_duality_artifact(self, tmp_path):
        out = tmp_path / "adj"
        assert main(["adjoint", "--bench", "lq1d", "--M", "3000", "--N", "16", "--seed", "13",
                     "--format", "json,bin", "--out", str(out)]) == EXIT_OK
        doc = json.loads(read(out / "duality.json"))
        assert doc["relative_gap"] <= 5e-3
        assert os.path.exists(out / "adjoint.bin")


class TestThreadsEnv:
    """The worker cap is no CLI setting: `simulate` runs serially and no
    result ever depended on it.  OptimizeParams still validates its cap."""

    def test_threads_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--bench", "lq1d", "--M", "50", "--N", "4", "--seed", "1", "--threads", "2"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err

    def test_threads_config_key_is_named(self, tmp_path, capsys):
        # configs written while the CLI had a worker cap carry that key
        doc = {"command": "simulate", "bench": "lq1d", "M": 50, "N": 4, "seed": 1, "threads": 1,
               "stream_version": STREAM_VERSION, "out": str(tmp_path / "t")}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(tmp_path / "c.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown config key(s) ['threads']\n"
        assert not (tmp_path / "t").exists()

    def test_rsmp_threads_is_ignored(self, tmp_path, monkeypatch):
        out = tmp_path / "t"
        argv = ["simulate", "--bench", "lq1d", "--M", "50", "--N", "4", "--seed", "2", "--out", str(out)]
        monkeypatch.delenv("RSMP_THREADS", raising=False)
        assert main(argv) == EXIT_OK
        snapshot = read(out / "config.json")
        assert "threads" not in json.loads(snapshot)
        for value in ("2", "-3"):
            monkeypatch.setenv("RSMP_THREADS", value)
            assert main(argv) == EXIT_OK
            assert read(out / "config.json") == snapshot

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_worker_cap_is_domain_error(self, threads):
        with pytest.raises(DomainError):
            OptimizeParams(M=50, N=4, threads=threads)
