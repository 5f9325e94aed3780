"""Command-line front end: reproducible simulation, adjoint, optimization,
certification, and chattering runs against the built-in benchmarks.

Every run writes its full configuration next to its outputs; rerunning with
that configuration file reproduces every artifact byte for byte (fixed seeds,
no wall-clock anywhere).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import bench
from .adjoint import adjoint_pairing, duality_gap, solve_bsde
from .container import adjoint_to_binary, paths_to_binary
from .control import OBSERVATION_FEEDBACK, OPEN_LOOP, STATE_FEEDBACK, RelaxedControl, refine_steps
from .errors import BlowUp, DomainError, NonFiniteCoefficient, RsmpError, SingularRegression
from .errors import UnknownBenchmark, require_count, require_tolerance
from .forward import STREAM_VERSION, cost, pathwise_cost, paths_to_csv, sample_noise, simulate
from .smp import OptimizeParams, hamiltonian_field, optimize, realize_regular, smp_gap
from .variation import gateaux, response_functional, simulate_variational

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MODE_ALIASES = {"open": OPEN_LOOP, "state": STATE_FEEDBACK, "obs": OBSERVATION_FEEDBACK}


@dataclass
class RunConfig:
    """Everything a run needs for bit-exact replay."""

    command: str
    bench: str = "lq1d"
    M: int = 2000
    N: int = 32
    K: int = 9
    seed: int = 0
    tol: float = 1e-3
    max_iters: int = 25
    out: str | None = None
    formats: list = field(default_factory=lambda: ["json"])
    mode: str | None = None
    cells: int = 8
    control: str | None = None
    refinement: int = 16
    stream_version: int = STREAM_VERSION

    def __post_init__(self):
        if self.stream_version != STREAM_VERSION:
            raise DomainError(
                f"config uses noise stream version {self.stream_version}, this build draws version "
                f"{STREAM_VERSION}; its artifacts cannot be replayed"
            )
        if self.seed is None:
            raise DomainError("a seed is mandatory; wall-clock seeding is not supported")
        for name, low in (("M", 1), ("N", 1), ("K", 1), ("cells", 1), ("refinement", 1), ("seed", 0), ("max_iters", 0)):
            require_count(getattr(self, name), name, low)
        for name, optional in (("bench", False), ("out", True), ("control", True)):
            value = getattr(self, name)
            if not isinstance(value, str) and not (optional and value is None):
                raise DomainError(f"{name} must be a string, got {value!r}")
        if self.mode not in (None, *MODE_ALIASES):
            raise DomainError(f"mode must be one of {list(MODE_ALIASES)}, got {self.mode!r}")
        require_tolerance(self.tol, "tol")
        if not isinstance(self.formats, list):
            raise DomainError(f"formats must be a list, got {self.formats!r}")
        for fmt in self.formats:
            if fmt not in ("csv", "json", "bin"):
                raise DomainError(f"unknown format {fmt!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        return RunConfig(**_config_doc(text))


def _config_doc(text: str) -> dict:
    """Fields of a config JSON text.  A config without stream_version predates
    the key and was drawn with the per-path layout, version 1.  A key that is
    not a RunConfig field (such as the removed info or threads) is rejected."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise DomainError(f"unknown config key(s) {unknown}")
    doc.setdefault("stream_version", 1)
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsmp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "simulate paths and evaluate the cost"),
        ("adjoint", "solve the adjoint backward and report the duality gap"),
        ("optimize", "run the conditional-gradient loop"),
        ("certify", "evaluate the minimum-principle gap at a given control"),
        ("chatter", "realize a relaxed control by rapid switching and compare costs"),
        ("describe", "print the benchmark constants"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", help="JSON config file; explicit flags override its entries")
        sp.add_argument("--bench", help="benchmark name")
        sp.add_argument("--M", type=int, help="path count")
        sp.add_argument("--N", type=int, help="time steps")
        sp.add_argument("--K", type=int, help="control grid size")
        sp.add_argument("--seed", type=int, help="master seed (mandatory, no wall-clock)")
        sp.add_argument("--tol", type=float, help="optimizer gap tolerance")
        sp.add_argument("--max-iters", dest="max_iters", type=int, help="optimizer iteration cap")
        sp.add_argument("--out", help="output directory for artifacts")
        sp.add_argument("--format", dest="formats", help="comma-separated list from csv,json,bin")
        sp.add_argument("--mode", choices=list(MODE_ALIASES), help="control feedback mode")
        sp.add_argument("--cells", type=int, help="feedback cells per dimension")
        sp.add_argument("--control", help="JSON file with a relaxed control")
        sp.add_argument("--R", dest="refinement", type=int, help="chattering refinement")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = _config_doc(fh.read())
    base["command"] = args.command
    for key in ("bench", "M", "N", "K", "seed", "tol", "max_iters", "out", "mode", "cells", "control", "refinement"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    if getattr(args, "formats", None):
        base["formats"] = [f.strip() for f in args.formats.split(",") if f.strip()]
    return RunConfig(**base)


def _initial_control(config: RunConfig) -> RelaxedControl:
    if config.control:
        try:
            with open(config.control, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read control file: {exc}") from None
        return RelaxedControl.from_json(text)
    grid = bench.benchmark_grid(config.bench, config.K)
    mode = MODE_ALIASES.get(config.mode, STATE_FEEDBACK)
    part = bench.benchmark_partition(config.bench, mode, config.cells)
    cells = 1 if part is None else part.n_cells
    return RelaxedControl(grid, np.full((config.N, cells, grid.K), 1.0 / grid.K), mode, part)


def _write(config: RunConfig, name: str, text: str) -> str | None:
    if config.out is None:
        return None
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _write_config(config: RunConfig) -> None:
    _write(config, "config.json", config.to_json() + "\n")


def _json_artifact(config: RunConfig, payload: dict) -> str:
    doc = {"config": json.loads(config.to_json())}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _cmd_describe(config: RunConfig) -> int:
    doc = bench.describe(config.bench)
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)
    _write_config(config)
    _write(config, "bench.json", _json_artifact(config, {"benchmark": doc}))
    return EXIT_OK


def _cmd_simulate(config: RunConfig) -> int:
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    noise = sample_noise(p, config.M, config.N, config.seed)
    paths = simulate(p, u, noise)
    estimate, std_error = cost(p, paths)
    print(f"cost {estimate!r} std_error {std_error!r}")
    _write_config(config)
    _write(config, "cost.json", _json_artifact(config, {"cost": estimate, "std_error": std_error}))
    if "csv" in config.formats and config.out:
        paths_to_csv(paths, os.path.join(config.out, "paths.csv"))
    if "bin" in config.formats and config.out:
        paths_to_binary(paths, os.path.join(config.out, "paths.bin"))
    return EXIT_OK


def _probe_direction(u: RelaxedControl, seed: int) -> RelaxedControl:
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x5EED))
    w = rng.uniform(0.1, 1.0, u.weights.shape)
    w /= w.sum(axis=-1, keepdims=True)
    return RelaxedControl(u.grid, w, u.feedback_mode, u.feedback)


def _cmd_adjoint(config: RunConfig) -> int:
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    noise = sample_noise(p, config.M, config.N, config.seed)
    paths = simulate(p, u, noise)
    adj = solve_bsde(p, paths, u)
    probe = _probe_direction(u, config.seed)
    var = simulate_variational(p, paths, probe, u)
    response = response_functional(p, paths, u, var)
    pairing = adjoint_pairing(p, paths, u, probe, adj)
    gap = duality_gap(adj, var)
    rel = gap / (abs(response) + 1e-6)
    print(f"duality_gap {gap!r} relative {rel!r}")
    _write_config(config)
    _write(
        config,
        "duality.json",
        _json_artifact(
            config,
            {
                "duality_gap": gap,
                "relative_gap": rel,
                "response_functional": response,
                "pairing": pairing,
                "gateaux": gateaux(p, paths, var, probe, u),
            },
        ),
    )
    if "bin" in config.formats and config.out:
        adjoint_to_binary(adj, os.path.join(config.out, "adjoint.bin"))
    return EXIT_OK


def _cmd_optimize(config: RunConfig) -> int:
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    params = OptimizeParams(M=config.M, N=config.N, max_iters=config.max_iters, tol=config.tol, seed=config.seed)
    result = optimize(p, u, params)
    last = result.iterates[-1]
    print(f"status {result.status} cost {last.cost!r} smp_gap {last.smp_gap!r}")
    _write_config(config)
    _write(config, "iterates.json", _json_artifact(config, json.loads(result.to_json())))
    _write(config, "final_control.json", result.final_control.to_json() + "\n")
    return EXIT_OK


def _cmd_certify(config: RunConfig) -> int:
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    noise = sample_noise(p, config.M, config.N, config.seed)
    paths = simulate(p, u, noise)
    adj = solve_bsde(p, paths, u)
    fld = hamiltonian_field(adj)
    gap, per_step = smp_gap(fld, u)
    passed = gap <= config.tol
    print(f"smp_gap {gap!r} tol {config.tol!r} passed {passed}")
    _write_config(config)
    _write(
        config,
        "certify.json",
        _json_artifact(
            config,
            {"smp_gap": gap, "per_step": per_step.tolist(), "tol": config.tol, "passed": bool(passed)},
        ),
    )
    return EXIT_OK


def _cmd_chatter(config: RunConfig) -> int:
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    refinement = config.refinement
    noise = sample_noise(p, config.M, config.N * refinement, config.seed)
    relaxed_costs = pathwise_cost(p, simulate(p, refine_steps(u, refinement), noise))
    ladder = []
    R = 2
    while R <= refinement:
        regular = realize_regular(u, R)
        costs = pathwise_cost(p, simulate(p, regular, noise))
        ladder.append({"R": R, "cost": float(costs.mean()), "excess": float(costs.mean() - relaxed_costs.mean())})
        R *= 2
    print(f"relaxed cost {float(relaxed_costs.mean())!r} ladder {[row['excess'] for row in ladder]}")
    _write_config(config)
    _write(
        config,
        "chatter.json",
        _json_artifact(config, {"relaxed_cost": float(relaxed_costs.mean()), "ladder": ladder}),
    )
    return EXIT_OK


_COMMANDS = {
    "describe": _cmd_describe,
    "simulate": _cmd_simulate,
    "adjoint": _cmd_adjoint,
    "optimize": _cmd_optimize,
    "certify": _cmd_certify,
    "chatter": _cmd_chatter,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (DomainError, UnknownBenchmark, ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[config.command](config)
    except (BlowUp, SingularRegression, NonFiniteCoefficient) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UnknownBenchmark as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RsmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
