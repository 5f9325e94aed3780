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
from .container import _opened, adjoint_to_binary, paths_to_binary, paths_to_csv
from .control import OBSERVATION_FEEDBACK, OPEN_LOOP, STATE_FEEDBACK, RelaxedControl, refine_steps
from .errors import BlowUp, DomainError, NonFiniteCoefficient, RsmpError, SingularRegression
from .errors import UnknownBenchmark, require_count, require_tolerance
from .forward import NUMERICS_VERSION, STREAM_VERSION, cost, pathwise_cost, sample_noise, simulate
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
    numerics_version: int = NUMERICS_VERSION

    def __post_init__(self):
        versions = (("stream_version", self.stream_version, STREAM_VERSION),
                    ("numerics_version", self.numerics_version, NUMERICS_VERSION))
        for name, given, ours in versions:
            if given != ours:
                raise DomainError(f"config uses {name} {given}, this build runs {ours}; its artifacts cannot be replayed")
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
    """Fields of a config JSON text.  A config without stream_version or
    numerics_version predates the key and was run at version 1 of it (the
    per-path noise layout, the per-atom Hamiltonian sums).  A key that is not
    a RunConfig field (such as the removed info or threads) is rejected."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise DomainError(f"unknown config key(s) {unknown}")
    doc.setdefault("stream_version", 1)
    doc.setdefault("numerics_version", 1)
    return doc


def _format_list(text: str) -> list | None:
    """The --format list; an empty flag overrides nothing."""
    return [f.strip() for f in text.split(",") if f.strip()] if text else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsmp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
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
        sp.add_argument("--format", dest="formats", type=_format_list, help="comma-separated list from csv,json,bin")
        sp.add_argument("--mode", choices=list(MODE_ALIASES), help="control feedback mode")
        sp.add_argument("--cells", type=int, help="feedback cells per dimension")
        sp.add_argument("--control", help="JSON file with a relaxed control")
        sp.add_argument("--R", dest="refinement", type=int, help="chattering refinement")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        with _opened(args.config, "r") as fh:
            base = _config_doc(fh.read())
    base.update((key, val) for key, val in vars(args).items() if key != "config" and val is not None)
    return RunConfig(**base)


def _initial_control(config: RunConfig) -> RelaxedControl:
    if config.control:
        try:
            with _opened(config.control, "r") as fh:
                return RelaxedControl.from_json(fh.read())
        except OSError as exc:
            raise DomainError(f"cannot read control file: {exc}") from None
    grid = bench.benchmark_grid(config.bench, config.K)
    mode = MODE_ALIASES.get(config.mode, STATE_FEEDBACK)
    part = bench.benchmark_partition(config.bench, mode, config.cells)
    cells = 1 if part is None else part.n_cells
    return RelaxedControl(grid, np.full((config.N, cells, grid.K), 1.0 / grid.K), mode, part)


def _out_path(config: RunConfig, name: str, fmt: str | None = None) -> str | None:
    """Path of the artifact name in --out, which is created; None without
    --out, or when fmt is given and is not among the requested formats."""
    if config.out is None or (fmt is not None and fmt not in config.formats):
        return None
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def _write(config: RunConfig, name: str, text: str) -> None:
    path = _out_path(config, name)
    if path is not None:
        with _opened(path, "w") as fh:
            fh.write(text)


def _json_artifact(config: RunConfig, payload: dict) -> str:
    doc = {"config": json.loads(config.to_json())}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _simulated(config: RunConfig) -> tuple:
    """The benchmark, the initial control and the paths it drives."""
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    return p, u, simulate(p, u, sample_noise(p, config.M, config.N, config.seed))


def _cmd_describe(config: RunConfig) -> tuple:
    doc = bench.describe(config.bench)
    return json.dumps(doc, sort_keys=True, indent=2), "bench.json", {"benchmark": doc}


def _cmd_simulate(config: RunConfig) -> tuple:
    p, u, paths = _simulated(config)
    estimate, std_error = cost(p, paths)
    for fmt, write in (("csv", paths_to_csv), ("bin", paths_to_binary)):
        path = _out_path(config, f"paths.{fmt}", fmt)
        if path is not None:
            write(paths, path)
    return f"cost {estimate!r} std_error {std_error!r}", "cost.json", {"cost": estimate, "std_error": std_error}


def _probe_direction(u: RelaxedControl, seed: int) -> RelaxedControl:
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x5EED))
    w = rng.uniform(0.1, 1.0, u.weights.shape)
    w /= w.sum(axis=-1, keepdims=True)
    return RelaxedControl(u.grid, w, u.feedback_mode, u.feedback)


def _cmd_adjoint(config: RunConfig) -> tuple:
    p, u, paths = _simulated(config)
    adj = solve_bsde(p, paths, u)
    probe = _probe_direction(u, config.seed)
    var = simulate_variational(p, paths, probe, u)
    response = response_functional(p, paths, u, var)
    pairing = adjoint_pairing(p, paths, u, probe, adj)
    gap = duality_gap(adj, var)
    rel = gap / (abs(response) + 1e-6)
    path = _out_path(config, "adjoint.bin", "bin")
    if path is not None:
        adjoint_to_binary(adj, path)
    payload = {
        "duality_gap": gap,
        "relative_gap": rel,
        "response_functional": response,
        "pairing": pairing,
        "gateaux": gateaux(p, paths, var, probe, u),
    }
    return f"duality_gap {gap!r} relative {rel!r}", "duality.json", payload


def _cmd_optimize(config: RunConfig) -> tuple:
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    params = OptimizeParams(M=config.M, N=config.N, max_iters=config.max_iters, tol=config.tol, seed=config.seed)
    result = optimize(p, u, params)
    last = result.iterates[-1]
    _write(config, "final_control.json", result.final_control.to_json() + "\n")
    summary = f"status {result.status} cost {last.cost!r} smp_gap {last.smp_gap!r}"
    return summary, "iterates.json", json.loads(result.to_json())


def _cmd_certify(config: RunConfig) -> tuple:
    p, u, paths = _simulated(config)
    adj = solve_bsde(p, paths, u)
    fld = hamiltonian_field(adj)
    gap, per_step = smp_gap(fld, u)
    passed = gap <= config.tol
    payload = {"smp_gap": gap, "per_step": per_step.tolist(), "tol": config.tol, "passed": bool(passed)}
    return f"smp_gap {gap!r} tol {config.tol!r} passed {passed}", "certify.json", payload


def _cmd_chatter(config: RunConfig) -> tuple:
    p = bench.make_benchmark(config.bench)
    u = _initial_control(config)
    refinement = config.refinement
    noise = sample_noise(p, config.M, config.N * refinement, config.seed)
    relaxed = float(pathwise_cost(p, simulate(p, refine_steps(u, refinement), noise)).mean())
    ladder = []
    R = 2
    while R <= refinement:
        regular = realize_regular(u, R)
        costs = pathwise_cost(p, simulate(p, regular, noise))
        ladder.append({"R": R, "cost": float(costs.mean()), "excess": float(costs.mean() - relaxed)})
        R *= 2
    summary = f"relaxed cost {relaxed!r} ladder {[row['excess'] for row in ladder]}"
    return summary, "chatter.json", {"relaxed_cost": relaxed, "ladder": ladder}


# name: (command, help text), in the order of `rsmp --help`
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate paths and evaluate the cost"),
    "adjoint": (_cmd_adjoint, "solve the adjoint backward and report the duality gap"),
    "optimize": (_cmd_optimize, "run the conditional-gradient loop"),
    "certify": (_cmd_certify, "evaluate the minimum-principle gap at a given control"),
    "chatter": (_cmd_chatter, "realize a relaxed control by rapid switching and compare costs"),
    "describe": (_cmd_describe, "print the benchmark constants"),
}


def main(argv=None) -> int:
    """Run one command.  A command returns its summary line, the name of its
    JSON artifact and that artifact's payload, and writes only its extra
    files; main writes config.json and the artifact, prints the summary once
    every file is written, and maps each failure to its exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (DomainError, UnknownBenchmark, ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary, name, payload = _COMMANDS[config.command][0](config)
        _write(config, "config.json", config.to_json() + "\n")
        _write(config, name, _json_artifact(config, payload))
    except (BlowUp, SingularRegression, NonFiniteCoefficient) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UnknownBenchmark as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RsmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
