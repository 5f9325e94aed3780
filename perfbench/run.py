"""Run one benchmark workload against the rsmp sources of this checkout.

    python3 perfbench/run.py --workload optimize-lq1d --seed 1 --seconds 20 --trace 0

Set-up (import, problem, controls, oracle) and the workload's solve repeat
until --seconds have passed, SETUPS_PER_SOLVE set-ups before each solve;
both are reported as medians, and every solve's output is checked against
its oracle.  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced solve, and the spans of two
traced solves of the same seed go to .bench_out/.  The line before it
records the environment, the sizes and every repeat's time.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import ROOT_SPAN, Tracer, instrument, write_spans  # noqa: E402
from workloads import THREADS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-ups are spread over the run, like the solves, so both see the same machine
SETUPS_PER_SOLVE = 3

# (name, unit) of each per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("forward.sample_noise.self_s", "s"),
    ("forward.noise_bytes", "bytes"),
    ("forward.simulate.calls", "count"),
    ("forward.simulate.self_s", "s"),
    ("forward.pathwise_cost.self_s", "s"),
    ("forward.path_steps", "count"),
    ("control.weights_at.calls", "count"),
    ("control.weights_at.self_s", "s"),
    ("control.refine_steps.self_s", "s"),
    ("problem.averaged.calls", "count"),
    ("problem.averaged.self_s", "s"),
    ("problem.coef_evals", "count"),
    ("problem.coef_s", "s"),
    ("variation.simulate_variational.self_s", "s"),
    ("variation.gateaux.self_s", "s"),
    ("variation.response_functional.self_s", "s"),
    ("adjoint.solve_bsde.calls", "count"),
    ("adjoint.solve_bsde.self_s", "s"),
    ("adjoint.features.self_s", "s"),
    ("adjoint.adjoint_pairing.self_s", "s"),
    ("adjoint.ridge_fallbacks", "count"),
    ("smp.hamiltonian_field.calls", "count"),
    ("smp.hamiltonian_field.self_s", "s"),
    ("smp.hamiltonian.calls", "count"),
    ("smp.empty_cells", "count"),
    ("smp.optimize.iterations", "count"),
    ("smp.line_search.trials", "count"),
    ("smp.line_search.accept_ratio", "ratio"),
    ("smp.realize_regular.self_s", "s"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_level_share", "ratio"),
]


def _import_rsmp():
    """A fresh import of rsmp from this checkout (numpy stays imported)."""
    for name in [n for n in sys.modules if n == "rsmp" or n.startswith("rsmp.")]:
        del sys.modules[name]
    rsmp = importlib.import_module("rsmp")
    if Path(rsmp.__file__).resolve().parent != SRC / "rsmp":
        raise ImportError(f"rsmp was imported from {rsmp.__file__}, not from {SRC}")
    return rsmp


class Tally:
    """Oracle checks attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, checks):
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed.append(name)


def _solve_once(wl, state, tally, tracer=None) -> float:
    """Time one solve, then check its output; an RsmpError counts as a failed check."""
    solve = wl.solve
    if tracer is not None:
        state = {**state, "p": tracer.wrap_problem(state["p"])}
        solve = tracer.wrap(solve, ROOT_SPAN)
    with instrument(tracer) if tracer else nullcontext():
        start = perf_counter()
        try:
            out = solve(state)
        except state["rsmp"].RsmpError as exc:
            tally.add([(f"{type(exc).__name__}: {exc}", False)])
            return perf_counter() - start
        elapsed = perf_counter() - start
    tally.add(wl.check(state, out))
    return elapsed


def _exact_counts(tracer) -> dict:
    summary = tracer.summary()
    counts = {f"{name}.calls": n for name, n in summary["calls"].items()}
    counts["smp.line_search.trials"] = summary["trials"]
    counts.update(tracer.counts)
    return counts


def _layer_metrics(tracer, untraced_solve_s: float) -> dict:
    s = tracer.summary()
    calls, self_s, c = s["calls"], s["self_s"], tracer.counts
    trials = s["trials"]
    values = {
        "forward.noise_bytes": c["forward.noise_bytes"],
        "forward.path_steps": c["forward.path_steps"],
        "problem.coef_evals": calls["problem.coef"],
        "problem.coef_s": s["total_s"].get("problem.coef", 0.0),
        "adjoint.ridge_fallbacks": c["adjoint.ridge_fallbacks"],
        "smp.empty_cells": c["smp.empty_cells"],
        "smp.optimize.iterations": c["smp.optimize.iterations"],
        "smp.line_search.trials": trials,
        "smp.line_search.accept_ratio": c["smp.line_search.accepted"] / trials if trials else 0.0,
        "trace.solve_s": s["solve_s"],
        "trace.overhead_s": s["solve_s"] - untraced_solve_s,
        "trace.top_level_share": s["top_level_share"],
    }
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            span, kind = name.rsplit(".", 1)
            values[name] = calls[span] if kind == "calls" else self_s.get(span, 0.0)
        out[name] = {"value": values[name], "unit": unit}
    return out


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return "unknown"


def _environment(args, wl) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "threads": THREADS,
        "workload": wl.name,
        "seed": args.seed,
        **wl.sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rsmp" / "__init__.py").is_file():
        print(f"no rsmp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    tally = Tally()
    setup_s, solve_s = [], []
    start = perf_counter()
    while not solve_s or perf_counter() - start < args.seconds:
        for _ in range(SETUPS_PER_SOLVE):
            setup_start = perf_counter()
            state = wl.setup(_import_rsmp(), args.seed)
            setup_s.append(perf_counter() - setup_start)
        solve_s.append(_solve_once(wl, state, tally))

    counts_ok = True
    record = {"environment": _environment(args, wl), "setup_s": setup_s, "solve_s": solve_s}
    if args.trace:
        tracers = [Tracer(run_id) for run_id in (1, 2)]
        for tracer in tracers:
            _solve_once(wl, state, tally, tracer)
        first, second = (_exact_counts(t) for t in tracers)
        counts_ok = first == second
        record["exact_counts"] = first
        if not counts_ok:
            record["count_mismatch"] = {
                k: [first.get(k), second.get(k)] for k in sorted(first.keys() | second.keys())
                if first.get(k) != second.get(k)
            }
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.csv"
        write_spans(spans_path, tracers)
        record["spans"] = str(spans_path.relative_to(ROOT))
        metrics = _layer_metrics(tracers[0], median(solve_s))
    else:
        metrics = {
            "setup_s": {"value": median(setup_s), "unit": "s"},
            "solve_s": {"value": median(solve_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "pass_ratio": {"value": 1.0 - len(tally.failed) / tally.attempted, "unit": "ratio"},
        }
    record["failed_checks"] = tally.failed
    print(json.dumps(record))
    print(json.dumps({
        "correct": counts_ok and not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
