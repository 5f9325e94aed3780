"""Spans recorded from outside rsmp, around calls into its public functions.

`instrument` swaps the module attributes listed in TARGETS and METHODS for
wrappers that record one span per call (name, start, end, parent, run id),
and restores the originals on exit.  Modules bind each other's functions by
name (`from .forward import simulate`), so every rsmp module attribute that
is the original function gets the wrapper, which is how calls made inside
the library are seen.  `wrap_problem` does the same for the user-supplied
coefficient callables of a Problem through `dataclasses.replace`.

Counts that need a call's result (noise bytes, path steps, ridge fallbacks,
empty cells, iterations) are read from the returned objects, so they are
computed from array sizes and diagnostics, not measured.
"""

from __future__ import annotations

import csv
import dataclasses
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

AVERAGED = (
    "averaged_drift",
    "averaged_diffusion",
    "averaged_running_cost",
    "averaged_jump",
    "averaged_drift_x",
    "averaged_diffusion_x",
    "averaged_running_cost_x",
    "averaged_jump_x",
)
COEFFICIENTS = ("b", "sigma", "ell", "phi", "b_x", "sigma_x", "ell_x", "phi_x")

ROOT_SPAN = "workload.solve"
TRIAL_SPAN = "control.mix"  # optimize calls mix once per line-search trial


def _noise_bytes(counts, noise):
    arrays = (noise.dW, noise.jump_counts, noise.initial_normals, noise.stream_ids)
    counts["forward.noise_bytes"] += sum(a.nbytes for a in arrays if a is not None)


def _path_steps(counts, paths):
    counts["forward.path_steps"] += paths.M * paths.n_steps


def _ridge_fallbacks(counts, adjoint):
    counts["adjoint.ridge_fallbacks"] += sum(1 for d in adjoint.conditioning if d.ridge)


def _empty_cells(counts, field):
    counts["smp.empty_cells"] += int(np.count_nonzero(field.occupancy == 0))


def _iterations(counts, result):
    counts["smp.optimize.iterations"] += len(result.iterates)
    counts["smp.line_search.accepted"] += sum(1 for r in result.iterates if r.step_size is not None)


# (home module, attribute, span name, hook reading the call's result)
TARGETS = [
    ("rsmp.forward", "sample_noise", "forward.sample_noise", _noise_bytes),
    ("rsmp.forward", "simulate", "forward.simulate", _path_steps),
    ("rsmp.forward", "pathwise_cost", "forward.pathwise_cost", None),
    ("rsmp.control", "refine_steps", "control.refine_steps", None),
    ("rsmp.control", "mix", TRIAL_SPAN, None),
    ("rsmp.variation", "simulate_variational", "variation.simulate_variational", None),
    ("rsmp.variation", "gateaux", "variation.gateaux", None),
    ("rsmp.variation", "response_functional", "variation.response_functional", None),
    ("rsmp.adjoint", "solve_bsde", "adjoint.solve_bsde", _ridge_fallbacks),
    ("rsmp.adjoint", "adjoint_pairing", "adjoint.adjoint_pairing", None),
    ("rsmp.smp", "hamiltonian_field", "smp.hamiltonian_field", _empty_cells),
    ("rsmp.smp", "hamiltonian", "smp.hamiltonian", None),
    ("rsmp.smp", "optimize", "smp.optimize", _iterations),
    ("rsmp.smp", "realize_regular", "smp.realize_regular", None),
] + [("rsmp.problem", name, "problem.averaged", None) for name in AVERAGED]

# (home module, class, method, span name)
METHODS = [
    ("rsmp.control", "RelaxedControl", "weights_at", "control.weights_at"),
    ("rsmp.adjoint", "BasisSpec", "features", "adjoint.features"),
]


class Tracer:
    """Spans of one traced solve, kept in memory until `write_spans`."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []  # [span id, parent id or -1, name, start, end]
        self.counts = Counter()
        self._stack = []

    def wrap(self, fn, name: str, hook=None):
        """`fn` recording a span per call; `hook(counts, result)` runs after it."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_problem(self, p):
        """The same problem with every coefficient callable traced."""
        changes = {name: self.wrap(getattr(p, name), "problem.coef") for name in COEFFICIENTS}
        if p.jump is not None:
            changes["jump"] = dataclasses.replace(
                p.jump, C=self.wrap(p.jump.C, "problem.coef"), C_x=self.wrap(p.jump.C_x, "problem.coef")
            )
        return dataclasses.replace(p, **changes)

    def summary(self) -> dict:
        """Per span name: call count, total and self seconds; plus the share of
        the root span that its direct children cover."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[sid]
        roots = [s for s in self.spans if s[2] == ROOT_SPAN]
        root_s = sum(s[4] - s[3] for s in roots)
        covered = sum(child[s[0]] for s in roots)
        trials = sum(
            1 for s in self.spans if s[2] == TRIAL_SPAN and s[1] >= 0 and self.spans[s[1]][2] == "smp.optimize"
        )
        return {
            "calls": calls,
            "total_s": total,
            "self_s": self_s,
            "solve_s": root_s,
            "top_level_share": covered / root_s,
            "trials": trials,
        }


def write_spans(path, tracers) -> None:
    """All spans of `tracers` as one CSV file (times in seconds)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["run", "span", "parent", "name", "start_s", "end_s"])
        for tracer in tracers:
            for sid, parent, name, start, end in tracer.spans:
                out.writerow([tracer.run_id, sid, parent, name, repr(start), repr(end)])


@contextmanager
def instrument(tracer: Tracer):
    """Route every rsmp-internal call to the TARGETS and METHODS through
    `tracer` while the block runs."""
    modules = [m for name, m in sys.modules.items() if name == "rsmp" or name.startswith("rsmp.")]
    undo = []
    try:
        for home, attr, span_name, hook in TARGETS:
            orig = getattr(sys.modules[home], attr)
            traced = tracer.wrap(orig, span_name, hook)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, traced)
        for home, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(orig, span_name))
        yield
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
