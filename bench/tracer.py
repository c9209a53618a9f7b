"""Spans around calls into the package's public functions, recorded from
outside the program.

`from .sim import rollout_low_level` binds the name in the importing module
at import time, so patching `belieffit.sim` alone would miss the policy's
calls.  The tracer therefore replaces the function on every loaded
`belieffit` module that holds it, and restores each binding on exit.  A
layer whose public name no longer exists is left out, and its metrics are
reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _rollout_counts(args, kwargs, outcome):
    return {"control_steps": len(outcome.trace), "insertions": int(outcome.success)}


def _fit_counts(args, kwargs, params):
    return {"epochs": len(kwargs["history_out"])}


# layer name "<module>.<function>" -> count extractor reading the call's result
LAYERS = {
    "cli.main": None,
    "cli.write_csv": None,
    "cli.validate_metrics_csv": None,
    "cli.validate_steps_csv": None,
    "experiments.run_experiment": None,
    "policy.run_assembly_task": lambda a, k, r: {"interventions": r.interventions},
    "policy.run_episode": None,
    "policy.high_level_step": lambda a, k, r: {"evidence_resets": int(r[1].evidence_reset)},
    "policy.select_hole": None,
    "policy.init_beliefs": None,
    "beliefs.fit_probability": None,
    "filters.kalman_update": None,
    "filters.histogram_update": None,
    "sensors.sense_position": None,
    "sensors.sense_match": None,
    "sim.spawn_world": None,
    "sim.rollout_low_level": _rollout_counts,
    "sim.rollout_random_actions": _rollout_counts,
    "training.generate_dataset": None,
    "training.save_dataset": None,
    "training.load_dataset": None,
    "training.fit_parameters": _fit_counts,
    "training.grad_nll": None,
    "training.batch_nll": None,
}

# A span of one of these starts a new trace id (one assembly trial: world,
# then task; one generated record: rollout, then its sensor readings) ...
OPEN_TRACE = {"sim.spawn_world", "sim.rollout_random_actions"}
# ... and the end of one of these returns to trace id 0 (run-level work).
CLOSE_TRACE = {"policy.run_assembly_task", "training.generate_dataset"}


class Tracer:
    """In-memory span recorder; use as a context manager around one call."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[int] = []
        self.counts: dict[str, float] = {}
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._trace = 0
        self._opened = 0
        self._patches: list[tuple] = []

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "belieffit" or n.startswith("belieffit."))]
        for layer, counter in LAYERS.items():
            home_name, func_name = layer.split(".")
            home = sys.modules.get(f"belieffit.{home_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                continue
            self.present.add(layer)
            wrapper = self._wrap(layer, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, layer, fn, counter):
        names, starts, ends = self.names, self.starts, self.ends
        parents, traces, stack = self.parents, self.traces, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in OPEN_TRACE:
                self._opened += 1
                self._trace = self._opened
            idx = len(names)
            names.append(layer)
            parents.append(stack[-1] if stack else -1)
            traces.append(self._trace)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if layer in CLOSE_TRACE:
                    self._trace = 0
            if counter is not None:
                try:
                    extra = counter(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    extra = {}  # the result's shape changed: count stays absent
                for key, value in extra.items():
                    name = f"{layer}.{key}"
                    self.counts[name] = self.counts.get(name, 0) + value
            return result

        return wrapper

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Calls and self time per layer; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        stats = {layer: {"calls": 0, "self_s": 0.0} for layer in self.present}
        for i, layer in enumerate(self.names):
            stats[layer]["calls"] += 1
            stats[layer]["self_s"] += self.ends[i] - self.starts[i] - child[i]
        return stats

    def write(self, fh, call: int) -> None:
        """Append this call's spans to an open file, one JSON object a line."""
        for i, name in enumerate(self.names):
            fh.write(json.dumps({
                "call": call, "id": i, "name": name, "start": self.starts[i],
                "end": self.ends[i], "parent": self.parents[i], "trace": self.traces[i],
            }) + "\n")
