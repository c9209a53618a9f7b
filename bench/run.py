"""Benchmark harness for belieffit.

Run from the repository root:

    python3 bench/run.py --workload assembly --seed 1 --seconds 30 --trace 0

Workloads are `assembly`, `fit_10k` and `dataset_gen` (see bench/README.md).
Every workload is a closed loop with one caller in one process and one
thread.  With `--trace 0` the run times set-up in fresh interpreters, then
calls the workload until `--seconds` have passed, checking each call, and
reports the end-to-end metrics named in BENCHMARK.json, with rates and
set-up times normalised to the reference speed of reference.py.  With `--trace 1` it
alternates an untraced and a traced call on the same inputs and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Outputs and spans go to
.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Environment hygiene before numpy is imported anywhere: one BLAS/OpenMP
# thread, and no package-level thread knob.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BELIEFFIT_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
CALL_CAP_S = 120  # stop adding calls past this, even below a workload's minimum
REPORT_NAMES = {  # the per-workload name of items_per_s, or of its inverse
    "assembly": ("trials_per_s", "trials/s"),
    "fit_10k": ("fit_s", "s"),
    "dataset_gen": ("records_per_s", "records/s"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(REPORT_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="time import, config and input synthesis, print seconds, exit")
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup_seconds(args) -> float:
    """One set-up in a fresh interpreter, timed by the child itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"set-up failed:\n{done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def metadata(seed: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


class Loop:
    """Calls the workload, checks every result, and counts failures."""

    def __init__(self, workload, host_factor):
        self.workload = workload
        self.host_factor = host_factor
        self.walls: list[float] = []
        self.factors: list[float] = []  # host slowness around each call
        self.rates: list[float] = []  # items/s at reference speed; 0 if the call failed
        self.failed = 0
        self.digests: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def call(self, k: int) -> float:
        """One timed call on input set k; returns its wall seconds."""
        (wall, result, error), factor = self.host_factor(
            lambda: self._timed(k), self.workload.reference)
        try:
            problems = [error] if error else self.workload.check(k, result)
        except Exception:
            problems = [traceback.format_exc()]
        self.walls.append(wall)
        self.factors.append(factor)
        self.rates.append(0.0 if problems else self.workload.items_per_call / wall * factor)
        if problems:
            self._failure(f"call {k}", problems)
        if not self.digests:
            self.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in self.workload.outputs if p.exists()}
        return wall

    def _timed(self, k: int):
        t0 = perf_counter()
        try:
            result = self.workload.call(k)
        except Exception:
            return perf_counter() - t0, None, traceback.format_exc()
        return perf_counter() - t0, result, None

    def finish(self) -> None:
        """Run-level checks; when one fails, every call of the run counts
        as failed, since no single call can be blamed."""
        problems = self.workload.finish()
        if problems:
            self._failure("run", problems)
            self.failed = self.attempted
            self.rates = [0.0] * self.attempted

    def _failure(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"bench: {where} failed: {'; '.join(p.strip() for p in problems)}",
              file=sys.stderr)


def keep_going(start: float, walls: list, seconds: float, minimum: int) -> bool:
    """Start another call until `minimum` calls are made, then unless it
    would end after `seconds`."""
    elapsed = perf_counter() - start
    if len(walls) < minimum:
        return elapsed < CALL_CAP_S
    return elapsed + statistics.fmean(walls) <= seconds


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_untraced(loop: Loop, seconds: float) -> None:
    """Calls on input sets k = 0, 1, ... with tracing off."""
    start = perf_counter()
    while not loop.walls or keep_going(start, loop.walls, seconds, loop.workload.min_calls):
        loop.call(loop.attempted)


def run_traced(loop: Loop, seconds: float, tracer_cls):
    """Pairs of an untraced and a traced call on input set k = 0, 1, ..."""
    pairs, tracers = [], []
    start = perf_counter()
    while not pairs or keep_going(start, [a + b for a, b in pairs], seconds,
                                  loop.workload.min_calls):
        k = len(pairs)
        plain = loop.call(k)
        tracer = tracer_cls()
        with tracer:
            pairs.append((plain, loop.call(k)))
        tracers.append(tracer)
    probe = tracer_cls()
    with probe:
        loop.workload.probe()
    return pairs, tracers, probe


TIMES = ("self_s", "us_per_call", "epoch_ms")


def call_values(tracer) -> dict[str, float]:
    """Per-layer values of one traced call."""
    vals: dict[str, float] = dict(tracer.counts)
    for layer, s in tracer.layer_stats().items():
        vals[f"{layer}.calls"] = s["calls"]
        vals[f"{layer}.self_s"] = s["self_s"]
        if s["calls"]:
            vals[f"{layer}.us_per_call"] = s["self_s"] / s["calls"] * 1e6
    for layer in ("sim.rollout_low_level", "sim.rollout_random_actions"):
        if vals.get(f"{layer}.calls") and f"{layer}.insertions" in vals:
            vals[f"{layer}.insert_ratio"] = vals[f"{layer}.insertions"] / vals[f"{layer}.calls"]
    fit = "training.fit_parameters"
    if vals.get(f"{fit}.epochs"):
        vals[f"{fit}.epoch_ms"] = vals[f"{fit}.self_s"] / vals[f"{fit}.epochs"] * 1e3
    return vals


def layer_values(pairs, tracers, probe) -> tuple[dict, set]:
    """Per-layer values per call.  Counts come from the traced call on input
    set 0, so they repeat exactly for a seed; times are medians over the
    traced calls.  `ms_per_call` comes from the probe alone."""
    per_call = [call_values(t) for t in tracers]
    vals = dict(per_call[0])
    for name in vals:
        if name.endswith(TIMES):
            vals[name] = statistics.median(v[name] for v in per_call if name in v)
    for layer, s in probe.layer_stats().items():
        if s["calls"]:
            vals[f"{layer}.ms_per_call"] = s["self_s"] / s["calls"] * 1e3
    vals["trace_overhead_frac"] = statistics.median(t / p for p, t in pairs) - 1.0
    return vals, tracers[0].present


def select(specs, vals, present) -> dict:
    """The metrics BENCHMARK.json names, with their units.  A layer that ran
    no call reads 0; a metric whose public name is gone reads null."""
    out = {}
    for spec in specs:
        name = spec["name"]
        value = vals.get(name)
        layer = name.rsplit(".", 1)[0]
        if value is None and layer in present and vals.get(f"{layer}.calls") == 0:
            value = 0
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "belieffit" / "__init__.py").is_file():
        fail(f"package source not found under {SRC.relative_to(ROOT)}/belieffit")
    sys.path.insert(0, str(SRC))
    out_dir = OUT / args.workload

    if args.setup_only:
        t0 = perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, out_dir)
        print(repr(perf_counter() - t0))
        return 0

    import reference  # imports numpy, so not before the set-up child's timer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else [reference.host_factor(lambda: setup_seconds(args))
                                   for _ in range(SETUP_REPS)]

    import belieffit
    import tracer
    import workloads

    if Path(belieffit.__file__).resolve().parent != SRC / "belieffit":
        fail(f"imported belieffit from {belieffit.__file__}, not from the checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    loop = Loop(workloads.WORKLOADS[args.workload](args.seed, out_dir), reference.host_factor)
    w = loop.workload
    print("bench", json.dumps({"workload": w.name, "trace": args.trace,
                               "seconds": args.seconds, **metadata(args.seed)}))

    if args.trace:
        pairs, tracers, probe = run_traced(loop, args.seconds, tracer.Tracer)
        loop.finish()
        with open(out_dir / "spans.jsonl", "w") as fh:
            for k, t in enumerate(tracers):
                t.write(fh, k)
        vals, present = layer_values(pairs, tracers, probe)
        metrics = select(spec["per_layer"], vals, present)
        print(f"{len(pairs)} untraced and {len(pairs)} traced calls; spans in "
              f"{out_dir.relative_to(ROOT)}/spans.jsonl")
    else:
        run_untraced(loop, args.seconds)
        loop.finish()
        vals = {
            "setup_s": statistics.median(s / f for s, f in setup),
            "items_per_s": statistics.median(loop.rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = select(spec["end_to_end"], vals, set())
        (out_dir / "calls.json").write_text(json.dumps(
            {"wall_s": loop.walls, "host_factor": loop.factors, "rate": loop.rates,
             "items_per_call": w.items_per_call}))
        name, unit = REPORT_NAMES[w.name]
        walls, factors = loop.walls, loop.factors
        raw = [0.0 if r == 0 else w.items_per_call / t for r, t in zip(loop.rates, walls)]
        print(f"host slowness vs reference speed: median {statistics.median(factors):.3f}, "
              f"range {min(factors):.3f}-{max(factors):.3f} over {len(factors)} calls")
        print(f"setup_s {vals['setup_s']:.4f} s at reference speed, median of {len(setup)} "
              f"fresh interpreters; as measured: "
              f"{', '.join(f'{s:.4f}' for s, _ in setup)} s")
        for label, rate in (("at reference speed", vals["items_per_s"]),
                            ("as measured", statistics.median(raw))):
            value = rate if unit != "s" else (w.items_per_call / rate if rate else math.inf)
            print(f"{name} {value:.4f} {unit} {label}, median over {len(walls)} calls "
                  f"of {w.items_per_call} {w.item}")
        q = quartiles(walls)
        print(f"call wall median {statistics.median(walls):.4f} s, quartiles "
              f"{q[0]:.4f}-{q[2]:.4f} s, max {max(walls):.4f} s")
        print(f"peak_rss_mb {vals['peak_rss_mb']:.2f} MB")

    print(f"error_rate {loop.failed / loop.attempted} fraction "
          f"({loop.failed} failed / {loop.attempted} attempted)")
    for file_name, digest in loop.digests.items():
        print(f"sha256 {file_name} {digest} (input set 0, for information)")
    for metric, m in metrics.items():
        if m["value"] != 0:  # layers a workload never calls read 0
            print(f"  {metric} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
