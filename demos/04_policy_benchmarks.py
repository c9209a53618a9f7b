"""Small-scale runs of the three benchmark studies.

Compares the full belief-updating policy against its ablations on position
estimation, single-hole insertion, and the five-peg assembly task.  The CLI
runs the full-size versions; this script keeps trial counts small enough to
finish in about a minute.

Run: python demos/04_policy_benchmarks.py
"""

from belieffit import EnvConfig, SensorModel, SpiralParams
from belieffit.experiments import ExperimentSpec, run_experiment

config = EnvConfig()
sensors = SensorModel()
learned = sensors.filter_models()  # the filters hold the sensor truth


def spec(kind, trials, **kwargs):
    return ExperimentSpec(
        kind=kind, env=config, spiral=SpiralParams(), sensors=sensors,
        learned=learned, trials=trials, seed=123, **kwargs,
    )


# --- study 1: position estimation over repeated interactions ---------------
print("=== position estimation (40 trials, 5 interactions each) ===")
rows, _ = run_experiment(spec("position_estimation", 40, steps=5))
for variant in ("full_approach", "frame_by_frame"):
    means = [
        r.value for r in rows
        if r.variant == variant and r.metric == "pos_error_mean"
    ]
    curve = " -> ".join(f"{v*100:.2f}" for v in means)
    print(f"  {variant:15s} mean error [cm]: {curve}")
print("  Sequential fusion drives the error down; frame-by-frame re-noises it.")

# --- study 2: insertion with a known-matching hole --------------------------
print()
print("=== matching insertion (60 trials, 10 attempts max) ===")
rows, _ = run_experiment(spec("matching_insertion", 60))
for variant in ("full_approach", "frame_by_frame", "sampled_initial", "fixed_initial"):
    final = next(
        r.value for r in rows
        if r.variant == variant and r.metric == "success_rate" and r.step == 10
    )
    print(f"  {variant:15s} success within 10 attempts: {final:.2f}")

# --- study 3: five-peg assembly ----------------------------------------------
print()
print("=== assembly: 5 holes, 3 types, cap 30 per peg (30 trials) ===")
rows, _ = run_experiment(spec("assembly", 30))
for variant in ("full_approach", "failure_plus_position", "failure_only"):
    attempts = next(
        r.value for r in rows
        if r.variant == variant and r.metric == "cum_attempts_mean" and r.step == 5
    )
    rate = next(
        r.value for r in rows
        if r.variant == variant and r.metric == "intervention_rate"
    )
    print(f"  {variant:22s} mean attempts {attempts:5.1f}   interventions {rate:.3f}")
print("  Using both sensors beats position-only, which beats outcome-only.")
