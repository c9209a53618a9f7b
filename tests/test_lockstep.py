"""The studies' lockstep rounds against running each task alone.

A study builds every (variant, trial) task and `policy.run_tasks` drives
them together: one round draws each live task's rollout numbers from its own
stream and runs one `rollout_block` pass over the round.  The reference runs
the same tasks one at a time, in the order the study builds them, with one
`rollout_low_level` a step.
Every metric row, every step row and every task's generator state after the
study must be equal.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from belieffit import (
    EnvConfig,
    HoleGroundTruth,
    PegType,
    PolicyVariant,
    SensorModel,
    SpiralParams,
    experiments,
    policy,
    rollout_low_level,
    sim,
)
from belieffit.cli import main
from belieffit.experiments import KIND_ASSEMBLY, KIND_IDS, ExperimentSpec, run_experiment

R_MAX = SpiralParams().r_max


def lockstep(spec):
    """The study as it runs, and each task's generator state after it."""
    states = []

    def run_tasks(tasks, spiral, env):
        results = policy.run_tasks(tasks, spiral, env)
        states.extend(rng.bit_generator.state for _, rng in tasks)
        return results

    with mock.patch.object(experiments, "run_tasks", run_tasks):
        return run_experiment(spec), states


def one_rollout_at_a_time(tasks, spiral, env):
    """`run_tasks` as a loop: each task alone, one `rollout_low_level` a
    request."""
    results = []
    for task, rng in tasks:
        outcome = None
        while True:
            try:
                start, position, matched = task.send(outcome)
            except StopIteration as stop:
                results.append(stop.value)
                break
            hole = HoleGroundTruth(1 if matched else 2, position)
            out = rollout_low_level(start, PegType(1), hole, spiral, env, rng)
            outcome = out.success, out.closest_approach, out.trace[-1]
    return results


def alone(spec):
    """The study with each task run alone, in task order, with one rollout
    at a time, and each task's generator state after it."""
    states = []

    def run_tasks(tasks, spiral, env):
        results = []
        for task, rng in tasks:
            results += one_rollout_at_a_time([(task, rng)], spiral, env)
            states.append(rng.bit_generator.state)
        return results

    with mock.patch.object(experiments, "run_tasks", run_tasks):
        return run_experiment(spec), states


@st.composite
def specs(draw):
    """A study with the edge cases among its draws: every variant, short
    rollouts, a workspace so tight that clipping acts, step caps that force
    interventions, and certain or rare alignment."""
    kind = draw(st.sampled_from(sorted(KIND_IDS)))
    bound = draw(st.sampled_from([0.0, 0.004]))
    # a single hole fits a 4 mm placement box; two holes need room for
    # their separation
    room = 0.03 if kind == KIND_ASSEMBLY else 0.002
    half = draw(st.sampled_from([0.25, bound + R_MAX + room]))
    env = EnvConfig(
        n_holes=draw(st.integers(2, 3)) if half == 0.25 else 2,
        n_types=draw(st.integers(2, 4)),
        horizon_high=draw(st.integers(1, 8)),
        horizon_low=draw(st.integers(1, 30)),
        detector_error_bound=bound,
        workspace_min=(-half, -half),
        workspace_max=(half, half),
        capture_radius=draw(st.sampled_from([0.0025, 0.01])),
        alignment_rate=draw(st.sampled_from([0.05, 0.36, 1.0])),
    )
    sensors = SensorModel()
    variants = draw(st.lists(st.sampled_from(list(PolicyVariant)), min_size=1, max_size=6,
                             unique=True))
    return ExperimentSpec(
        kind=kind,
        env=env,
        spiral=SpiralParams(sigma_wiggle=draw(st.sampled_from([0.0, 0.00125, 0.01]))),
        sensors=sensors,
        learned=sensors.filter_models(),
        trials=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        variants=tuple(variants),
        steps=draw(st.integers(1, 6)),
        step_cap=draw(st.integers(1, 6)),
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(spec=specs(), block_rollouts=st.sampled_from([None, 1, 2]))
def test_study_in_lockstep_equals_each_task_alone(spec, block_rollouts):
    block_bytes = (sim.BLOCK_BYTES if block_rollouts is None
                   else block_rollouts * 16 * spec.env.horizon_low)
    with mock.patch.object(sim, "BLOCK_BYTES", block_bytes):
        (metrics, steps), states = lockstep(spec)
    (ref_metrics, ref_steps), ref_states = alone(spec)
    assert metrics == ref_metrics
    assert steps == ref_steps
    assert len(states) == len(spec.variants) * spec.trials
    assert states == ref_states


def test_rounds_span_several_blocks_at_default_size():
    # 3 rollouts to a block, so the rounds of 8 tasks take three passes each
    spec = ExperimentSpec(
        kind=KIND_ASSEMBLY, env=EnvConfig(horizon_low=20_000, n_holes=2), spiral=SpiralParams(),
        sensors=SensorModel(), learned=SensorModel().filter_models(), trials=4, seed=3,
        variants=(PolicyVariant.FULL_APPROACH, PolicyVariant.SAMPLED_INITIAL), step_cap=3,
    )
    assert sim.block_size(spec.env.horizon_low) == 3
    (metrics, steps), states = lockstep(spec)
    assert ((metrics, steps), states) == alone(spec)


def test_a_task_that_raises_is_exit_2_with_one_line(tmp_path, capsys):
    # the third start sample is not finite, so the kernel rejects its round
    draws = iter(range(1000))
    real = policy.sample_gaussian

    def sample_gaussian(mean, cov, rng):
        start = real(mean, cov, rng)
        return start * np.nan if next(draws) == 2 else start

    with mock.patch.object(policy, "sample_gaussian", sample_gaussian):
        code = main(["experiment", "matching_insertion", "--trials", "4", "--seed", "1",
                     "--variants", "sampled_initial", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: start estimate must be a finite 2-vector\n"
    assert not any(tmp_path.iterdir())
