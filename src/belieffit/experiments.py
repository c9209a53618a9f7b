"""Monte-Carlo experiment harness for the three benchmark studies.

Worlds, detections and peg orders are derived from (master seed, trial) only
and built once per trial, so every variant faces the identical sequence of
environments; episode noise additionally keys on the variant.  Each trial
draws only from its own streams, so its rows do not depend on how many trials
a run has.  A trial's detected beliefs are built once, and each variant
steps its own copy of them.

A study builds every (variant, trial) task and `policy.run_tasks` drives
them together in lockstep rounds; since each task draws only from its own
stream, its rows equal those of the task run alone.  Step rows are tuples
in `STEP_COLUMNS` order, which the CLI writes as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter

import numpy as np

from .beliefs import MAX_HORIZON, BeliefArrays, EnvConfig, PegType
from .errors import ConfigurationError, InvalidInputError
from .filters import FilterModels
from .policy import (
    AssemblyResult,
    PolicyModels,
    PolicyVariant,
    StepRecord,
    TerminalStatus,
    assembly_task,
    initial_state,
    run_tasks,
    steps_task,
)
from .seeding import (
    STREAM_DETECT,
    STREAM_EPISODE,
    STREAM_PEGS,
    STREAM_WORLD,
    derive_rng,
)
from .sensors import SensorModel
from .sim import SpiralParams, World, spawn_world

KIND_POSITION = "position_estimation"
KIND_MATCHING = "matching_insertion"
KIND_ASSEMBLY = "assembly"

KIND_IDS = {KIND_POSITION: 1, KIND_MATCHING: 2, KIND_ASSEMBLY: 3}

DEFAULT_VARIANTS = {
    KIND_POSITION: (PolicyVariant.FULL_APPROACH, PolicyVariant.FRAME_BY_FRAME),
    KIND_MATCHING: (
        PolicyVariant.FULL_APPROACH,
        PolicyVariant.FRAME_BY_FRAME,
        PolicyVariant.SAMPLED_INITIAL,
        PolicyVariant.FIXED_INITIAL,
    ),
    KIND_ASSEMBLY: (
        PolicyVariant.FULL_APPROACH,
        PolicyVariant.FAILURE_PLUS_POSITION,
        PolicyVariant.FAILURE_ONLY,
    ),
}

ATTEMPT_HIST_BIN = 6

METRIC_COLUMNS = ("experiment", "variant", "trial", "step", "metric", "value", "seed")
STEP_COLUMNS = (
    "experiment", "variant", "trial", "peg_index", "peg_type", "step",
    "chosen_hole", "start_x", "start_y", "beta", "mu_x", "mu_y",
    "cov_xx", "cov_xy", "cov_yy", "xi", "fitted", "pos_error", "status", "seed",
)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    variant: str
    trial: int
    step: int
    metric: str
    value: float
    seed: int

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise InvalidInputError("metric values must be finite")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    env: EnvConfig
    spiral: SpiralParams
    sensors: SensorModel
    learned: FilterModels
    trials: int = 100
    seed: int = 0
    variants: tuple[PolicyVariant, ...] = ()
    steps: int = 5
    step_cap: int = 30

    def __post_init__(self):
        if self.kind not in KIND_IDS:
            raise ConfigurationError(f"unknown experiment kind: {self.kind}")
        if self.trials < 1:
            raise ConfigurationError("need at least one trial")
        if not (1 <= self.steps <= MAX_HORIZON and 1 <= self.step_cap <= MAX_HORIZON):
            raise ConfigurationError(f"steps and step cap must lie in [1, {MAX_HORIZON}]")
        if not self.variants:
            object.__setattr__(self, "variants", DEFAULT_VARIANTS[self.kind])
        for i, variant in enumerate(self.variants):  # a repeat would write every row twice
            if variant in self.variants[:i]:
                raise ConfigurationError(f"variant {variant.value!r} named twice")

    @property
    def models(self) -> PolicyModels:
        return PolicyModels(
            spiral=self.spiral, sensor=self.sensors, filters=self.learned
        )


def _variant_key(variant: PolicyVariant) -> int:
    return list(PolicyVariant).index(variant)


def _episode_rng(spec: ExperimentSpec, trial: int, variant: PolicyVariant) -> np.random.Generator:
    return derive_rng(spec.seed, KIND_IDS[spec.kind], STREAM_EPISODE, trial, _variant_key(variant))


def _step_rows(spec: ExperimentSpec, variant: PolicyVariant, trial: int, peg_index: int,
               peg: PegType, records: list[StepRecord], status: TerminalStatus) -> list[tuple]:
    """The `STEP_COLUMNS` rows of one episode's records."""
    episode = (spec.kind, variant.value, trial, peg_index, peg.value)
    rows = []
    for t, chosen, start, beta, mean, ((xx, xy), (_, yy)), xi, fitted, error, _ in records:
        rows.append((*episode, t, chosen, *start, int(beta), *mean, xx, xy, yy,
                     "|".join(map(repr, xi)), int(fitted), error, status.value, spec.seed))
    return rows


def _single_hole_setup(
    spec: ExperimentSpec, trial: int, matched: bool
) -> tuple[World, PegType, BeliefArrays]:
    kind_id = KIND_IDS[spec.kind]
    env1 = replace(spec.env, n_holes=1)
    world = spawn_world(
        env1, derive_rng(spec.seed, kind_id, STREAM_WORLD, trial), spec.spiral
    )
    hole_type = world.holes[0].hole_type
    peg = PegType(hole_type if matched else hole_type % env1.n_types + 1)
    state = initial_state(world, derive_rng(spec.seed, kind_id, STREAM_DETECT, trial))
    return world, peg, state


def _single_hole_episodes(spec: ExperimentSpec, matched: bool, horizon: int):
    """Every (variant, trial) episode of a single-hole study, run together,
    each on its own copy of the trial's detected beliefs.  Returns the
    setups and, per variant, each trial's (records, status)."""
    setups = [_single_hole_setup(spec, trial, matched) for trial in range(spec.trials)]
    tasks = []
    for variant in spec.variants:
        for trial, (world, peg, state) in enumerate(setups):
            rng = _episode_rng(spec, trial, variant)
            tasks.append((steps_task(state.copy(), world, peg, variant, spec.models, horizon,
                                     rng), rng))
    results = run_tasks(tasks, spec.spiral, spec.env)
    return setups, [results[i:i + spec.trials] for i in range(0, len(results), spec.trials)]


def run_position_estimation(spec: ExperimentSpec):
    """Estimation error over repeated interactions with a mismatched peg.

    The mismatch keeps insertion impossible, so every trial provides the full
    sequence of estimate errors; only the position-update rule differs
    between variants.
    """
    metric_rows: list[ResultRow] = []
    step_rows: list[tuple] = []
    setups, episodes = _single_hole_episodes(spec, matched=False, horizon=spec.steps)
    for variant, results in zip(spec.variants, episodes):
        errors = []
        for trial, ((world, peg, state), (records, status)) in enumerate(zip(setups, results)):
            initial_error = float(np.linalg.norm(state.means[0] - world.holes[0].position))
            errors.append([initial_error] + [r.pos_error for r in records])
            step_rows += _step_rows(spec, variant, trial, 0, peg, records, status)
        errors = np.array(errors)
        for t in range(spec.steps + 1):
            metric_rows.append(
                ResultRow(spec.kind, variant.value, -1, t, "pos_error_mean",
                          float(errors[:, t].mean()), spec.seed)
            )
            metric_rows.append(
                ResultRow(spec.kind, variant.value, -1, t, "pos_error_std",
                          float(errors[:, t].std()), spec.seed)
            )
    return metric_rows, step_rows


def run_matching_insertion(spec: ExperimentSpec):
    """Success-within-t curves on a task whose single hole matches the peg."""
    horizon = spec.env.horizon_high
    metric_rows: list[ResultRow] = []
    step_rows: list[tuple] = []
    setups, episodes = _single_hole_episodes(spec, matched=True, horizon=horizon)
    for variant, results in zip(spec.variants, episodes):
        steps_to_success = []
        for trial, ((_, peg, _), (records, status)) in enumerate(zip(setups, results)):
            steps_to_success.append(
                len(records) if status is TerminalStatus.SUCCESS else None
            )
            step_rows += _step_rows(spec, variant, trial, 0, peg, records, status)
        for t in range(1, horizon + 1):
            rate = sum(1 for s in steps_to_success if s is not None and s <= t)
            metric_rows.append(
                ResultRow(spec.kind, variant.value, -1, t, "success_rate",
                          rate / spec.trials, spec.seed)
            )
    return metric_rows, step_rows


def run_assembly(spec: ExperimentSpec):
    """Multi-peg task: cumulative attempts and intervention rates."""
    kind_id = KIND_IDS[spec.kind]
    metric_rows: list[ResultRow] = []
    step_rows: list[tuple] = []
    n_pegs = spec.env.n_holes
    setups = []
    for trial in range(spec.trials):
        world = spawn_world(
            spec.env, derive_rng(spec.seed, kind_id, STREAM_WORLD, trial), spec.spiral
        )
        peg_rng = derive_rng(spec.seed, kind_id, STREAM_PEGS, trial)
        types = [h.hole_type for h in world.holes]
        setups.append((world, [PegType(types[i]) for i in peg_rng.permutation(len(types))]))
    tasks = []
    for variant in spec.variants:
        for trial, (world, pegs) in enumerate(setups):
            rng = _episode_rng(spec, trial, variant)
            tasks.append((assembly_task(world, pegs, variant, spec.models, rng,
                                        step_cap=spec.step_cap), rng))
    results = run_tasks(tasks, spec.spiral, spec.env)
    for v, variant in enumerate(spec.variants):
        assemblies: list[AssemblyResult] = results[v * spec.trials:(v + 1) * spec.trials]
        for trial, result in enumerate(assemblies):
            for peg_index, episode in enumerate(result.episodes):
                step_rows += _step_rows(spec, variant, trial, peg_index, episode.peg,
                                        episode.records, episode.status)

        interventions = sum(a.interventions for a in assemblies)
        metric_rows.append(
            ResultRow(spec.kind, variant.value, -1, 0, "intervention_rate",
                      interventions / (spec.trials * n_pegs), spec.seed)
        )
        cumulative = np.array([a.cumulative_attempts for a in assemblies])
        for n in range(1, n_pegs + 1):
            metric_rows.append(
                ResultRow(spec.kind, variant.value, -1, n, "cum_attempts_mean",
                          float(cumulative[:, n - 1].mean()), spec.seed)
            )
            metric_rows.append(
                ResultRow(spec.kind, variant.value, -1, n, "cum_attempts_std",
                          float(cumulative[:, n - 1].std()), spec.seed)
            )
        totals = cumulative[:, -1]
        n_bins = int(np.ceil(spec.step_cap * n_pegs / ATTEMPT_HIST_BIN))
        for b in range(n_bins):
            lo, hi = b * ATTEMPT_HIST_BIN, (b + 1) * ATTEMPT_HIST_BIN
            count = int(np.sum((totals >= lo) & (totals < hi)))
            metric_rows.append(
                ResultRow(spec.kind, variant.value, -1, b, "attempts_hist",
                          float(count), spec.seed)
            )
    return metric_rows, step_rows


RUNNERS = {
    KIND_POSITION: run_position_estimation,
    KIND_MATCHING: run_matching_insertion,
    KIND_ASSEMBLY: run_assembly,
}


def run_experiment(spec: ExperimentSpec):
    metric_rows, step_rows = RUNNERS[spec.kind](spec)
    metric_rows.sort(key=attrgetter("experiment", "variant", "trial", "step", "metric"))
    step_rows.sort(key=itemgetter(0, 1, 2, 3, 5))  # experiment, variant, trial, peg_index, step
    return metric_rows, step_rows
