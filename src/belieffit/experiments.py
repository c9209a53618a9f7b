"""Monte-Carlo experiment harness for the three benchmark studies.

Worlds and peg orders are derived from (master seed, trial) only and built
once per trial, so every variant faces the identical sequence of worlds;
episode noise additionally keys on the variant.  In the single-hole studies
a trial's detected beliefs are built once, from a stream keyed on (master
seed, trial), and each variant steps its own copy of them.  An `assembly`
task detects its beliefs from its episode stream, so the variants of one
trial start from different detections.  Each trial draws only from its own
streams, so its rows do not depend on how many trials a run has.

One function, `_study`, runs every study: it builds each (variant, trial)
task, `policy.run_tasks` drives them together in lockstep rounds, and it
turns the episodes of each task's `AssemblyResult` into step rows; since
each task draws only from its own stream, its rows equal those of the task
run alone.  Step rows are tuples in `STEP_COLUMNS` order and metric rows
`ResultRow`s; the CLI writes both as they are.  Each study's runner makes
its metric rows with `_row`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .beliefs import MAX_HORIZON, BeliefArrays, EnvConfig, PegType, check_integer
from .errors import ConfigurationError, InvalidInputError
from .filters import FilterModels
from .policy import (
    AssemblyResult,
    PolicyModels,
    PolicyVariant,
    TerminalStatus,
    assembly_task,
    init_beliefs,
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

DEFAULT_TRIALS = {KIND_POSITION: 100, KIND_MATCHING: 150, KIND_ASSEMBLY: 100}
# each peg's attempt horizon; matching_insertion's is the config's horizon_high
DEFAULT_STEPS = {KIND_POSITION: 5, KIND_ASSEMBLY: 30}

ATTEMPT_HIST_BIN = 6

STEP_COLUMNS = (
    "experiment", "variant", "trial", "peg_index", "peg_type", "step",
    "chosen_hole", "start_x", "start_y", "beta", "mu_x", "mu_y",
    "cov_xx", "cov_xy", "cov_yy", "xi", "fitted", "pos_error", "status", "seed",
)


class ResultRow(NamedTuple):
    """One `metrics.csv` row, its fields in the file's column order."""

    experiment: str
    variant: str
    trial: int
    step: int
    metric: str
    value: float
    seed: int


METRIC_COLUMNS = ResultRow._fields


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    env: EnvConfig
    spiral: SpiralParams
    sensors: SensorModel
    learned: FilterModels
    trials: int | None = None
    seed: int = 0
    variants: tuple[PolicyVariant, ...] = ()
    steps: int | None = None

    def __post_init__(self):
        if self.kind not in KIND_IDS:
            raise ConfigurationError(f"unknown experiment kind: {self.kind}")
        if self.trials is None:
            object.__setattr__(self, "trials", DEFAULT_TRIALS[self.kind])
        object.__setattr__(self, "trials", check_integer(self.trials, "trials", ConfigurationError))
        if self.trials < 1:
            raise ConfigurationError("need at least one trial")
        if self.steps is None:
            object.__setattr__(self, "steps", DEFAULT_STEPS.get(self.kind, self.env.horizon_high))
        object.__setattr__(self, "steps", check_integer(self.steps, "steps", ConfigurationError))
        if not 1 <= self.steps <= MAX_HORIZON:
            raise ConfigurationError(f"steps must lie in [1, {MAX_HORIZON}]")
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


def _episode_rng(spec: ExperimentSpec, trial: int, variant: PolicyVariant) -> np.random.Generator:
    variant_key = list(PolicyVariant).index(variant)
    return derive_rng(spec.seed, KIND_IDS[spec.kind], STREAM_EPISODE, trial, variant_key)


def _study(spec: ExperimentSpec, setup, task) -> tuple[list[list], list[tuple]]:
    """Every (variant, trial) task of a study, run together in lockstep.

    `setup(trial)` builds a trial's set-up once, and `task(variant, set_up,
    rng)` a variant's task on it, drawing from the variant's episode stream
    and returning an `AssemblyResult` whose episodes are in peg order.  The
    task list is allocated before the first world is spawned, so a trial
    count that no list can hold fails at once.  Returns, per variant, each
    trial's (set-up, result), and the step rows of every episode.
    """
    n = len(spec.variants) * spec.trials
    try:
        tasks = [None] * n
    except (MemoryError, OverflowError):  # OverflowError: more entries than an index holds
        raise MemoryError(f"{n} study tasks") from None
    setups = [setup(trial) for trial in range(spec.trials)]
    keys = list(product(spec.variants, enumerate(setups)))
    for i, (variant, (trial, set_up)) in enumerate(keys):
        rng = _episode_rng(spec, trial, variant)
        tasks[i] = task(variant, set_up, rng), rng
    results = run_tasks(tasks, spec.spiral, spec.env)
    step_rows, xi_texts = [], {}
    for (variant, (trial, set_up)), result in zip(keys, results):
        for peg_index, (peg, records, status) in enumerate(result.episodes):
            episode = (spec.kind, variant.value, trial, peg_index, peg.value)
            for t, chosen, start, beta, mean, ((xx, xy), (_, yy)), xi, error, _ in records:
                xi_text = xi_texts.get(xi)
                if xi_text is None:
                    xi_text = "|".join(map(repr, xi))
                    if 0.0 not in xi:  # 0.0 == -0.0, so a zero's text is not cached
                        xi_texts[xi] = xi_text
                beta = int(beta)  # also the chosen hole's new fitted flag
                step_rows.append((*episode, t, chosen, *start, beta, *mean, xx, xy, yy,
                                  xi_text, beta, error, status.value, spec.seed))
    by_variant = [list(zip(setups, results[i:i + spec.trials])) for i in range(0, n, spec.trials)]
    return by_variant, step_rows


def _single_hole_study(spec: ExperimentSpec, matched: bool):
    """`_study` on one-hole worlds: each trial's world, peg and detected
    beliefs, and each variant's episode of up to `spec.steps` attempts on
    its own copy of the beliefs."""
    kind_id = KIND_IDS[spec.kind]
    env1 = replace(spec.env, n_holes=1)

    def setup(trial: int) -> tuple[World, PegType, BeliefArrays]:
        world = spawn_world(env1, derive_rng(spec.seed, kind_id, STREAM_WORLD, trial), spec.spiral)
        hole_type = world.holes[0].hole_type
        peg = PegType(hole_type if matched else hole_type % env1.n_types + 1)
        detector = derive_rng(spec.seed, kind_id, STREAM_DETECT, trial)
        return world, peg, init_beliefs(world, detector)

    def task(variant: PolicyVariant, set_up, rng: np.random.Generator):
        world, peg, state = set_up
        episode = yield from steps_task(state.copy(), world, peg, variant, spec.models,
                                        spec.steps, rng)
        return AssemblyResult([episode])

    return _study(spec, setup, task)


def _row(spec: ExperimentSpec, variant: PolicyVariant, step: int, metric: str,
         value: float) -> ResultRow:
    """A metric's aggregate (trial -1) row; every metric row is made here."""
    if not np.isfinite(value):
        raise InvalidInputError("metric values must be finite")
    return ResultRow(spec.kind, variant.value, -1, step, metric, value, spec.seed)


def _mean_std_rows(spec: ExperimentSpec, variant: PolicyVariant, name: str, steps,
                   values: np.ndarray) -> list[ResultRow]:
    """`{name}_mean` and `{name}_std` over trials at each step, where
    `values[:, j]` holds every trial's value at `steps[j]`."""
    return [_row(spec, variant, step, f"{name}_{stat}", float(getattr(column, stat)()))
            for step, column in zip(steps, values.T) for stat in ("mean", "std")]


def run_position_estimation(spec: ExperimentSpec):
    """Estimation error over repeated interactions with a mismatched peg.

    The mismatch keeps insertion impossible, so every trial provides the full
    sequence of estimate errors; only the position-update rule differs
    between variants.
    """
    by_variant, step_rows = _single_hole_study(spec, matched=False)
    metric_rows: list[ResultRow] = []
    for variant, trials in zip(spec.variants, by_variant):
        errors = [[float(np.linalg.norm(state.means[0] - world.holes[0].position))]
                  + [r.pos_error for r in result.episodes[0].records]
                  for (world, _, state), result in trials]
        metric_rows += _mean_std_rows(spec, variant, "pos_error", range(spec.steps + 1),
                                      np.array(errors))
    return metric_rows, step_rows


def run_matching_insertion(spec: ExperimentSpec):
    """Success-within-t curves on a task whose single hole matches the peg."""
    by_variant, step_rows = _single_hole_study(spec, matched=True)
    metric_rows: list[ResultRow] = []
    for variant, trials in zip(spec.variants, by_variant):
        steps_to_success = [result.episodes[0].attempts for _, result in trials
                            if result.episodes[0].status is TerminalStatus.SUCCESS]
        succeeded_by = np.cumsum(np.bincount(steps_to_success, minlength=spec.steps + 1)).tolist()
        metric_rows += [_row(spec, variant, t, "success_rate", succeeded_by[t] / spec.trials)
                        for t in range(1, spec.steps + 1)]
    return metric_rows, step_rows


def run_assembly(spec: ExperimentSpec):
    """Multi-peg task: cumulative attempts and intervention rates."""
    kind_id = KIND_IDS[spec.kind]
    n_pegs = spec.env.n_holes

    def setup(trial: int) -> tuple[World, list[PegType]]:
        world = spawn_world(spec.env, derive_rng(spec.seed, kind_id, STREAM_WORLD, trial),
                            spec.spiral)
        order = derive_rng(spec.seed, kind_id, STREAM_PEGS, trial).permutation(n_pegs)
        return world, [PegType(world.holes[i].hole_type) for i in order]

    def task(variant: PolicyVariant, set_up, rng: np.random.Generator):
        return assembly_task(*set_up, variant, spec.models, rng, step_cap=spec.steps)

    by_variant, step_rows = _study(spec, setup, task)
    metric_rows: list[ResultRow] = []
    for variant, trials in zip(spec.variants, by_variant):
        interventions = sum(a.interventions for _, a in trials)
        metric_rows.append(_row(spec, variant, 0, "intervention_rate",
                                interventions / (spec.trials * n_pegs)))
        cumulative = np.array([a.cumulative_attempts for _, a in trials])
        metric_rows += _mean_std_rows(spec, variant, "cum_attempts", range(1, n_pegs + 1),
                                      cumulative)
        # bins [6k, 6k + 6) of total attempts, the top one closed at the cap
        n_bins = -(-spec.steps * n_pegs // ATTEMPT_HIST_BIN)
        counts = np.bincount(np.minimum(cumulative[:, -1] // ATTEMPT_HIST_BIN, n_bins - 1),
                             minlength=n_bins)
        metric_rows += [_row(spec, variant, b, "attempts_hist", float(count))
                        for b, count in enumerate(counts.tolist())]
    return metric_rows, step_rows


RUNNERS = {
    KIND_POSITION: run_position_estimation,
    KIND_MATCHING: run_matching_insertion,
    KIND_ASSEMBLY: run_assembly,
}


def run_experiment(spec: ExperimentSpec):
    metric_rows, step_rows = RUNNERS[spec.kind](spec)
    metric_rows.sort(key=itemgetter(0, 1, 2, 3, 4))  # experiment, variant, trial, step, metric
    step_rows.sort(key=itemgetter(0, 1, 2, 3, 5))  # experiment, variant, trial, peg_index, step
    return metric_rows, step_rows
