"""High-level task policy: greedy hole selection and the attempt loop.

Each high-level step picks the hole with the best predicted fit probability,
moves to a start estimate chosen by the active variant, runs one low-level
rollout, and updates the chosen hole's belief from the outcome.  Variants
differ only in their `FEEDBACK` row:

  variant                start    position update  type evidence
  FULL_APPROACH          mean     Kalman           sensed match + outcome
  FAILURE_PLUS_POSITION  mean     Kalman           outcome
  FAILURE_ONLY           mean     none             outcome
  FRAME_BY_FRAME         mean     replace mean     none
  FIXED_INITIAL          mean     none             none
  SAMPLED_INITIAL        sample   none             none

A Kalman update reads the position sensor after a failure and the final tip
position after an insertion; "replace mean" sets the mean to that same
observation and keeps the covariance.

The step is resumable: `_step` is a generator that yields its rollout
request (start estimate, hole position, whether the peg matches) and is
resumed with the outcome.  `steps_task` chains steps into one peg's episode
and returns its `EpisodeLog`; `assembly_task` chains episodes into a
multi-peg task and returns their `AssemblyResult`.  `run_tasks` drives any
number of independent tasks in rounds, one `rollout_block` pass per round,
so a study runs all its (variant, trial) tasks together.  `run_episode`,
`run_assembly_task` and `high_level_step` run one task through `run_tasks`
too.

A task holds a trial's beliefs as one `BeliefArrays` and steps it in place;
`init_beliefs` detects them, and `run_episode` and `run_assembly_task` run
a task from detected or given beliefs.  A step chooses its hole with
`select_hole`, which scores every hole with `beliefs.fit_probability`, and
reads the position sensor with `sensors.sense_position` after a failure.
It works on Python floats from the chosen row to its `StepRecord`: it
reads the row once, updates it with `filters.position_posterior` and
`filters.type_posterior` and writes it back once.  `high_level_step` is
the same step on a list of belief objects.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from collections.abc import Generator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import (
    BeliefArrays,
    EnvConfig,
    GaussianBelief2,
    HoleBelief,
    HoleGroundTruth,
    PegType,
    TypeBelief,
    check_position,
    check_types,
    fit_probability,
    normalized,
    sample_gaussian,
)
from .errors import DegenerateEvidenceError, InvalidInputError, NoActionError
from .filters import (
    FilterModels,
    PositionNoiseModel,
    UNINFORMATIVE_MATCH_MODEL,
    position_posterior,
    type_posterior,
)
from .sensors import SensorModel, sense_match, sense_position
from .sim import SpiralParams, World, block_size, rollout_block, vision_detect, wiggle_rows

logger = logging.getLogger(__name__)

# Insertion pins down the hole position; treat the final tip position as a
# (numerically) noise-free observation of it.
INSERTION_NOISE = PositionNoiseModel(1e-12 * np.eye(2))

# A rollout request: the start estimate (x, y), the hole's position and
# whether the peg matches the hole.  Its outcome: success, the closest
# approach [m] and the last tip (x, y), the inserting tip after a success.
Request = tuple[tuple[float, float], np.ndarray, bool]
Outcome = tuple[bool, float, list[float]]
# a resumable computation that yields rollout requests and returns a result
Task = Generator[Request, Outcome, object]


class PolicyVariant(enum.Enum):
    FULL_APPROACH = "full_approach"
    FAILURE_PLUS_POSITION = "failure_plus_position"
    FAILURE_ONLY = "failure_only"
    FRAME_BY_FRAME = "frame_by_frame"
    FIXED_INITIAL = "fixed_initial"
    SAMPLED_INITIAL = "sampled_initial"


class PositionUpdate(enum.Enum):
    NONE = "none"
    KALMAN = "kalman"
    REPLACE = "replace"


class TypeEvidence(enum.Enum):
    NONE = "none"
    OUTCOME = "outcome"
    MATCH_AND_OUTCOME = "match_and_outcome"


@dataclass(frozen=True)
class Feedback:
    """What a variant feeds back after each attempt, and where it starts."""

    sample_start: bool
    position: PositionUpdate
    types: TypeEvidence


FEEDBACK = {
    PolicyVariant.FULL_APPROACH: Feedback(
        False, PositionUpdate.KALMAN, TypeEvidence.MATCH_AND_OUTCOME
    ),
    PolicyVariant.FAILURE_PLUS_POSITION: Feedback(
        False, PositionUpdate.KALMAN, TypeEvidence.OUTCOME
    ),
    PolicyVariant.FAILURE_ONLY: Feedback(False, PositionUpdate.NONE, TypeEvidence.OUTCOME),
    PolicyVariant.FRAME_BY_FRAME: Feedback(False, PositionUpdate.REPLACE, TypeEvidence.NONE),
    PolicyVariant.FIXED_INITIAL: Feedback(False, PositionUpdate.NONE, TypeEvidence.NONE),
    PolicyVariant.SAMPLED_INITIAL: Feedback(True, PositionUpdate.NONE, TypeEvidence.NONE),
}


@dataclass(frozen=True)
class PolicyModels:
    """Everything a step needs besides the world: controller parameters,
    ground-truth sensors, and the filters' learned parameters."""

    spiral: SpiralParams
    sensor: SensorModel
    filters: FilterModels


class StepRecord(NamedTuple):
    """One step: the chosen hole, the rollout's start and outcome beta (the
    hole's new fitted flag) and the hole's belief after the update as mean,
    cov and xi, all Python floats: start, mean (x, y), cov ((xx, xy), (yx, yy))."""

    t: int
    chosen: int
    start_estimate: tuple[float, float]
    beta: bool
    mean: tuple[float, float]
    cov: tuple[tuple[float, float], tuple[float, float]]
    xi: tuple[float, ...]
    pos_error: float
    evidence_reset: bool = False


class TerminalStatus(str, enum.Enum):
    SUCCESS = "success"
    STEP_CAP = "step_cap"
    INTERVENTION = "intervention"


class EpisodeLog(NamedTuple):
    """One peg's episode: its steps' records and how it ended."""

    peg: PegType
    records: list[StepRecord]
    status: TerminalStatus

    @property
    def attempts(self) -> int:
        return len(self.records)


@dataclass
class AssemblyResult:
    episodes: list[EpisodeLog]

    @property
    def attempts_per_peg(self) -> list[int]:
        return [e.attempts for e in self.episodes]

    @property
    def interventions(self) -> int:
        return sum(e.status is TerminalStatus.INTERVENTION for e in self.episodes)

    @property
    def cumulative_attempts(self) -> list[int]:
        return list(itertools.accumulate(self.attempts_per_peg))


def init_beliefs(world: World, rng: np.random.Generator) -> BeliefArrays:
    """Initial beliefs from one pass of the vision detector, two uniforms a hole."""
    config = world.config
    positions = np.array([hole.position for hole in world.holes])
    detections = vision_detect(positions, config.detector_error_bound, rng.random(positions.shape))
    return BeliefArrays.detected(detections, config.sigma_init, config.n_types)


def select_hole(state: BeliefArrays, peg: PegType, alpha: float) -> int:
    """Greedy argmax of `fit_probability` over unfitted holes; ties go to
    the lowest index, and with every unfitted score zero, to the first
    unfitted hole.  With every hole fitted there is nothing to choose, so
    NoActionError comes before the peg type is checked."""
    flags = state.fitted.tolist()
    if all(flags):
        raise NoActionError("every hole is already fitted")
    scores = fit_probability(state, peg, alpha)
    best = scores.index(max(scores))
    if flags[best]:  # all-zero scores with fitted holes in front
        best = flags.index(False)
    return best


def _updated_position(
    mean: tuple[float, float],
    cov: tuple,
    rule: PositionUpdate,
    outcome: Outcome,
    hole: HoleGroundTruth,
    models: PolicyModels,
    rng: np.random.Generator,
) -> tuple[tuple, tuple]:
    """Position posterior on floats: an insertion observes the inserting
    tip, a failure reads the position sensor."""
    success, closest, (o0, o1) = outcome
    if success:
        if rule is PositionUpdate.REPLACE:
            return (o0, o1), cov
        noise = INSERTION_NOISE.cov
    else:
        normals = rng.standard_normal(2)
        o0, o1 = sense_position(closest, hole.position, models.sensor, normals).tolist()
        noise = models.filters.position.cov
    m0, m1 = mean
    h0, h1 = o0 - m0, o1 - m1
    if rule is PositionUpdate.REPLACE:
        return (m0 + h0, m1 + h1), cov
    return position_posterior(mean, cov, (h0, h1), noise.tolist())


def _updated_type(
    prior: list[float],
    evidence: TypeEvidence,
    beta: bool,
    peg: PegType,
    hole: HoleGroundTruth,
    alpha: float,
    models: PolicyModels,
    rng: np.random.Generator,
) -> tuple[list[float], bool]:
    """Type posterior from the outcome, plus a fresh match verdict when the
    evidence includes it; degenerate evidence resets to uniform (and logs)."""
    if evidence is TypeEvidence.MATCH_AND_OUTCOME:
        o_match = sense_match(peg.value == hole.hole_type, models.sensor, rng.random())
        match_model = models.filters.match
    else:
        # Outcome evidence only: a uniform confusion factor cancels in the
        # normalizer, leaving the transition term.
        o_match, match_model = False, UNINFORMATIVE_MATCH_MODEL
    try:
        return normalized(type_posterior(prior, o_match, beta, peg, alpha, match_model)), False
    except DegenerateEvidenceError:
        logger.warning("degenerate type evidence; resetting belief to uniform")
        return [1.0 / len(prior)] * len(prior), True


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance, computed as `np.linalg.norm(a - b)` computes it."""
    d = a - b
    return math.sqrt(d.dot(d))


def _step(
    state: BeliefArrays,
    t: int,
    peg: PegType,
    world: World,
    variant: PolicyVariant,
    models: PolicyModels,
    rng: np.random.Generator,
) -> Task:
    """One choose-hole / rollout / belief-update iteration on `state`, as a
    task that yields its rollout request and returns its `StepRecord`.

    The package's one belief update: the chosen hole's row changes as the
    variant's `FEEDBACK` row says, each posterior is checked once before it
    is written, and every other row is left alone.  The row is read once
    into Python floats, updated on them and written back once.  Random
    draws come in a fixed order: start sample, rollout (drawn by
    `run_tasks`), position sensor (after a failure), match sensor.
    """
    config: EnvConfig = world.config
    feedback = FEEDBACK[variant]
    chosen = select_hole(state, peg, config.alpha)
    hole = world.holes[chosen]
    mean = tuple(state.means[chosen].tolist())
    (c00, c01), (c10, c11) = state.covs[chosen].tolist()
    cov = (c00, c01), (c10, c11)

    start = mean
    if feedback.sample_start:
        start = tuple(sample_gaussian(state.means[chosen], state.covs[chosen], rng).tolist())
    outcome = yield start, hole.position, peg.value == hole.hole_type
    beta = outcome[0]

    if feedback.position is not PositionUpdate.NONE:
        mean, cov = _updated_position(mean, cov, feedback.position, outcome, hole, models, rng)
        check_position(mean, cov)
        state.means[chosen], state.covs[chosen] = mean, cov
    xi, evidence_reset = state.xi[chosen].tolist(), False
    if feedback.types is not TypeEvidence.NONE:
        xi, evidence_reset = _updated_type(
            xi, feedback.types, beta, peg, hole, config.alpha, models, rng
        )
        check_types(xi)
        state.xi[chosen] = xi
    if beta:  # the chosen hole is unfitted, so beta is its new flag
        state.fitted[chosen] = True
    return StepRecord(t, chosen, start, beta, mean, cov, tuple(xi),
                      _distance(state.means[chosen], hole.position), evidence_reset)


def run_tasks(tasks: list[tuple[Task, np.random.Generator]], spiral: SpiralParams,
              env: EnvConfig) -> list:
    """Run independent tasks to their ends in lockstep rounds and return
    each one's result, in task order.

    A task is a pair (generator, rng).  The generator yields a rollout
    request (start estimate, hole position, whether the peg matches the
    hole), is resumed with the rollout's `Outcome` and returns its result;
    rng is the stream that it and its rollouts draw from, which no other
    task may share.  Each round draws every live task's alignment uniform
    and normal block from its own stream, in task order, runs the round's
    rollouts through `rollout_block` a block at a time, and resumes each
    task with its outcome, so every stream is read in the order of the task
    run alone.
    """
    results: list = [None] * len(tasks)
    outcomes: list = [None] * len(tasks)  # a task starts on None
    live = list(range(len(tasks)))
    horizon, rate = env.horizon_low, env.alignment_rate
    size = block_size(horizon)
    normals = np.empty(6 * horizon)
    wiggle = wiggle_rows(normals, horizon)  # a view: each draw into `normals` refills it
    while live:
        requests, still = [], []
        for i in live:
            try:
                requests.append(tasks[i][0].send(outcomes[i]))
            except StopIteration as stop:
                results[i] = stop.value
            else:
                still.append(i)
        live = still
        for lo in range(0, len(live), size):
            block = live[lo:lo + size]
            n = len(block)
            starts, holes, matched = np.empty((n, 2)), np.empty((n, 2)), np.empty(n, bool)
            aligned, normals_xy = np.empty(n, bool), np.empty((n, 2, horizon))
            tips = np.empty((n, 2, horizon))
            for k, i in enumerate(block):
                starts[k], holes[k], matched[k] = requests[lo + k]
                rng = tasks[i][1]
                aligned[k] = rng.random() < rate
                rng.standard_normal(out=normals)
                normals_xy[k] = wiggle
            out = rollout_block(starts, holes, normals_xy, aligned, matched, spiral, env,
                                sweep=True, tips=tips)
            for i, success, closest, tip in zip(block, out.success.tolist(),
                                                out.closest.tolist(), out.tip.tolist()):
                outcomes[i] = success, closest, tip
    return results


def _run(task: Task, world: World, models: PolicyModels, rng: np.random.Generator):
    """One task's result, run through `run_tasks` alone."""
    return run_tasks([(task, rng)], models.spiral, world.config)[0]


def high_level_step(
    beliefs: list[HoleBelief],
    peg: PegType,
    world: World,
    variant: PolicyVariant,
    models: PolicyModels,
    rng: np.random.Generator,
) -> tuple[list[HoleBelief], StepRecord]:
    """`_step` on a list of beliefs: the chosen hole's belief is replaced and
    every other belief object passes through.  The record's `t` is 0; the
    episode loop numbers its steps from 1."""
    task = _step(BeliefArrays.of(beliefs), 0, peg, world, variant, models, rng)
    record = _run(task, world, models, rng)
    position = GaussianBelief2(record.mean, record.cov)
    chosen = HoleBelief(position, TypeBelief(record.xi), record.beta)
    return [chosen if i == record.chosen else b for i, b in enumerate(beliefs)], record


def steps_task(
    state: BeliefArrays,
    world: World,
    peg: PegType,
    variant: PolicyVariant,
    models: PolicyModels,
    horizon: int,
    rng: np.random.Generator,
) -> Task:
    """Steps `state` in place for one peg until a fit or the horizon, as a
    task for `run_tasks` that returns the peg's `EpisodeLog`."""
    if horizon < 1:
        raise InvalidInputError("episode horizon must be >= 1")
    records: list[StepRecord] = []
    for t in range(1, horizon + 1):
        record = yield from _step(state, t, peg, world, variant, models, rng)
        records.append(record)
        if record.beta:
            return EpisodeLog(peg, records, TerminalStatus.SUCCESS)
    return EpisodeLog(peg, records, TerminalStatus.STEP_CAP)


def run_episode(
    world: World,
    peg: PegType,
    variant: PolicyVariant,
    models: PolicyModels,
    horizon: int,
    rng: np.random.Generator,
    beliefs: list[HoleBelief] | None = None,
) -> EpisodeLog:
    """Attempt loop for one peg: steps until a fit or the horizon."""
    state = init_beliefs(world, rng) if beliefs is None else BeliefArrays.of(beliefs)
    return _run(steps_task(state, world, peg, variant, models, horizon, rng), world, models, rng)


def assembly_task(
    world: World,
    pegs: list[PegType],
    variant: PolicyVariant,
    models: PolicyModels,
    rng: np.random.Generator,
    step_cap: int,
) -> Task:
    """`run_assembly_task` as a task for `run_tasks`."""
    world_types = sorted(h.hole_type for h in world.holes)
    if sorted(p.value for p in pegs) != world_types:
        raise InvalidInputError("pegs must be a permutation of the world's hole types")

    state = init_beliefs(world, rng)
    episodes: list[EpisodeLog] = []
    for peg in pegs:
        episode = yield from steps_task(state, world, peg, variant, models, step_cap, rng)
        if episode.status is TerminalStatus.STEP_CAP:
            episode = episode._replace(status=TerminalStatus.INTERVENTION)
            _intervene(state, world, peg)
        episodes.append(episode)
    return AssemblyResult(episodes)


def run_assembly_task(
    world: World,
    pegs: list[PegType],
    variant: PolicyVariant,
    models: PolicyModels,
    rng: np.random.Generator,
    step_cap: int = 30,
) -> AssemblyResult:
    """Sequential per-peg episodes with persistent beliefs.

    A peg that exhausts the step cap triggers an intervention: the
    lowest-index unfitted hole of the peg's true type is marked fitted and
    the task moves on.
    """
    return _run(assembly_task(world, pegs, variant, models, rng, step_cap), world, models, rng)


def _intervene(state: BeliefArrays, world: World, peg: PegType) -> None:
    for i, hole in enumerate(world.holes):
        if not state.fitted[i] and hole.hole_type == peg.value:
            state.fitted[i] = True
            return
    raise NoActionError("intervention found no matching unfitted hole")
