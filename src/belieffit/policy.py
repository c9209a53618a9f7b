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
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace

import numpy as np

from .beliefs import (
    EnvConfig,
    GaussianBelief2,
    HoleBelief,
    HoleGroundTruth,
    PegType,
    TypeBelief,
    fit_probability,
    init_position_belief,
    init_type_belief_uniform,
    normalize_probs,
)
from .errors import DegenerateEvidenceError, InvalidInputError, NoActionError
from .filters import (
    FilterModels,
    Innovation,
    PositionNoiseModel,
    UNINFORMATIVE_MATCH_MODEL,
    histogram_update,
    kalman_update,
)
from .sensors import SensorModel, sense_match, sense_position
from .sim import RolloutOutcome, SpiralParams, World, rollout_low_level, vision_detect

logger = logging.getLogger(__name__)

# Insertion pins down the hole position; treat the final tip position as a
# (numerically) noise-free observation of it.
INSERTION_NOISE = PositionNoiseModel(1e-12 * np.eye(2))


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


@dataclass(frozen=True)
class StepRecord:
    t: int
    chosen: int
    start_estimate: np.ndarray
    beta: bool
    belief: HoleBelief
    pos_error: float
    evidence_reset: bool = False


class TerminalStatus(str, enum.Enum):
    SUCCESS = "success"
    STEP_CAP = "step_cap"
    INTERVENTION = "intervention"


@dataclass
class EpisodeLog:
    peg: PegType
    records: list[StepRecord]
    status: TerminalStatus
    final_beliefs: list[HoleBelief]

    @property
    def attempts(self) -> int:
        return len(self.records)


@dataclass
class AssemblyResult:
    attempts_per_peg: list[int]
    interventions: int
    episodes: list[EpisodeLog]

    @property
    def cumulative_attempts(self) -> list[int]:
        out, total = [], 0
        for a in self.attempts_per_peg:
            total += a
            out.append(total)
        return out


def init_beliefs(world: World, rng: np.random.Generator) -> list[HoleBelief]:
    """Initial beliefs from one pass of the vision detector."""
    detections = vision_detect(world, rng)
    return [
        HoleBelief(
            position=init_position_belief(det, world.config.sigma_init),
            type_belief=init_type_belief_uniform(world.config.n_types),
            fitted=False,
        )
        for det in detections
    ]


def select_hole(beliefs: list[HoleBelief], peg: PegType, alpha: float) -> int:
    """Greedy argmax of predicted fit probability; ties go to the lowest index."""
    if all(b.fitted for b in beliefs):
        raise NoActionError("every hole is already fitted")
    scores = [fit_probability(b, peg, alpha) for b in beliefs]
    best = 0
    for i, s in enumerate(scores):
        if s > scores[best]:
            best = i
    if beliefs[best].fitted:  # all-zero scores with fitted holes in front
        best = next(i for i, b in enumerate(beliefs) if not b.fitted)
    return best


def _updated_position(
    prior: GaussianBelief2,
    rule: PositionUpdate,
    outcome: RolloutOutcome,
    hole: HoleGroundTruth,
    models: PolicyModels,
    rng: np.random.Generator,
) -> GaussianBelief2:
    """Position posterior: an insertion observes the final tip position, a
    failure reads the position sensor."""
    if outcome.success:
        if rule is PositionUpdate.REPLACE:
            return GaussianBelief2(outcome.final_ee[:2], prior.cov)
        innovation = Innovation(outcome.final_ee[:2] - prior.mean)
        return kalman_update(prior, innovation, INSERTION_NOISE)
    innovation = sense_position(
        outcome.trace, hole.position, prior.mean, models.sensor, rng
    )
    if rule is PositionUpdate.REPLACE:
        return GaussianBelief2(prior.mean + innovation.value, prior.cov)
    return kalman_update(prior, innovation, models.filters.position)


def _updated_type(
    prior: TypeBelief,
    evidence: TypeEvidence,
    beta: bool,
    peg: PegType,
    hole: HoleGroundTruth,
    alpha: float,
    models: PolicyModels,
    rng: np.random.Generator,
) -> tuple[TypeBelief, bool]:
    """Type posterior from the outcome, plus a fresh match verdict when the
    evidence includes it; degenerate evidence resets to uniform (and logs)."""
    if evidence is TypeEvidence.MATCH_AND_OUTCOME:
        o_match = sense_match(hole.hole_type, peg, models.sensor, rng)
        match_model = models.filters.match
    else:
        # Outcome evidence only: a uniform confusion factor cancels in the
        # normalizer, leaving the transition term.
        o_match, match_model = False, UNINFORMATIVE_MATCH_MODEL
    try:
        posterior = histogram_update(prior, o_match, beta, peg, alpha, match_model)
        return TypeBelief(normalize_probs(posterior.probs)), False
    except DegenerateEvidenceError:
        logger.warning("degenerate type evidence; resetting belief to uniform")
        return init_type_belief_uniform(prior.n_types), True


def high_level_step(
    beliefs: list[HoleBelief],
    peg: PegType,
    world: World,
    variant: PolicyVariant,
    models: PolicyModels,
    rng: np.random.Generator,
) -> tuple[list[HoleBelief], StepRecord]:
    """One choose-hole / rollout / belief-update iteration.

    The only belief update in the package: the chosen hole's position and
    type beliefs change as the variant's `FEEDBACK` row says, and every other
    hole's belief passes through.  Random draws come in a fixed order: start
    sample, rollout, position sensor (after a failure), match sensor.
    """
    config: EnvConfig = world.config
    feedback = FEEDBACK[variant]
    chosen = select_hole(beliefs, peg, config.alpha)
    target = beliefs[chosen]
    hole = world.holes[chosen]

    start = target.position.sample(rng) if feedback.sample_start else target.position.mean
    outcome = rollout_low_level(start, peg, hole, models.spiral, config, rng)
    beta = outcome.success

    position = target.position
    if feedback.position is not PositionUpdate.NONE:
        position = _updated_position(position, feedback.position, outcome, hole, models, rng)
    type_belief, evidence_reset = target.type_belief, False
    if feedback.types is not TypeEvidence.NONE:
        type_belief, evidence_reset = _updated_type(
            type_belief, feedback.types, beta, peg, hole, config.alpha, models, rng
        )

    updated = HoleBelief(
        position=position, type_belief=type_belief, fitted=target.fitted or beta
    )
    new_beliefs = [updated if i == chosen else b for i, b in enumerate(beliefs)]
    record = StepRecord(
        t=0,  # episode loop stamps the step number
        chosen=chosen,
        start_estimate=np.asarray(start, dtype=float),
        beta=beta,
        belief=updated,
        pos_error=float(np.linalg.norm(position.mean - hole.position)),
        evidence_reset=evidence_reset,
    )
    return new_beliefs, record


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
    if horizon < 1:
        raise InvalidInputError("episode horizon must be >= 1")
    if beliefs is None:
        beliefs = init_beliefs(world, rng)
    records: list[StepRecord] = []
    for t in range(1, horizon + 1):
        beliefs, record = high_level_step(beliefs, peg, world, variant, models, rng)
        records.append(replace(record, t=t))
        if record.beta:
            break
    status = (
        TerminalStatus.SUCCESS if records and records[-1].beta else TerminalStatus.STEP_CAP
    )
    return EpisodeLog(peg=peg, records=records, status=status, final_beliefs=beliefs)


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
    world_types = sorted(h.hole_type for h in world.holes)
    if sorted(p.value for p in pegs) != world_types:
        raise InvalidInputError("pegs must be a permutation of the world's hole types")

    beliefs = init_beliefs(world, rng)
    episodes: list[EpisodeLog] = []
    attempts: list[int] = []
    interventions = 0
    for peg in pegs:
        episode = run_episode(
            world, peg, variant, models, step_cap, rng, beliefs=beliefs
        )
        beliefs = episode.final_beliefs
        if episode.status is TerminalStatus.STEP_CAP:
            episode.status = TerminalStatus.INTERVENTION
            interventions += 1
            beliefs = _intervene(beliefs, world, peg)
            episode.final_beliefs = beliefs
        episodes.append(episode)
        attempts.append(episode.attempts)
    return AssemblyResult(
        attempts_per_peg=attempts, interventions=interventions, episodes=episodes
    )


def _intervene(
    beliefs: list[HoleBelief], world: World, peg: PegType
) -> list[HoleBelief]:
    for i, (belief, hole) in enumerate(zip(beliefs, world.holes)):
        if not belief.fitted and hole.hole_type == peg.value:
            fixed = HoleBelief(
                position=belief.position, type_belief=belief.type_belief, fitted=True
            )
            return [fixed if k == i else b for k, b in enumerate(beliefs)]
    raise NoActionError("intervention found no matching unfitted hole")
