import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from belieffit import (
    EnvConfig,
    FilterModels,
    GaussianBelief2,
    HoleBelief,
    HoleGroundTruth,
    MatchObservationModel,
    MatchSensorSpec,
    PegType,
    PolicyModels,
    PolicyVariant,
    PositionNoiseModel,
    SensorModel,
    SpiralParams,
    TerminalStatus,
    TypeBelief,
    World,
    high_level_step,
    init_beliefs,
    init_position_belief,
    run_assembly_task,
    run_episode,
    select_hole,
    spawn_world,
)
from belieffit.beliefs import (
    BeliefArrays,
    check_position,
    check_types,
    normalized,
    sample_gaussian,
)
from belieffit.errors import DegenerateEvidenceError, InvalidInputError, NoActionError
from belieffit.filters import (
    DEGENERATE_ETA,
    REGULARIZER,
    UNINFORMATIVE_MATCH_MODEL,
    kalman_correction,
    type_posterior,
)
from belieffit.policy import (
    FEEDBACK,
    INSERTION_NOISE,
    PositionUpdate,
    StepRecord,
    TypeEvidence,
    _distance,
    _step,
)
from belieffit.seeding import derive_rng
from belieffit.sensors import sense_match, sense_position

CFG = EnvConfig()


def default_models(cfg=CFG):
    return PolicyModels(
        spiral=SpiralParams(),
        sensor=SensorModel(),
        filters=FilterModels(
            position=PositionNoiseModel(6.4e-5 * np.eye(2)),
            match=MatchObservationModel(0.85, 0.15),
        ),
    )


def belief_with_masses(masses, fitted=False, mean=(0.0, 0.0)):
    return HoleBelief(
        position=init_position_belief(mean, 1e-4),
        type_belief=TypeBelief(np.asarray(masses) / np.sum(masses)),
        fitted=fitted,
    )


def single_hole_world(hole_type=1, position=(0.0, 0.0), **cfg_overrides):
    cfg = dataclasses.replace(CFG, n_holes=1, **cfg_overrides)
    return World(holes=(HoleGroundTruth(hole_type, position),), config=cfg)


class TestSelectHole:
    def test_strict_argmax(self):
        beliefs = [
            belief_with_masses([0.2, 0.5, 0.3]),
            belief_with_masses([0.7, 0.2, 0.1]),
            belief_with_masses([0.1, 0.5, 0.4]),
        ]
        assert select_hole(BeliefArrays.of(beliefs), PegType(1), 0.34) == 1

    def test_tie_break_lowest_index(self):
        beliefs = [
            belief_with_masses([0.5, 0.4, 0.1]),
            belief_with_masses([0.5, 0.4, 0.1]),
            belief_with_masses([0.1, 0.5, 0.4]),
        ]
        assert select_hole(BeliefArrays.of(beliefs), PegType(1), 0.34) == 0

    def test_fitted_hole_excluded(self):
        beliefs = [
            belief_with_masses([0.2, 0.6, 0.2]),
            belief_with_masses([0.9, 0.05, 0.05], fitted=True),
            belief_with_masses([0.3, 0.4, 0.3]),
        ]
        assert select_hole(BeliefArrays.of(beliefs), PegType(1), 0.34) == 2

    def test_alpha_scaling_does_not_change_choice(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            masses = rng.uniform(0.05, 1.0, (4, 3))
            state = BeliefArrays.of([belief_with_masses(m) for m in masses])
            picks = {select_hole(state, PegType(2), a) for a in (0.05, 0.34, 1.0)}
            assert len(picks) == 1

    def test_all_fitted_raises(self):
        beliefs = [belief_with_masses([1, 1, 1], fitted=True)]
        with pytest.raises(NoActionError):
            select_hole(BeliefArrays.of(beliefs), PegType(1), 0.34)

    def test_all_fitted_is_checked_before_the_peg_type(self):
        state = BeliefArrays.of([belief_with_masses([1, 1, 1], fitted=True)] * 2)
        with pytest.raises(NoActionError):
            select_hole(state, PegType(4), 0.34)
        state.fitted[1] = False
        with pytest.raises(InvalidInputError, match="type 4 out of range 1..3"):
            select_hole(state, PegType(4), 0.34)


class TestHighLevelStep:
    def test_locality_of_updates(self):
        world = spawn_world(CFG, derive_rng(0, 1), SpiralParams())
        state = init_beliefs(world, derive_rng(0, 2))
        beliefs = [HoleBelief(GaussianBelief2(mean, cov), TypeBelief(xi))
                   for mean, cov, xi in zip(state.means, state.covs, state.xi)]
        new_beliefs, rec = high_level_step(
            beliefs, PegType(1), world, PolicyVariant.FULL_APPROACH,
            default_models(), derive_rng(0, 3),
        )
        for i, (old, new) in enumerate(zip(beliefs, new_beliefs)):
            if i == rec.chosen:
                assert new is not old
            else:
                assert new is old

    def test_full_approach_updates_position_and_types_on_failure(self):
        # mismatched peg on a single hole: the rollout always fails
        world = single_hole_world(hole_type=2)
        beliefs = [belief_with_masses([1, 1, 1], mean=(0.01, 0.01))]
        new_beliefs, rec = high_level_step(
            beliefs, PegType(1), world, PolicyVariant.FULL_APPROACH,
            default_models(), derive_rng(1, 3),
        )
        assert not rec.beta
        assert not np.array_equal(
            new_beliefs[0].position.mean, beliefs[0].position.mean
        )
        assert not np.array_equal(
            new_beliefs[0].type_belief.probs, beliefs[0].type_belief.probs
        )

    def test_failure_only_transition_posterior(self):
        world = single_hole_world(hole_type=2)
        beliefs = [belief_with_masses([1, 1, 1], mean=(0.01, 0.01))]
        new_beliefs, rec = high_level_step(
            beliefs, PegType(1), world, PolicyVariant.FAILURE_ONLY,
            default_models(), derive_rng(2, 3),
        )
        assert not rec.beta
        assert np.allclose(
            new_beliefs[0].type_belief.probs, [0.2481, 0.3759, 0.3759], atol=1e-4
        )
        # position belief untouched
        assert np.array_equal(new_beliefs[0].position.mean, beliefs[0].position.mean)

    def test_fixed_and_sampled_leave_beliefs_untouched_on_failure(self):
        world = single_hole_world(hole_type=2)
        for variant in (PolicyVariant.FIXED_INITIAL, PolicyVariant.SAMPLED_INITIAL):
            beliefs = [belief_with_masses([1, 1, 1], mean=(0.01, 0.01))]
            new_beliefs, rec = high_level_step(
                beliefs, PegType(1), world, variant, default_models(), derive_rng(3, 3)
            )
            assert np.array_equal(
                new_beliefs[0].position.mean, beliefs[0].position.mean
            )
            assert np.array_equal(
                new_beliefs[0].type_belief.probs, beliefs[0].type_belief.probs
            )

    def test_frame_by_frame_replaces_mean_keeps_cov(self):
        world = single_hole_world(hole_type=2)
        beliefs = [belief_with_masses([1, 1, 1], mean=(0.01, 0.01))]
        new_beliefs, _ = high_level_step(
            beliefs, PegType(1), world, PolicyVariant.FRAME_BY_FRAME,
            default_models(), derive_rng(4, 3),
        )
        assert not np.array_equal(
            new_beliefs[0].position.mean, beliefs[0].position.mean
        )
        assert np.array_equal(new_beliefs[0].position.cov, beliefs[0].position.cov)

    def test_success_sets_fitted_and_pays_reward(self):
        world = single_hole_world(hole_type=1, alignment_rate=1.0)
        beliefs = [belief_with_masses([1, 1, 1], mean=(0.0, 0.0))]
        models = dataclasses.replace(
            default_models(), spiral=SpiralParams(sigma_wiggle=0.0)
        )
        new_beliefs, rec = high_level_step(
            beliefs, PegType(1), world, PolicyVariant.FULL_APPROACH, models,
            derive_rng(5, 3),
        )
        assert rec.beta
        assert new_beliefs[0].fitted
        assert new_beliefs[0].type_belief.probs[0] == pytest.approx(1.0, abs=1e-9)
        # insertion pins the position estimate to the final tip position
        assert rec.pos_error <= CFG.capture_radius + 1e-9


class TestBeliefUpdate:
    """`high_level_step` is the package's one belief update; these pin down
    what it does to the chosen hole for every variant."""

    # parts of the chosen hole's belief that move, after a failure and after
    # an insertion alike
    MOVED = {
        PolicyVariant.FULL_APPROACH: {"mean", "cov", "types"},
        PolicyVariant.FAILURE_PLUS_POSITION: {"mean", "cov", "types"},
        PolicyVariant.FAILURE_ONLY: {"types"},
        PolicyVariant.FRAME_BY_FRAME: {"mean"},
        PolicyVariant.FIXED_INITIAL: set(),
        PolicyVariant.SAMPLED_INITIAL: set(),
    }

    def _step(self, variant, success):
        """Peg 1 on hole 0: a matching hole inserts (aligned, no wiggle,
        start 4 mm off so the spiral reaches it), a mismatched one fails."""
        cfg = dataclasses.replace(CFG, n_holes=2, alignment_rate=1.0)
        holes = (
            HoleGroundTruth(1 if success else 2, (0.0, 0.0)),
            HoleGroundTruth(2, (0.1, 0.1)),
        )
        beliefs = [
            HoleBelief(
                position=init_position_belief((0.004, 0.0), 1e-10),
                type_belief=TypeBelief(np.full(3, 1 / 3)),
            ),
            belief_with_masses([1, 2, 2], mean=(0.1, 0.1)),
        ]
        models = dataclasses.replace(
            default_models(), spiral=SpiralParams(sigma_wiggle=0.0)
        )
        new_beliefs, rec = high_level_step(
            beliefs, PegType(1), World(holes=holes, config=cfg), variant, models,
            derive_rng(11, 3),
        )
        assert rec.chosen == 0 and rec.beta is success
        return beliefs, new_beliefs

    def test_only_chosen_hole_changes(self):
        for variant in PolicyVariant:
            for success in (False, True):
                beliefs, new_beliefs = self._step(variant, success)
                assert new_beliefs[1] is beliefs[1]
                assert new_beliefs[0] is not beliefs[0]

    def test_success_sets_fitted_and_collapses_types(self):
        for variant in PolicyVariant:
            _, new_beliefs = self._step(variant, success=True)
            assert new_beliefs[0].fitted
        _, new_beliefs = self._step(PolicyVariant.FULL_APPROACH, success=True)
        assert FEEDBACK[PolicyVariant.FULL_APPROACH].types is TypeEvidence.MATCH_AND_OUTCOME
        assert new_beliefs[0].type_belief.probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_failure_keeps_fitted_false(self):
        for variant in PolicyVariant:
            _, new_beliefs = self._step(variant, success=False)
            assert not new_beliefs[0].fitted

    @pytest.mark.parametrize("variant", list(PolicyVariant), ids=lambda v: v.value)
    def test_feedback_table(self, variant):
        for success in (False, True):
            beliefs, new_beliefs = self._step(variant, success)
            old, new = beliefs[0], new_beliefs[0]
            parts = {
                "mean": (old.position.mean, new.position.mean),
                "cov": (old.position.cov, new.position.cov),
                "types": (old.type_belief.probs, new.type_belief.probs),
            }
            moved = {k for k, (a, b) in parts.items() if not np.array_equal(a, b)}
            assert moved == self.MOVED[variant], f"success={success}"


class TestRunEpisode:
    def test_immediate_success_with_perfect_knowledge(self):
        world = single_hole_world(hole_type=1, alignment_rate=1.0)
        beliefs = [belief_with_masses([1, 0, 0], mean=(0.0, 0.0))]
        models = dataclasses.replace(
            default_models(), spiral=SpiralParams(sigma_wiggle=0.0)
        )
        log = run_episode(
            world, PegType(1), PolicyVariant.FULL_APPROACH, models, 10,
            derive_rng(6, 3), beliefs=beliefs,
        )
        assert log.status is TerminalStatus.SUCCESS
        assert log.attempts == 1

    def test_impossible_task_hits_step_cap(self):
        world = single_hole_world(hole_type=2)
        beliefs = [belief_with_masses([1, 1, 1])]
        log = run_episode(
            world, PegType(1), PolicyVariant.FULL_APPROACH, default_models(), 7,
            derive_rng(7, 3), beliefs=beliefs,
        )
        assert log.status is TerminalStatus.STEP_CAP
        assert log.attempts == 7

    def test_horizon_follows_the_integer_rule(self):
        # a bool is not a horizon of one step
        world = single_hole_world(hole_type=2)
        for bad in (True, 2.5):
            with pytest.raises(InvalidInputError) as raised:
                run_episode(world, PegType(1), PolicyVariant.FULL_APPROACH, default_models(),
                            bad, derive_rng(7, 3), beliefs=[belief_with_masses([1, 1, 1])])
            assert str(raised.value) == f"horizon must be an integer, got {bad!r}"
        with pytest.raises(InvalidInputError, match="horizon must be at least 1, got 0"):
            run_episode(world, PegType(1), PolicyVariant.FULL_APPROACH, default_models(),
                        0, derive_rng(7, 3), beliefs=[belief_with_masses([1, 1, 1])])

    def test_determinism(self):
        world = single_hole_world(hole_type=1)
        logs = []
        for _ in range(2):
            beliefs = [belief_with_masses([1, 1, 1], mean=(0.012, -0.005))]
            logs.append(
                run_episode(
                    world, PegType(1), PolicyVariant.FULL_APPROACH, default_models(),
                    10, derive_rng(8, 3), beliefs=beliefs,
                )
            )
        a, b = logs
        assert a.status == b.status and a.attempts == b.attempts
        for ra, rb in zip(a.records, b.records):
            assert ra.chosen == rb.chosen and ra.beta == rb.beta
            assert np.array_equal(ra.mean, rb.mean)

    def test_full_approach_covariance_contracts_each_step(self):
        world = single_hole_world(hole_type=2)  # mismatch: never terminates early
        beliefs = [belief_with_masses([1, 1, 1], mean=(0.01, 0.0))]
        log = run_episode(
            world, PegType(1), PolicyVariant.FULL_APPROACH, default_models(), 6,
            derive_rng(9, 3), beliefs=beliefs,
        )
        traces = [np.trace(beliefs[0].position.cov)] + [
            np.trace(r.cov) for r in log.records
        ]
        assert all(b <= a + 1e-15 for a, b in zip(traces, traces[1:]))

    def test_geometric_attempts_with_perfect_knowledge(self):
        world = single_hole_world(hole_type=1)
        models = default_models()
        attempts = []
        for trial in range(300):
            beliefs = [belief_with_masses([1, 0, 0], mean=(0.0, 0.0))]
            log = run_episode(
                world, PegType(1), PolicyVariant.FIXED_INITIAL, models, 200,
                derive_rng(10, 3, trial), beliefs=beliefs,
            )
            assert log.status is TerminalStatus.SUCCESS
            attempts.append(log.attempts)
        mean = np.mean(attempts)
        # success per attempt is the alignment rate at zero start error
        assert mean == pytest.approx(1.0 / CFG.alignment_rate, rel=0.15)


class TestAssembly:
    def _world_and_models(self, seed=0, **cfg_overrides):
        cfg = dataclasses.replace(CFG, **cfg_overrides)
        world = spawn_world(cfg, derive_rng(seed, 1), SpiralParams())
        return world, default_models(cfg)

    def test_peg_permutation_validated(self):
        world, models = self._world_and_models()
        with pytest.raises(InvalidInputError):
            run_assembly_task(
                world, [PegType(1)] * 5, PolicyVariant.FULL_APPROACH, models,
                derive_rng(0, 3),
            )

    def test_step_cap_follows_the_integer_rule(self):
        # the cap is each peg's horizon, checked by the episode it bounds
        world, models = self._world_and_models()
        pegs = [PegType(h.hole_type) for h in world.holes]
        with pytest.raises(InvalidInputError) as raised:
            run_assembly_task(world, pegs, PolicyVariant.FULL_APPROACH, models,
                              derive_rng(0, 3), step_cap=2.5)
        assert str(raised.value) == "horizon must be an integer, got 2.5"

    def test_accounting_invariants(self):
        world, models = self._world_and_models(seed=3)
        pegs = [PegType(h.hole_type) for h in world.holes]
        result = run_assembly_task(
            world, pegs, PolicyVariant.FAILURE_ONLY, models, derive_rng(3, 3),
            step_cap=12,
        )
        assert result.cumulative_attempts[-1] == sum(result.attempts_per_peg)
        assert 0 <= result.interventions <= len(pegs)
        assert len(result.episodes) == len(pegs)
        # every hole ends fitted, by success or intervention: the holes
        # fitted by success are distinct, and the interventions fit the rest
        fits = [r.chosen for e in result.episodes for r in e.records if r.beta]
        assert len(set(fits)) == len(fits) == len(pegs) - result.interventions

    def test_informed_agent_with_no_cap_never_intervenes(self):
        world, models = self._world_and_models(
            seed=4, detector_error_bound=0.0, alignment_rate=1.0
        )
        models = dataclasses.replace(
            models,
            sensor=SensorModel(match=MatchSensorSpec(tpr=1 - 1e-9, fpr=1e-9)),
            spiral=SpiralParams(sigma_wiggle=0.0),
        )
        pegs = [PegType(h.hole_type) for h in world.holes]
        result = run_assembly_task(
            world, pegs, PolicyVariant.FULL_APPROACH, models, derive_rng(4, 3),
            step_cap=10_000,
        )
        assert result.interventions == 0

    def test_fitted_holes_never_reselected(self):
        world, models = self._world_and_models(seed=5)
        pegs = [PegType(h.hole_type) for h in world.holes]
        result = run_assembly_task(
            world, pegs, PolicyVariant.FULL_APPROACH, models, derive_rng(5, 3)
        )
        fitted: set[int] = set()
        for episode in result.episodes:
            for rec in episode.records:
                assert rec.chosen not in fitted
                if rec.beta:
                    fitted.add(rec.chosen)
            if episode.status is TerminalStatus.INTERVENTION:
                # `_intervene` fits the lowest-index unfitted hole of the peg's type
                fitted.add(next(i for i, h in enumerate(world.holes)
                                if i not in fitted and h.hole_type == episode.peg.value))


# --------------------------------------------------------------------------
# The step on Python floats against the step on numpy arrays that it
# replaced: `reference_step` is that step with the rollout's outcome given
# instead of yielded for.


def reference_kalman_posterior(mean, cov, innovation, noise_cov):
    """Measurement correction of a position belief given as arrays."""
    (c00, c01), (c10, c11) = cov.tolist()
    (r00, r01), (r10, r11) = noise_cov.tolist()
    if abs((c00 + r00) * (c11 + r11) - (c01 + r01) * (c10 + r10)) < DEGENERATE_ETA:
        r00, r11 = r00 + REGULARIZER, r11 + REGULARIZER
    _, (k00, k01, k10, k11), (p00, p01, _, p11) = kalman_correction(
        (c00, c01, c10, c11), (r00, r01, r10, r11))
    (m0, m1), (h0, h1) = mean.tolist(), innovation.tolist()
    return (np.array((m0 + (k00 * h0 + k01 * h1), m1 + (k10 * h0 + k11 * h1))),
            np.array(((p00, p01), (p01, p11))))


def reference_updated_position(mean, cov, rule, outcome, hole, models, rng):
    success, closest, tip = outcome
    if success:
        if rule is PositionUpdate.REPLACE:
            return tip, cov
        return reference_kalman_posterior(mean, cov, tip - mean, INSERTION_NOISE.cov)
    observed = sense_position(closest, hole.position, models.sensor, rng.standard_normal(2))
    innovation = observed - mean
    if rule is PositionUpdate.REPLACE:
        return mean + innovation, cov
    return reference_kalman_posterior(mean, cov, innovation, models.filters.position.cov)


def reference_updated_type(prior, evidence, beta, peg, hole, alpha, models, rng):
    if evidence is TypeEvidence.MATCH_AND_OUTCOME:
        o_match = sense_match(peg.value == hole.hole_type, models.sensor, rng.random())
        match_model = models.filters.match
    else:
        o_match, match_model = False, UNINFORMATIVE_MATCH_MODEL
    try:
        posterior = type_posterior(prior, o_match, beta, peg, alpha, match_model)
        return normalized(posterior), False
    except DegenerateEvidenceError:
        return TypeBelief(np.full(len(prior), 1 / len(prior))).probs.tolist(), True


class ArrayState(NamedTuple):
    """A trial's beliefs as numpy arrays, as the step held them before its
    rows became Python floats: means (H, 2), covs (H, 2, 2), xi (H, C) and
    fitted (H,)."""

    means: np.ndarray
    covs: np.ndarray
    xi: np.ndarray
    fitted: np.ndarray


def reference_select(state, peg, alpha):
    """`select_hole` on an `ArrayState`."""
    flags = state.fitted.tolist()
    if all(flags):
        raise NoActionError("every hole is already fitted")
    n_types = state.xi.shape[1]
    if not 1 <= peg.value <= n_types:
        raise InvalidInputError(f"type {peg.value} out of range 1..{n_types}")
    scores = [0.0 if fitted else alpha * p
              for fitted, p in zip(flags, state.xi[:, peg.value - 1].tolist())]
    best = scores.index(max(scores))
    return flags.index(False) if flags[best] else best


def reference_step(state, t, peg, world, variant, models, rng, outcome):
    """`_step` on an `ArrayState`, resumed with `outcome`."""
    config = world.config
    feedback = FEEDBACK[variant]
    chosen = reference_select(state, peg, config.alpha)
    hole = world.holes[chosen]
    mean, cov = state.means[chosen], state.covs[chosen]
    start = sample_gaussian(mean, cov, rng) if feedback.sample_start else mean.copy()
    beta = outcome[0]
    if feedback.position is not PositionUpdate.NONE:
        mean, cov = reference_updated_position(
            mean, cov, feedback.position, outcome, hole, models, rng)
        check_position(mean, cov)
        state.means[chosen], state.covs[chosen] = mean, cov
    xi, evidence_reset = state.xi[chosen].tolist(), False
    if feedback.types is not TypeEvidence.NONE:
        xi, evidence_reset = reference_updated_type(
            xi, feedback.types, beta, peg, hole, config.alpha, models, rng)
        check_types(xi)
        state.xi[chosen] = xi
    if beta:
        state.fitted[chosen] = True
    mean = state.means[chosen].copy()
    return (t, chosen, start, beta, mean, state.covs[chosen].copy(), tuple(xi),
            _distance(mean, hole.position), evidence_reset)


def float_step(state, t, peg, world, variant, models, rng, outcome):
    """`_step` resumed with `outcome`; its request's start must be the
    record's."""
    task = _step(state, t, peg, world, variant, models, rng)
    start, _, _ = next(task)
    with pytest.raises(StopIteration) as stop:
        task.send(outcome)
    record = stop.value.value
    assert isinstance(record, StepRecord) and record.start_estimate == start
    return record


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


HOLES = (HoleGroundTruth(2, (0.02, -0.01)), HoleGroundTruth(1, (-0.1, 0.12)))
RADIUS = SensorModel().position.informative_radius
# rank one with a zero determinant in floats, and entries so large that R
# vanishes beside them: R + S0 is singular and takes the REGULARIZER branch
SINGULAR = (2.0 ** 60 * np.array([[9.0, -12.0], [-12.0, 16.0]]))
# asymmetric within SYMMETRY_TOL, as a belief object may hold it
ASYMMETRIC = np.array([[1e-4, 1e-5], [1e-5 + 5e-13, 1e-4]])
_PRIOR_COV = st.one_of(
    st.tuples(st.floats(1e-10, 1e-2), st.floats(1e-10, 1e-2), st.floats(-1.0, 1.0)).map(
        lambda v: np.array([[v[0], v[2] * math.sqrt(v[0] * v[1])],
                            [v[2] * math.sqrt(v[0] * v[1]), v[1]]])),
    st.sampled_from([SINGULAR, 1e200 * np.eye(2), np.zeros((2, 2)), ASYMMETRIC]),
)
_TYPE_WEIGHT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0))
_XI = st.lists(_TYPE_WEIGHT, min_size=3, max_size=3).map(
    lambda w: [x / sum(w) for x in w] if sum(w) else [0.0, 1.0, 0.0])
# near the hole, and so far that an innovation rounds
_OFFSET = st.one_of(st.floats(-0.02, 0.02), st.floats(-1e3, 1e3))


@st.composite
def step_cases(draw):
    variant = draw(st.sampled_from(list(PolicyVariant)))
    alpha = draw(st.sampled_from([0.34, 1.0]))
    position_noise = draw(st.sampled_from([6.4e-5, 1e-12]))
    models = dataclasses.replace(default_models(), filters=FilterModels(
        PositionNoiseModel(position_noise * np.eye(2)), MatchObservationModel(0.85, 0.15)))
    arrays = ArrayState(
        means=np.array([h.position + (draw(_OFFSET), draw(_OFFSET)) for h in HOLES]),
        covs=np.array([draw(_PRIOR_COV) for _ in HOLES]),
        xi=np.array([draw(_XI) for _ in HOLES]),
        fitted=np.array([False, draw(st.booleans())]),
    )
    success = draw(st.booleans())
    closest = draw(st.one_of(st.floats(0.0, RADIUS), st.floats(RADIUS, 0.1, exclude_min=True)))
    tip = (draw(_OFFSET), draw(_OFFSET))
    peg = PegType(draw(st.sampled_from([1, 2, 3])))
    world = World(HOLES, dataclasses.replace(CFG, n_holes=2, alpha=alpha))
    return variant, models, arrays, (success, closest, tip), peg, world, draw(st.integers(0, 99))


def _case(variant, cov, outcome):
    """Peg 2 on hole 0, whose prior covariance is `cov`."""
    arrays = ArrayState(np.zeros((2, 2)), np.array([cov, cov]),
                        np.array([[0.2, 0.5, 0.3], [0.5, 0.2, 0.3]]), np.zeros(2, bool))
    return (variant, default_models(), arrays, outcome, PegType(2),
            World(HOLES, dataclasses.replace(CFG, n_holes=2)), 0)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(case=step_cases())
# a Kalman update of the singular prior after a failure far from the hole
@example(case=_case(PolicyVariant.FULL_APPROACH, SINGULAR, (False, 0.5, (0.0, 0.0))))
# an insertion that replaces the mean and keeps every covariance entry
@example(case=_case(PolicyVariant.FRAME_BY_FRAME, ASYMMETRIC, (True, 0.0, (0.01, 0.02))))
def test_float_step_is_bitwise_the_array_step(case):
    """Every record field, every belief row and the generator's state after
    one step on `BeliefArrays` rows equal those of the step on numpy arrays
    built from the same values, including its failures; the rows stay
    Python floats and bools."""
    variant, models, arrays, (success, closest, tip), peg, world, seed = case
    runs = []
    for step, state, outcome in (
            (reference_step, ArrayState(*(a.copy() for a in arrays)),
             (success, closest, np.array(tip))),
            (float_step, BeliefArrays(*arrays), (success, closest, list(tip)))):
        rng = derive_rng(seed, 3)
        try:
            result = step(state, 3, peg, world, variant, models, rng, outcome)
        except (InvalidInputError, DegenerateEvidenceError) as exc:
            result = type(exc)
        runs.append((result, state, rng.bit_generator.state))
    (ref, ref_state, ref_rng), (new, new_state, new_rng) = runs
    assert ref_rng == new_rng
    for name in ("means", "covs", "xi", "fitted"):
        assert _bits(getattr(ref_state, name)) == _bits(getattr(new_state, name)), name
    rows = [x for h in range(len(HOLES)) for x in (
        *new_state.means[h], *new_state.covs[h][0], *new_state.covs[h][1], *new_state.xi[h])]
    assert all(type(x) is float for x in rows)
    assert all(type(flag) is bool for flag in new_state.fitted)
    if isinstance(ref, type):
        assert new is ref
        return
    assert len(new) == len(ref)
    for field, a, b in zip(StepRecord._fields, ref, new):
        assert _bits(a) == _bits(b), field
    floats = [*new.start_estimate, *new.mean, *new.cov[0], *new.cov[1], *new.xi, new.pos_error]
    assert all(type(x) is float for x in floats)
