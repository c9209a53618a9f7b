import dataclasses

import numpy as np
import pytest

from belieffit import (
    EnvConfig,
    FilterModels,
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
    init_type_belief_uniform,
    run_assembly_task,
    run_episode,
    select_hole,
    spawn_world,
)
from belieffit.errors import InvalidInputError, NoActionError
from belieffit.policy import FEEDBACK, TypeEvidence
from belieffit.seeding import derive_rng

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
        assert select_hole(beliefs, PegType(1), 0.34) == 1

    def test_tie_break_lowest_index(self):
        beliefs = [
            belief_with_masses([0.5, 0.4, 0.1]),
            belief_with_masses([0.5, 0.4, 0.1]),
            belief_with_masses([0.1, 0.5, 0.4]),
        ]
        assert select_hole(beliefs, PegType(1), 0.34) == 0

    def test_fitted_hole_excluded(self):
        beliefs = [
            belief_with_masses([0.2, 0.6, 0.2]),
            belief_with_masses([0.9, 0.05, 0.05], fitted=True),
            belief_with_masses([0.3, 0.4, 0.3]),
        ]
        assert select_hole(beliefs, PegType(1), 0.34) == 2

    def test_alpha_scaling_does_not_change_choice(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            masses = rng.uniform(0.05, 1.0, (4, 3))
            beliefs = [belief_with_masses(m) for m in masses]
            picks = {select_hole(beliefs, PegType(2), a) for a in (0.05, 0.34, 1.0)}
            assert len(picks) == 1

    def test_all_fitted_raises(self):
        beliefs = [belief_with_masses([1, 1, 1], fitted=True)]
        with pytest.raises(NoActionError):
            select_hole(beliefs, PegType(1), 0.34)


class TestHighLevelStep:
    def test_locality_of_updates(self):
        world = spawn_world(CFG, derive_rng(0, 1), SpiralParams())
        beliefs = init_beliefs(world, derive_rng(0, 2))
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
        assert new_beliefs[0].type_belief.prob_of(1) == pytest.approx(1.0, abs=1e-9)
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
                type_belief=init_type_belief_uniform(3),
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
        assert new_beliefs[0].type_belief.prob_of(1) == pytest.approx(1.0, abs=1e-9)

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
        # every hole ends fitted, by success or intervention
        assert result.episodes[-1].final_state.fitted.all()

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
            fitted.update(np.flatnonzero(episode.final_state.fitted).tolist())
