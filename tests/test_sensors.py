import dataclasses

import numpy as np
import pytest

from belieffit import (
    EnvConfig,
    HoleGroundTruth,
    MatchSensorSpec,
    PegType,
    PositionSensorSpec,
    SensorModel,
    SpiralParams,
    rollout_low_level,
    sense_match,
    sense_position,
)
from belieffit.seeding import derive_rng
from belieffit.sensors import observe_position
from belieffit.errors import InvalidInputError

CFG = EnvConfig()
HOLE = HoleGroundTruth(hole_type=1, position=(0.0, 0.0))


def make_trace(start, seed=0):
    env = dataclasses.replace(CFG, alignment_rate=1.0)
    return rollout_low_level(
        start, PegType(2), HOLE, SpiralParams(), env, derive_rng(seed, 10)
    ).trace


CLOSE_TRACE = make_trace((0.005, 0.0))      # sweeps over the hole
FAR_TRACE = make_trace((0.08, 0.08))        # never gets near it


class TestSensePosition:
    def test_noiseless_sensor_returns_exact_error(self):
        model = SensorModel(position=PositionSensorSpec(cov=1e-20 * np.eye(2)))
        innov = sense_position(
            CLOSE_TRACE, (0.0, 0.0), (0.012, -0.003), model, derive_rng(0, 11)
        )
        assert np.allclose(innov.value, [-0.012, 0.003], atol=1e-8)

    def test_unbiased_when_bias_zero(self):
        model = SensorModel()
        rng = derive_rng(1, 11)
        n = 10_000
        true_p = np.array([0.0, 0.0])
        mu = np.array([0.01, 0.01])
        samples = np.array(
            [sense_position(CLOSE_TRACE, true_p, mu, model, rng).value for _ in range(n)]
        )
        residual = samples - (true_p - mu)
        sigma = np.sqrt(np.diag(model.position.cov))
        assert np.all(np.abs(residual.mean(axis=0)) <= 3.0 * sigma / np.sqrt(n))

    def test_bias_shifts_the_observation(self):
        model = SensorModel(
            position=PositionSensorSpec(cov=1e-20 * np.eye(2), bias=(0.004, -0.002))
        )
        innov = sense_position(CLOSE_TRACE, (0.0, 0.0), (0.0, 0.0), model, derive_rng(2, 11))
        assert np.allclose(innov.value, [0.004, -0.002], atol=1e-8)

    def test_uninformative_trace_scales_covariance(self):
        spec = PositionSensorSpec(uninformative_scale=4.0)
        model = SensorModel(position=spec)
        for trace, scale in ((CLOSE_TRACE, 1.0), (FAR_TRACE, 16.0)):
            factor = spec.noise_factor(float(np.linalg.norm(trace, axis=1).min()))
            assert np.allclose(factor @ factor.T, scale * spec.cov)
        rng = derive_rng(3, 11)
        n = 10_000
        samples = np.array(
            [
                sense_position(FAR_TRACE, (0.0, 0.0), (0.0, 0.0), model, rng).value
                for _ in range(n)
            ]
        )
        sample_cov = np.cov(samples.T, ddof=1)
        expected = 16.0 * spec.cov
        rel = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
        assert rel <= 0.10

    @pytest.mark.parametrize("approach", [0.0, 0.02])
    def test_numpy_scalar_approach_reads_like_a_float(self, approach):
        model = SensorModel(position=PositionSensorSpec(uninformative_scale=4.0))
        got = observe_position(np.float64(approach), np.zeros(2), model, derive_rng(5, 11))
        want = observe_position(approach, np.zeros(2), model, derive_rng(5, 11))
        assert np.array_equal(got, want)

    def test_same_inputs_same_output(self):
        model = SensorModel()
        a = sense_position(CLOSE_TRACE, (0.0, 0.0), (0.01, 0.0), model, derive_rng(4, 11))
        b = sense_position(CLOSE_TRACE, (0.0, 0.0), (0.01, 0.0), model, derive_rng(4, 11))
        assert np.array_equal(a.value, b.value)


class TestSenseMatch:
    def test_near_oracle_sensor(self):
        model = SensorModel(match=MatchSensorSpec(tpr=1 - 1e-12, fpr=1e-12))
        rng = derive_rng(5, 11)
        for _ in range(100):
            assert sense_match(1, PegType(1), model, rng)
            assert not sense_match(2, PegType(1), model, rng)

    def test_uninformative_sensor_is_truth_independent(self):
        model = SensorModel(match=MatchSensorSpec(tpr=0.5 + 1e-9, fpr=0.5 - 1e-9))
        rng = derive_rng(6, 11)
        n = 20_000
        matched = np.mean([sense_match(1, PegType(1), model, rng) for _ in range(n // 2)])
        mismatched = np.mean([sense_match(2, PegType(1), model, rng) for _ in range(n // 2)])
        se = 3.0 / (2.0 * np.sqrt(n // 2))
        assert abs(matched - 0.5) <= se and abs(mismatched - 0.5) <= se

    def test_frequencies_converge_to_rates(self):
        model = SensorModel(match=MatchSensorSpec(tpr=0.9, fpr=0.2))
        rng = derive_rng(7, 11)
        n = 10_000
        freq = np.mean([sense_match(3, PegType(3), model, rng) for _ in range(n)])
        assert freq == pytest.approx(0.9, abs=0.01)
        freq = np.mean([sense_match(1, PegType(3), model, rng) for _ in range(n)])
        assert freq == pytest.approx(0.2, abs=0.012)

    def test_rejects_bad_types(self):
        with pytest.raises(InvalidInputError):
            sense_match(0, PegType(1), SensorModel(), derive_rng(0, 11))


class TestSpecValidation:
    def test_useful_sensor_ordering_enforced(self):
        with pytest.raises(InvalidInputError):
            MatchSensorSpec(tpr=0.2, fpr=0.8)

    def test_uninformative_scale_at_least_one(self):
        with pytest.raises(InvalidInputError):
            PositionSensorSpec(uninformative_scale=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "kwargs",
        [
            lambda x: {"uninformative_scale": x},
            lambda x: {"informative_radius": x},
            lambda x: {"cov": [[x, 0.0], [0.0, 1e-4]]},
            lambda x: {"cov": [[1e-4, x], [x, 1e-4]]},
        ],
    )
    def test_non_finite_rejected(self, kwargs, bad):
        with pytest.raises(InvalidInputError):
            PositionSensorSpec(**kwargs(bad))

    def test_covariance_must_be_pd(self):
        with pytest.raises(InvalidInputError):
            PositionSensorSpec(cov=np.zeros((2, 2)))
