import dataclasses

import numpy as np
import pytest

from belieffit import (
    EnvConfig,
    FilterModels,
    MatchObservationModel,
    PolicyVariant,
    PositionNoiseModel,
    SensorModel,
    SpiralParams,
)
from belieffit.errors import ConfigurationError, InvalidInputError
from belieffit.experiments import (
    DEFAULT_VARIANTS,
    METRIC_COLUMNS,
    STEP_COLUMNS,
    ExperimentSpec,
    ResultRow,
    _row,
    run_experiment,
)


def make_spec(kind, trials=4, **kwargs):
    return ExperimentSpec(
        kind=kind,
        env=EnvConfig(),
        spiral=SpiralParams(),
        sensors=SensorModel(),
        learned=FilterModels(
            position=PositionNoiseModel(6.4e-5 * np.eye(2)),
            match=MatchObservationModel(0.85, 0.15),
        ),
        trials=trials,
        seed=77,
        **kwargs,
    )


class TestPositionEstimation:
    def test_row_layout(self):
        spec = make_spec("position_estimation", trials=6, steps=3)
        metric_rows, step_rows = run_experiment(spec)
        for variant in DEFAULT_VARIANTS["position_estimation"]:
            means = [
                r for r in metric_rows
                if r.variant == variant.value and r.metric == "pos_error_mean"
            ]
            assert [r.step for r in means] == [0, 1, 2, 3]
            stds = [
                r for r in metric_rows
                if r.variant == variant.value and r.metric == "pos_error_std"
            ]
            assert len(stds) == 4
        # mismatched peg: every trial completes all steps
        assert len(step_rows) == 2 * 6 * 3

    def test_step_zero_error_shared_across_variants(self):
        spec = make_spec("position_estimation", trials=5)
        metric_rows, _ = run_experiment(spec)
        t0 = {
            r.variant: r.value
            for r in metric_rows
            if r.metric == "pos_error_mean" and r.step == 0
        }
        vals = list(t0.values())
        assert vals[0] == pytest.approx(vals[1], abs=1e-15)


class TestMatchingInsertion:
    def test_success_curve_monotone(self):
        spec = make_spec("matching_insertion", trials=12)
        metric_rows, _ = run_experiment(spec)
        for variant in DEFAULT_VARIANTS["matching_insertion"]:
            curve = [
                r.value for r in metric_rows
                if r.variant == variant.value and r.metric == "success_rate"
            ]
            assert len(curve) == spec.env.horizon_high
            assert all(b >= a for a, b in zip(curve, curve[1:]))
            assert all(0.0 <= v <= 1.0 for v in curve)

    def test_no_success_gives_a_curve_of_zeros(self):
        spec = make_spec("matching_insertion", trials=3)
        env = dataclasses.replace(spec.env, alignment_rate=1e-12, capture_radius=1e-12)
        metric_rows, step_rows = run_experiment(dataclasses.replace(spec, env=env))
        assert {row[STEP_COLUMNS.index("status")] for row in step_rows} == {"step_cap"}
        curve = [r.value for r in metric_rows if r.metric == "success_rate"]
        assert curve == [0.0] * (4 * spec.env.horizon_high)


class TestAssembly:
    def test_metrics_present_and_consistent(self):
        # a step cap times 5 pegs that is a multiple of the bin width puts a
        # trial whose every peg hit the cap on the top bin's closed edge: the
        # CLI's defaults (cap 30) at seed 1, and cap 6, each have one
        for spec in (make_spec("assembly", trials=3, step_cap=8),
                     dataclasses.replace(make_spec("assembly", trials=5), seed=1),
                     make_spec("assembly", trials=5, step_cap=6)):
            metric_rows, step_rows = run_experiment(spec)
            for variant in DEFAULT_VARIANTS["assembly"]:
                rows = [r for r in metric_rows if r.variant == variant.value]
                iv = [r for r in rows if r.metric == "intervention_rate"]
                assert len(iv) == 1 and 0.0 <= iv[0].value <= 1.0
                cums = [r for r in rows if r.metric == "cum_attempts_mean"]
                assert [r.step for r in cums] == [1, 2, 3, 4, 5]
                assert all(b.value >= a.value for a, b in zip(cums, cums[1:]))
                hist = [r for r in rows if r.metric == "attempts_hist"]
                assert [r.step for r in hist] == list(range(-(-spec.step_cap * 5 // 6)))
                assert sum(r.value for r in hist) == spec.trials
            assert step_rows  # replay data present


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["position_estimation", "matching_insertion"])
    def test_identical_reruns(self, kind):
        a_metrics, a_steps = run_experiment(make_spec(kind, trials=5))
        b_metrics, b_steps = run_experiment(make_spec(kind, trials=5))
        assert a_metrics == b_metrics
        assert a_steps == b_steps

    def test_trial_prefix_does_not_change_results(self):
        # each trial draws from its own streams, so trials 0..k-1 give the
        # same step rows in a run of k trials as in a longer run
        k, n = 2, 5
        for kind in ("position_estimation", "matching_insertion", "assembly"):
            short = run_experiment(make_spec(kind, trials=k, step_cap=8))[1]
            long = run_experiment(make_spec(kind, trials=n, step_cap=8))[1]
            assert short
            assert short == [row for row in long if row[STEP_COLUMNS.index("trial")] < k]


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_spec("warp_drive")

    def test_repeated_variant(self):
        with pytest.raises(ConfigurationError, match="'failure_only' named twice"):
            make_spec("assembly", variants=(
                PolicyVariant.FAILURE_ONLY, PolicyVariant.FULL_APPROACH, PolicyVariant.FAILURE_ONLY))

    def test_zero_trials(self):
        with pytest.raises(ConfigurationError):
            make_spec("assembly", trials=0)

    def test_negative_seed(self):
        spec = dataclasses.replace(make_spec("position_estimation"), seed=-1)
        with pytest.raises(InvalidInputError, match="seed must be non-negative"):
            run_experiment(spec)

    def test_result_row_finite(self):
        # `_row` makes every metric row, so it is where a value is checked
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidInputError, match="metric values must be finite"):
                _row(make_spec("assembly"), PolicyVariant.FULL_APPROACH, 0, "x", value)

    def test_result_row_fields_are_the_metrics_header(self):
        row = _row(make_spec("assembly"), PolicyVariant.FULL_APPROACH, 2, "x", 0.5)
        assert METRIC_COLUMNS == ResultRow._fields == (
            "experiment", "variant", "trial", "step", "metric", "value", "seed")
        assert row == ("assembly", "full_approach", -1, 2, "x", 0.5, 77)
