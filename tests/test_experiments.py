import dataclasses

import numpy as np
import pytest

from belieffit import (
    EnvConfig,
    FilterModels,
    GaussianBelief2,
    HoleBelief,
    MatchObservationModel,
    PegType,
    PolicyModels,
    PolicyVariant,
    PositionNoiseModel,
    PositionSensorSpec,
    SensorModel,
    SpiralParams,
    TypeBelief,
    derive_rng,
    init_beliefs,
    spawn_world,
    vision_detect,
)
from belieffit import experiments, policy
from belieffit.beliefs import MAX_HORIZON, BeliefArrays
from belieffit.errors import ConfigurationError, InvalidInputError
from belieffit.experiments import (
    DEFAULT_VARIANTS,
    KIND_ASSEMBLY,
    KIND_MATCHING,
    KIND_POSITION,
    METRIC_COLUMNS,
    STEP_COLUMNS,
    ExperimentSpec,
    ResultRow,
    _row,
    _single_hole_study,
    run_experiment,
)
from belieffit.policy import run_tasks, steps_task
from belieffit.sim import capture_radius_bound

# Spread of the mean NEES over steps 1-5 of `position_estimation`'s
# `full_approach` in the exact setting below, 3000 trials: over seeds
# 1000-1099 it had mean 1.996 and standard deviation 0.030.
NEES_SD = 0.030
# Spread of a reliability bin's z in the exact setting below, 4000 tasks of
# up to 5 steps: over seeds 1000-1099 the five bins' z had standard
# deviations 0.974, 0.992, 1.103, 1.068 and 1.197; the band uses the largest.
RELIABILITY_Z_SD = 1.197


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

    def test_kalman_path_is_consistent_where_its_model_is_exact(self):
        """The mean NEES, e' S^-1 e for the error e of the belief mean from
        the hole, is 2 for a 2-D position when the filter's second moments
        are the truth's.  Here they are: the detector's error is uniform on
        +-0.02 m per axis, of variance 0.02^2 / 3 = sigma_init, and the
        sensor reads every failure with the filter's covariance, since
        `uninformative_scale` 1 removes its second regime.  The band is 4
        standard deviations of the statistic over seeds."""
        sensors = SensorModel(position=PositionSensorSpec(uninformative_scale=1.0))
        spec = ExperimentSpec(
            kind=KIND_POSITION, env=EnvConfig(sigma_init=0.02 ** 2 / 3), spiral=SpiralParams(),
            sensors=sensors, learned=sensors.filter_models(), trials=3000, seed=5,
            variants=(PolicyVariant.FULL_APPROACH,), steps=5,
        )
        (trials,), _ = _single_hole_study(spec, matched=False)
        holes, means, covs = [], [], []
        for (world, _, _), result in trials:
            records = result.episodes[0].records
            assert len(records) == spec.steps  # a mismatched peg never goes in
            holes += [world.holes[0].position] * len(records)
            means += [r.mean for r in records]
            covs += [r.cov for r in records]
        error = np.array(means) - np.array(holes)
        scaled = np.linalg.solve(np.array(covs), error[:, :, None])[:, :, 0]
        nees = np.einsum("ni,ni->n", error, scaled)
        assert abs(nees.mean() - 2.0) <= 4 * NEES_SD


class TestTypeReliability:
    def test_type_posterior_is_calibrated_where_its_model_is_exact(self):
        """Among the selections at which the filter gives the peg's type
        probability p, a share p match the hole, when the filter's model is
        the world's: one hole of a uniform type, a peg of a uniform type, a
        capture radius at which every aligned, matched rollout inserts, so
        that a match inserts at the alignment rate, which is alpha, and the
        match sensor's truth in the filter.  A selection's p is the prior
        `xi` before its step.  Selections are binned by fifths of [0, 1],
        and each bin's z is its match share minus its mean p over a standard
        error that sums each task's residuals first, since a task's
        selections share its match.  The band is 4 standard deviations of
        the bins' z over seeds."""
        spiral, base = SpiralParams(), EnvConfig(n_holes=1)
        env = dataclasses.replace(base, alpha=base.alignment_rate,
                                  capture_radius=capture_radius_bound(base, spiral))
        sensors = SensorModel()
        models = PolicyModels(spiral=spiral, sensor=sensors, filters=sensors.filter_models())
        tasks, matched = [], []
        for trial in range(4000):
            world = spawn_world(env, derive_rng(5, 1, trial), spiral)
            rng = derive_rng(5, 2, trial)
            peg = PegType(int(rng.integers(1, env.n_types + 1)))
            matched.append(world.holes[0].hole_type == peg.value)
            tasks.append((steps_task(init_beliefs(world, rng), world, peg,
                                     PolicyVariant.FULL_APPROACH, models, 5, rng), rng))
        task, predicted, hit = [], [], []
        for i, ((peg, records, _), match) in enumerate(zip(run_tasks(tasks, spiral, env),
                                                          matched)):
            priors = [1.0 / env.n_types] + [r.xi[peg.value - 1] for r in records[:-1]]
            task += [i] * len(priors)
            predicted += priors
            hit += [match] * len(priors)
        task, predicted = np.array(task), np.array(predicted)
        residual = np.array(hit, dtype=float) - predicted
        bins = np.minimum((predicted * 5).astype(int), 4)
        for b in np.unique(bins).tolist():
            per_task = np.bincount(task[bins == b], weights=residual[bins == b])
            z = per_task.sum() / np.sqrt(per_task @ per_task)
            assert abs(z) <= 4 * RELIABILITY_Z_SD, (b, z)


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
        for spec in (make_spec("assembly", trials=3, steps=8),
                     dataclasses.replace(make_spec("assembly", trials=5), seed=1),
                     make_spec("assembly", trials=5, steps=6)):
            metric_rows, step_rows = run_experiment(spec)
            for variant in DEFAULT_VARIANTS["assembly"]:
                rows = [r for r in metric_rows if r.variant == variant.value]
                iv = [r for r in rows if r.metric == "intervention_rate"]
                assert len(iv) == 1 and 0.0 <= iv[0].value <= 1.0
                cums = [r for r in rows if r.metric == "cum_attempts_mean"]
                assert [r.step for r in cums] == [1, 2, 3, 4, 5]
                assert all(b.value >= a.value for a, b in zip(cums, cums[1:]))
                hist = [r for r in rows if r.metric == "attempts_hist"]
                assert [r.step for r in hist] == list(range(-(-spec.steps * 5 // 6)))
                assert sum(r.value for r in hist) == spec.trials
            assert step_rows  # replay data present


@pytest.mark.parametrize("kind, cap_ending", [
    ("position_estimation", "step_cap"), ("matching_insertion", "step_cap"),
    ("assembly", "intervention"),
])
def test_step_rows_account_for_each_episode(kind, cap_ending):
    # caps small enough that episodes end at the cap as well as by a fit
    spec = make_spec(kind, trials=4, steps=3)
    col = {name: STEP_COLUMNS.index(name) for name in STEP_COLUMNS}
    episodes = {}
    for row in run_experiment(spec)[1]:
        key = row[col["variant"]], row[col["trial"]], row[col["peg_index"]]
        episodes.setdefault(key, []).append(row)
    assert len(episodes) == len(spec.variants) * spec.trials * (5 if kind == "assembly" else 1)
    endings = set()
    for rows in episodes.values():
        assert [row[col["step"]] for row in rows] == list(range(1, len(rows) + 1))
        (status,) = {row[col["status"]] for row in rows}
        betas = [row[col["beta"]] for row in rows]
        assert [row[col["fitted"]] for row in rows] == betas
        assert not any(betas[:-1])
        assert (status == "success") == (betas[-1] == 1)
        if status != "success":
            assert (status, len(rows)) == (cap_ending, spec.steps)
        endings.add(status)
    # a mismatched peg never fits
    assert endings == ({"step_cap"} if kind == "position_estimation" else {"success", cap_ending})


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
            short = run_experiment(make_spec(kind, trials=k, steps=8))[1]
            long = run_experiment(make_spec(kind, trials=n, steps=8))[1]
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

    def test_steps_default_per_kind_and_lie_in_range(self):
        # matching_insertion's default is the config's horizon_high
        env = EnvConfig(horizon_high=7)
        defaults = {kind: dataclasses.replace(make_spec(kind), env=env, steps=None).steps
                    for kind in (KIND_POSITION, KIND_MATCHING, KIND_ASSEMBLY)}
        assert defaults == {KIND_POSITION: 5, KIND_MATCHING: 7, KIND_ASSEMBLY: 30}
        for kind in defaults:
            assert make_spec(kind, steps=MAX_HORIZON).steps == MAX_HORIZON
            for steps in (0, MAX_HORIZON + 1):
                with pytest.raises(ConfigurationError, match=r"steps must lie in \[1, 100000\]"):
                    make_spec(kind, steps=steps)

    # each integer field and the class that checks it, made with value v
    INTEGER_FIELDS = {
        "EnvConfig.n_holes": lambda v: EnvConfig(n_holes=v),
        "EnvConfig.n_types": lambda v: EnvConfig(n_types=v),
        "EnvConfig.horizon_high": lambda v: EnvConfig(horizon_high=v),
        "EnvConfig.horizon_low": lambda v: EnvConfig(horizon_low=v),
        "SpiralParams.n_rot": lambda v: SpiralParams(n_rot=v),
        "ExperimentSpec.trials": lambda v: make_spec(KIND_ASSEMBLY, trials=v),
        "ExperimentSpec.steps": lambda v: make_spec(KIND_ASSEMBLY, steps=v),
        "derive_rng.seed": derive_rng,
    }

    @pytest.mark.parametrize("field", list(INTEGER_FIELDS))
    def test_integer_fields_are_checked_by_their_class(self, field):
        # an int or a whole float, taken as an int; a bool, a string or a
        # fraction is rejected before any range check, by the class itself
        make, key = self.INTEGER_FIELDS[field], field.rpartition(".")[2]
        error = InvalidInputError if key == "seed" else ConfigurationError
        for whole in (3, 3.0, np.int64(3), np.float64(3.0)):
            made = make(whole)
            if key == "seed":
                assert made.random() == derive_rng(3).random()
            else:
                assert type(getattr(made, key)) is int and getattr(made, key) == 3
        for bad in (2.5, True, False, "3", float("nan"), float("inf"), -0.5):
            with pytest.raises(error) as raised:
                make(bad)
            assert str(raised.value) == f"{key} must be an integer, got {bad!r}"

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


def _row_entries(state: BeliefArrays):
    """Every float and every flag of a trial's belief rows."""
    floats = [x for mean, ((c00, c01), (c10, c11)), xi in zip(state.means, state.covs, state.xi)
              for x in (*mean, c00, c01, c10, c11, *xi)]
    return floats, state.fitted


def _record_entries(record):
    """Every float and every flag of a step record, each with its type."""
    floats = [*record.start_estimate, *record.mean, *record.cov[0], *record.cov[1], *record.xi,
              record.pos_error]
    return [(type(x), x) for x in (*floats, record.beta, record.evidence_reset)]


class TestBeliefRows:
    """A trial's beliefs are rows of Python floats and bools, whatever built
    them, so no numpy scalar reaches a step or its record."""

    @pytest.mark.parametrize("kind", [KIND_POSITION, KIND_MATCHING, KIND_ASSEMBLY])
    def test_every_study_steps_python_rows(self, kind, monkeypatch):
        original, stepped = policy.steps_task, []

        def recording(state, *args):
            episode = yield from original(state, *args)
            stepped.append((state, episode))
            return episode

        monkeypatch.setattr(experiments, "steps_task", recording)
        monkeypatch.setattr(policy, "steps_task", recording)
        spec = make_spec(kind, trials=3, variants=tuple(PolicyVariant))
        run_experiment(spec)
        pegs = spec.env.n_holes if kind == KIND_ASSEMBLY else 1
        assert len(stepped) == len(PolicyVariant) * spec.trials * pegs
        for state, episode in stepped:
            floats, flags = _row_entries(state)
            assert all(type(x) is float for x in floats)
            assert all(type(flag) is bool for flag in flags)
            for record in episode.records:
                entries = _record_entries(record)
                assert all(t is float for t, _ in entries[:-2])
                assert all(t is bool for t, _ in entries[-2:])

    def test_rows_from_numpy_arrays_step_as_rows_from_objects(self):
        spec = make_spec(KIND_ASSEMBLY)
        env = spec.env
        world = spawn_world(env, derive_rng(5, 1), spec.spiral)
        means = vision_detect(np.array([h.position for h in world.holes]),
                              env.detector_error_bound, derive_rng(5, 2).random((env.n_holes, 2)))
        covs = np.tile(env.sigma_init * np.eye(2), (env.n_holes, 1, 1))
        xi = derive_rng(5, 3).dirichlet(np.ones(env.n_types), env.n_holes)
        fitted = np.arange(env.n_holes) == 2
        objects = [HoleBelief(GaussianBelief2(m, c), TypeBelief(x), f)
                   for m, c, x, f in zip(means, covs, xi, fitted)]
        peg = PegType(world.holes[0].hole_type)
        for variant in PolicyVariant:
            states = BeliefArrays(means, covs, xi, fitted), BeliefArrays.of(objects)
            logs = []
            for state in states:
                rng = derive_rng(5, 4, list(PolicyVariant).index(variant))
                task = steps_task(state, world, peg, variant, spec.models, 10, rng)
                logs.append(run_tasks([(task, rng)], spec.spiral, env)[0])
            from_arrays, from_objects = ([_record_entries(r) for r in log.records] for log in logs)
            assert from_arrays == from_objects
            assert all(t is float for entries in from_arrays for t, _ in entries[:-2])
            (floats, flags), rows_of_objects = map(_row_entries, states)
            assert (floats, flags) == rows_of_objects
            assert all(type(x) is float for x in floats)
            assert all(type(flag) is bool for flag in flags)
