"""The batched paths against the per-record and per-trial loops they replace.

`generate_dataset` and calibration draw each record's or trial's numbers in
stream order, then run one array pass per block.  The references below are
those loops as they were written before: one rollout, one sensor read and
one checked record constructor at a time.  Every record row, every radius
and the generator's state after the call must be bitwise equal.  A loaded
dataset is checked line by line against the same constructor.
"""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belieffit import (
    EnvConfig,
    HoleGroundTruth,
    InteractionRecord,
    PegType,
    PositionSensorSpec,
    SensorModel,
    SpiralParams,
    generate_dataset,
    rollout_low_level,
    rollout_random_actions,
    sense_match,
)
from belieffit import sim
from belieffit.beliefs import normalized
from belieffit.errors import InvalidInputError
from belieffit.runfiles import write_csv
from belieffit.training import DATASET_COLUMNS, load_dataset
from sensing import sense_trace

R_MAX = SpiralParams().r_max
SKEWED_SENSOR = SensorModel(position=PositionSensorSpec(
    cov=np.array([[6.4e-5, 2.5e-5], [2.5e-5, 4.1e-5]]), bias=np.array([1e-3, -2e-3]),
))


def reference_dataset(config, sensor_model, n_interactions, rng, spiral):
    """`generate_dataset` as a loop of one record at a time."""
    n_matched = (n_interactions + 1) // 2
    lo, hi = sim.placement_box(config, spiral)
    types = range(1, config.n_types + 1)
    others = {h: [t for t in types if t != h] for h in types}
    sigma0 = config.sigma_init * np.eye(2)
    records = []
    for i in range(n_interactions):
        hole_type = int(rng.integers(1, config.n_types + 1))
        if i < n_matched:
            peg_type = hole_type
        else:
            choices = others[hole_type]
            peg_type = int(choices[rng.integers(0, len(choices))])
        p = rng.uniform(lo, hi)
        hole = HoleGroundTruth(hole_type=hole_type, position=p)
        mu0 = p + rng.uniform(-config.detector_error_bound, config.detector_error_bound, 2)
        xi0 = normalized(rng.uniform(0.0, 1.0, config.n_types).tolist())
        outcome = rollout_random_actions(mu0, PegType(peg_type), hole, spiral, config, rng)
        innovation = sense_trace(outcome.trace, p, mu0, sensor_model, rng)
        o_match = sense_match(peg_type == hole_type, sensor_model, rng.random())
        records.append(InteractionRecord(
            peg_type=peg_type, hole_type=hole_type, position=p, mu0=mu0, sigma0=sigma0,
            xi0=xi0, obs=innovation.value + mu0, o_match=o_match, beta=outcome.success,
        ))
    return records


def reference_radii(config, spiral, trials, rng):
    """`sim._critical_radii` as a loop of one unmatched single rollout a
    trial, whose alignment draw is read from a copy of the generator."""
    center = 0.5 * (np.asarray(config.workspace_min) + np.asarray(config.workspace_max))
    hole = HoleGroundTruth(hole_type=1, position=center)
    bound = config.detector_error_bound
    radii = np.full(trials, np.inf)
    for i in range(trials):
        detection = center + rng.uniform(-bound, bound, 2)
        aligned = copy.deepcopy(rng).random() < config.alignment_rate
        outcome = rollout_low_level(detection, PegType(2), hole, spiral, config, rng)
        if aligned:
            radii[i] = outcome.closest_approach
    return radii


@st.composite
def setups(draw):
    """A world, a wiggle and a block size, with the edge cases among them:
    no wiggle, an exact detector, certain alignment, a workspace so tight
    that clipping acts, and blocks of one or a few rollouts."""
    bound = draw(st.sampled_from([0.0, 0.004, 0.02]))
    half = draw(st.sampled_from([0.25, bound + R_MAX + 0.002]))
    env = EnvConfig(
        n_types=draw(st.integers(2, 9)),
        horizon_low=draw(st.integers(1, 300)),
        detector_error_bound=bound,
        workspace_min=(-half, -half),
        workspace_max=(half, half),
        capture_radius=draw(st.sampled_from([0.0025, 0.01])),
        alignment_rate=draw(st.sampled_from([0.36, 1.0])),
    )
    spiral = SpiralParams(sigma_wiggle=draw(st.sampled_from([0.0, 0.00125, 0.01])))
    block_bytes = draw(st.sampled_from([sim.BLOCK_BYTES, 1, 16 * env.horizon_low * 3]))
    return env, spiral, block_bytes


def assert_same_records(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a._row.tobytes() == b._row.tobytes()
        assert (a.peg_type, a.hole_type, a.o_match, a.beta) == (
            b.peg_type, b.hole_type, b.o_match, b.beta)
        assert type(a.peg_type) is int and type(a.hole_type) is int
        assert type(a.o_match) is bool and type(a.beta) is bool
        for name in ("position", "mu0", "obs", "xi0", "sigma0"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(setup=setups(), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       sensor_model=st.sampled_from([SensorModel(), SKEWED_SENSOR]))
def test_generate_dataset_matches_per_record_loop(setup, seed, n, sensor_model):
    env, spiral, block_bytes = setup
    rng = np.random.default_rng(seed)
    expected = reference_dataset(env, sensor_model, n, rng, spiral)
    batched = np.random.default_rng(seed)
    with mock.patch.object(sim, "BLOCK_BYTES", block_bytes):
        got = generate_dataset(env, sensor_model, n, batched, spiral)
    assert_same_records(got, expected)
    assert batched.bit_generator.state == rng.bit_generator.state


@settings(derandomize=True, max_examples=60, deadline=None)
@given(setup=setups(), seed=st.integers(0, 2**32 - 1), trials=st.integers(2, 40))
def test_critical_radii_match_per_trial_loop(setup, seed, trials):
    env, spiral, block_bytes = setup
    rng = np.random.default_rng(seed)
    expected = reference_radii(env, spiral, trials, rng)
    batched = np.random.default_rng(seed)
    with mock.patch.object(sim, "BLOCK_BYTES", block_bytes):
        got = sim._critical_radii(env, spiral, trials, batched)
    assert got.tobytes() == expected.tobytes()
    assert batched.bit_generator.state == rng.bit_generator.state


def test_generation_spans_several_default_blocks():
    env = EnvConfig(horizon_low=20_000)  # 3 records to a block
    rng, batched = np.random.default_rng(5), np.random.default_rng(5)
    expected = reference_dataset(env, SensorModel(), 7, rng, SpiralParams())
    assert sim.block_size(env.horizon_low) == 3
    assert_same_records(generate_dataset(env, SensorModel(), 7, batched, SpiralParams()),
                        expected)
    assert batched.bit_generator.state == rng.bit_generator.state


_FAULTS = ["position", "mu0", "obs", "peg_type", "hole_type", "o_match", "beta"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), size=st.integers(2, 9), n=st.integers(1, 6),
       sigma_init=st.sampled_from([1e-4, 2.5e-3, 1.0]))
def test_load_accepts_and_rejects_as_the_constructor(tmp_path_factory, data, size, n,
                                                     sigma_init):
    """Each CSV line is checked as the constructor checks a record: a file
    loads as the constructor's rows or fails naming its first bad line."""
    lines, expected, message = [], [], None
    for line in range(2, n + 2):
        row = {name: np.array(data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
               for name in ("position", "mu0", "obs")}
        row["peg_type"], row["hole_type"] = data.draw(st.integers(1, size)), data.draw(
            st.integers(1, size))
        row["o_match"], row["beta"] = data.draw(st.booleans()), data.draw(st.booleans())
        flags = {"o_match": str(int(row["o_match"])), "beta": str(int(row["beta"]))}
        fault = ([None] * 12 + _FAULTS)[data.draw(st.integers(0, 11 + len(_FAULTS)))]
        if fault in ("peg_type", "hole_type"):
            row[fault] = data.draw(st.sampled_from([-1, 0, size + 1, 10**30]))
        elif fault in flags:
            flags[fault] = data.draw(st.sampled_from(["2", "-1", "true", "", " 1"]))
        elif fault:
            row[fault][data.draw(st.integers(0, 1))] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        lines.append([row["peg_type"], row["hole_type"], *row["position"], *row["mu0"],
                      *row["obs"], flags["o_match"], flags["beta"]])
        if message is None and fault in flags:
            message = f"line {line}: a flag must be 0 or 1, got {flags[fault]!r}"
        elif message is None:
            try:
                expected.append(InteractionRecord(
                    sigma0=sigma_init * np.eye(2), xi0=np.full(size, 1.0 / size), **row))
            except InvalidInputError as exc:
                message = f"line {line}: {exc}"
    path = tmp_path_factory.mktemp("dataset") / "data.csv"
    write_csv(path, DATASET_COLUMNS, lines)

    config = EnvConfig(n_types=size, sigma_init=sigma_init)
    if message is None:
        assert_same_records(load_dataset(path, config), expected)
    else:
        with pytest.raises(InvalidInputError) as exc:
            load_dataset(path, config)
        assert str(exc.value) == f"{path} {message}"


def test_load_names_the_first_bad_line(tmp_path):
    # an out-of-range type on line 3 comes before an unparsable cell on line 5
    path = tmp_path / "data.csv"
    write_csv(path, DATASET_COLUMNS, [
        [1, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1, 0],
        [4, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1, 0],
        [1, 2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0],
        [1, 1, "x", 0.0, 0.0, 0.0, 0.0, 0.0, 1, 0],
    ])
    with pytest.raises(InvalidInputError) as exc:
        load_dataset(path, EnvConfig(n_types=3))
    assert str(exc.value) == f"{path} line 3: types out of range"
