"""What the benchmark's tracer needs from the package.

`bench/tracer.py` times each layer by patching the public function it names
on its module.  A renamed or deleted name would make that layer's metrics
read null, which the benchmark rejects, so the names and the rollout
outcome's shape are pinned here, and so is the loss history that the
tracer's epoch count reads.  So are the record fields that the workloads
read and the keyword constructor that `fit_10k` builds its records with.
The tracer and the workloads are loaded from their files and not changed.
"""

import csv
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from belieffit import (
    EnvConfig,
    HoleGroundTruth,
    InteractionRecord,
    PegType,
    SensorModel,
    SpiralParams,
    batch_nll,
    fit_parameters,
    generate_dataset,
    grad_nll,
    load_dataset,
    rollout_low_level,
    rollout_random_actions,
    save_dataset,
)
from belieffit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", sorted(load_bench("tracer").LAYERS))
def test_every_traced_layer_is_a_public_function(layer):
    home, name = layer.split(".")
    assert callable(getattr(importlib.import_module(f"belieffit.{home}"), name, None))


def test_traced_assembly_counts_the_steps_it_ran(tmp_path, capsys):
    # the step's hole choice, the studies' initial beliefs and the sensor
    # reads are the traced names themselves, so a traced run counts each
    # one as `steps.csv` does
    with load_bench("tracer").Tracer() as tracer:
        code = cli.main(["experiment", "assembly", "--trials", "3", "--seed", "2",
                         "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    calls = {layer: stats["calls"] for layer, stats in tracer.layer_stats().items()}
    with open(tmp_path / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    kalman = {"full_approach", "failure_plus_position"}
    assert calls["policy.select_hole"] == calls["beliefs.fit_probability"] == len(rows)
    assert calls["sensors.sense_position"] == sum(
        r["variant"] in kalman and r["beta"] == "0" for r in rows)
    assert calls["sensors.sense_match"] == sum(r["variant"] == "full_approach" for r in rows)
    assert calls["policy.init_beliefs"] == len({(r["variant"], r["trial"]) for r in rows}) == 9
    assert calls["sensors.sense_position"] > 0


@pytest.mark.parametrize("rollout", [rollout_low_level, rollout_random_actions])
def test_rollout_outcome_has_what_the_tracer_counts(rollout):
    hole = HoleGroundTruth(hole_type=1, position=(0.0, 0.0))
    outcome = rollout((0.001, 0.0), PegType(1), hole, SpiralParams(), EnvConfig(),
                      np.random.default_rng(0))
    counts = load_bench("tracer")._rollout_counts((), {}, outcome)
    assert counts == {"control_steps": len(outcome.trace), "insertions": int(outcome.success)}
    assert 1 <= counts["control_steps"] <= EnvConfig().horizon_low


def test_fit_appends_one_finite_loss_per_epoch():
    # `training.fit_parameters.epochs` is the length of `history_out`, and
    # `epoch_ms` divides the call's time by it
    records = generate_dataset(EnvConfig(), SensorModel(), 40, np.random.default_rng(0),
                               SpiralParams())
    history: list = []
    params = fit_parameters(records, init=None, lr=0.01, epochs=25, alpha=0.34,
                            history_out=history)
    assert len(history) == 25
    assert all(type(loss) is float and math.isfinite(loss) for loss in history)
    counts = load_bench("tracer")._fit_counts((records,), {"history_out": history}, params)
    assert counts == {"epochs": 25}


def test_loss_probes_keep_their_names():
    # the `fit_10k` workload times these two by name; the fit calls neither
    layers = load_bench("tracer").LAYERS
    assert "training.grad_nll" in layers and "training.batch_nll" in layers
    records = generate_dataset(EnvConfig(), SensorModel(), 10, np.random.default_rng(1),
                               SpiralParams())
    params = fit_parameters(records, init=None, lr=0.01, epochs=1, alpha=0.34)
    grad = grad_nll(params, records, 0.34)
    assert grad.shape == (5,) and np.all(np.isfinite(grad))
    assert math.isfinite(batch_nll(params, records, 0.34))


def assert_fields_the_workloads_read(record):
    assert type(record.peg_type) is int and type(record.hole_type) is int
    assert type(record.o_match) is bool and type(record.beta) is bool
    for name in ("position", "mu0", "obs"):
        value = getattr(record, name)
        assert type(value) is np.ndarray and value.shape == (2,) and value.dtype == float


def test_records_keep_the_fields_the_workloads_read(tmp_path):
    # `dataset_gen` compares generated and loaded records field by field
    env = EnvConfig()
    generated = generate_dataset(env, SensorModel(), 8, np.random.default_rng(2), SpiralParams())
    save_dataset(generated, tmp_path / "dataset.csv")
    loaded = load_dataset(tmp_path / "dataset.csv", env)
    for a, b in zip(generated, loaded, strict=True):
        assert_fields_the_workloads_read(a)
        assert_fields_the_workloads_read(b)
        assert (a.peg_type, a.hole_type, a.o_match, a.beta) == (
            b.peg_type, b.hole_type, b.o_match, b.beta)
        for name in ("position", "mu0", "obs"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    workload = load_bench("workloads").DatasetGen(3, tmp_path)
    assert workload.check(0, workload.call(0)) == []


def test_fit_workload_builds_records_by_keyword(tmp_path):
    # `fit_10k` synthesises its records with this call, keyword for keyword
    p, mu0, obs = np.array([0.01, -0.02]), np.array([0.011, -0.019]), np.array([0.0, -0.02])
    xi0 = np.array([0.5, 0.25, 0.25])
    record = InteractionRecord(
        peg_type=1, hole_type=3, position=p, mu0=mu0, sigma0=4e-4 * np.eye(2), xi0=xi0,
        obs=obs, o_match=False, beta=False,
    )
    assert_fields_the_workloads_read(record)
    assert (record.peg_type, record.hole_type, record.o_match, record.beta) == (1, 3, False, False)
    for name, value in (("position", p), ("mu0", mu0), ("obs", obs), ("xi0", xi0)):
        assert np.array_equal(getattr(record, name), value)
    workloads = load_bench("workloads")
    workload = workloads.Fit10k(1, tmp_path)
    assert len(workload.records) == workloads.FIT_RECORDS
    assert_fields_the_workloads_read(workload.records[0])
    assert workload.check(0, workload.call(0)) == []
