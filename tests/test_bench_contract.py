"""What the benchmark's tracer needs from the package.

`bench/tracer.py` times each layer by patching the public function it names
on its module.  A renamed or deleted name would make that layer's metrics
read null, which the benchmark rejects, so the names and the rollout
outcome's shape are pinned here, and so is the loss history that the
tracer's epoch count reads.  The tracer is loaded from its file and not
changed.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from belieffit import (
    EnvConfig,
    HoleGroundTruth,
    PegType,
    SensorModel,
    SpiralParams,
    batch_nll,
    fit_parameters,
    generate_dataset,
    grad_nll,
    rollout_low_level,
    rollout_random_actions,
)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", sorted(load_tracer().LAYERS))
def test_every_traced_layer_is_a_public_function(layer):
    home, name = layer.split(".")
    assert callable(getattr(importlib.import_module(f"belieffit.{home}"), name, None))


@pytest.mark.parametrize("rollout", [rollout_low_level, rollout_random_actions])
def test_rollout_outcome_has_what_the_tracer_counts(rollout):
    hole = HoleGroundTruth(hole_type=1, position=(0.0, 0.0))
    outcome = rollout((0.001, 0.0), PegType(1), hole, SpiralParams(), EnvConfig(),
                      np.random.default_rng(0))
    counts = load_tracer()._rollout_counts((), {}, outcome)
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
    counts = load_tracer()._fit_counts((records,), {"history_out": history}, params)
    assert counts == {"epochs": 25}


def test_loss_probes_keep_their_names():
    # the `fit_10k` workload times these two by name; the fit calls neither
    layers = load_tracer().LAYERS
    assert "training.grad_nll" in layers and "training.batch_nll" in layers
    records = generate_dataset(EnvConfig(), SensorModel(), 10, np.random.default_rng(1),
                               SpiralParams())
    params = fit_parameters(records, init=None, lr=0.01, epochs=1, alpha=0.34)
    grad = grad_nll(params, records, 0.34)
    assert grad.shape == (5,) and np.all(np.isfinite(grad))
    assert math.isfinite(batch_nll(params, records, 0.34))
