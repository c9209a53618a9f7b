"""What the benchmark's tracer needs from the package.

`bench/tracer.py` times each layer by patching the public function it names
on its module.  A renamed or deleted name would make that layer's metrics
read null, which the benchmark rejects, so the names and the rollout
outcome's shape are pinned here.  The tracer is loaded from its file and
not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from belieffit import (
    EnvConfig,
    HoleGroundTruth,
    PegType,
    SpiralParams,
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
