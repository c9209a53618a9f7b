"""Deterministic RNG stream derivation.

Every random draw in the package flows through a generator created by
`derive_rng(master_seed, *key)`.  Streams with distinct keys are statistically
independent, and the same (seed, key) pair always yields the same stream, so
trials can run in any order or in parallel without changing results.
"""

from __future__ import annotations

import numpy as np

from .beliefs import check_integer
from .errors import InvalidInputError

# Fixed stream tags; keeping them in one place avoids accidental collisions.
STREAM_WORLD = 0
STREAM_DETECT = 1
STREAM_EPISODE = 2
STREAM_DATASET = 3
STREAM_CALIBRATE = 4
STREAM_PEGS = 5


def non_negative_integer(value, key: str) -> int:
    """`value` as an int, if it is an integer by `check_integer`'s rule and
    not negative; else InvalidInputError naming `key`."""
    value = check_integer(value, key)
    if value < 0:
        raise InvalidInputError(f"{key} must be non-negative, got {value}")
    return value


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by `key` under `master_seed`; the
    seed and each key entry must be non-negative integers."""
    ss = np.random.SeedSequence(non_negative_integer(master_seed, "seed"), spawn_key=tuple(
        non_negative_integer(k, "stream key") for k in key))
    return np.random.default_rng(ss)
