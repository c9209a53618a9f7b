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


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by `key` under `master_seed`, a
    non-negative integer by `check_integer`'s rule."""
    master_seed = check_integer(master_seed, "seed")
    if master_seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {master_seed}")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)
