"""Deterministic RNG stream derivation.

Every random draw in the package flows through a generator created by
`derive_rng(master_seed, *key)`.  Streams with distinct keys are statistically
independent, and the same (seed, key) pair always yields the same stream, so
trials can run in any order or in parallel without changing results.  The
seed and each key entry are non-negative counts by `beliefs.check_count`'s
rule, so a whole float names the stream of its integer and a bool names none.
"""

from __future__ import annotations

import numpy as np

from .beliefs import check_count

# Fixed stream tags; keeping them in one place avoids accidental collisions.
STREAM_WORLD = 0
STREAM_DETECT = 1
STREAM_EPISODE = 2
STREAM_DATASET = 3
STREAM_CALIBRATE = 4
STREAM_PEGS = 5


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by `key` under `master_seed`; the
    seed and each key entry must be non-negative integers, else
    InvalidInputError naming "seed" or "stream key"."""
    ss = np.random.SeedSequence(check_count(master_seed, "seed", 0), spawn_key=tuple(
        check_count(k, "stream key", 0) for k in key))
    return np.random.default_rng(ss)
