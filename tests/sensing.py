"""The position sensor read from a rollout's trace, for the tests.

`sensors.sense_position` reads a rollout through its closest approach to the
hole, which the rollout kernel reports.  `sense_trace` finds that approach
in a trace of tip positions and returns the reading as an innovation toward
the current mean.  The sensor tests and the reference loop of dataset
generation read the sensor through it.
"""

import numpy as np

from belieffit import Innovation, sense_position


def sense_trace(trace, true_position, current_mean, model, rng) -> Innovation:
    """Noisy innovation (observed position minus current estimate mean)
    after a trace of tip positions, an (n, 2) array."""
    true_position = np.asarray(true_position, dtype=float)
    current_mean = np.asarray(current_mean, dtype=float)
    closest = float(np.sqrt(((trace - true_position) ** 2).sum(axis=1)).min())
    observed = sense_position(closest, true_position, model, rng)
    return Innovation(observed - current_mean)
