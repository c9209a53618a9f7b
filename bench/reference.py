"""Reference kernels: fixed work, independent of the package, timed next to
each measurement to show how fast the host runs at that moment.

The host this benchmark was built on is shared and its speed drifts by a
third within minutes, so rates are reported at a reference speed: the speed
at which a kernel takes `BASE_S`.  Each workload names the kernel whose work
resembles its own, because interpreter-bound and array-bound code do not
speed up or slow down together.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

BASE_S = 0.04  # kernel time that defines the reference speed


def loop_seconds() -> float:
    """A Python loop of small numpy operations, shaped like a control step."""
    x, lo, hi, acc = np.zeros(3), np.full(2, -1.0), np.full(2, 1.0), 0.0
    t0 = perf_counter()
    for j in range(4000):
        x = 0.5 * x + np.array([1e-3 * j, -2e-3, 5e-4])
        x[:2] = np.clip(x[:2], lo, hi)
        acc += float(np.linalg.norm(x[:2]))
    return perf_counter() - t0


def batch_seconds() -> float:
    """Array operations on stacks of 10 000 2x2 matrices, like a training
    epoch at 10k records."""
    rng = np.random.default_rng(0)
    a, v = rng.standard_normal((10_000, 2, 2)), rng.standard_normal((10_000, 2))
    t0 = perf_counter()
    for _ in range(12):
        b = np.einsum("nij,njk->nik", a, a)
        q = np.einsum("ni,nij,nj->n", v, b, v)
        det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
        q.sum()
        np.log(np.abs(det) + 1.0).mean()
    return perf_counter() - t0


KERNELS = {"loop": loop_seconds, "batch": batch_seconds}


def host_factor(measure, kernel: str = "loop"):
    """Run `measure()` between two timings of a kernel.  Returns its result
    and how much slower than the reference speed the host ran."""
    seconds = KERNELS[kernel]
    before = seconds()
    result = measure()
    return result, (before + seconds()) / (2 * BASE_S)
