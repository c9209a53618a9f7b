"""Kinematic 2D peg-in-hole world.

Holes live at known positions on the table plane, and the end effector is
a point tip driven by position deltas in it.  A matched rollout inserts
when the tip enters the capture disk around the true hole position while
the rollout's alignment draw is good; the alignment rate is the
position-independent component of low-level success, the capture disk the
position-dependent one.  So an aligned, matched rollout inserts at capture
radius r exactly when its closest tip comes within r of the hole, and
calibration gets the success rate at every radius from one batch.

Every rollout consumes its RNG in a fixed order (alignment draw, then a
normal block: a first half whose x and y rows drive the wiggle and whose z
row is drawn and unread, and a second half drawn and discarded), so
identical seeds give identical traces no matter how the rollout terminates.
No step depends on the tip before it, so a rollout computes all its steps
at once as arrays, and independent rollouts run as one array pass.
`rollout_block` is the one rollout kernel: dataset generation, calibration
and the studies' lockstep rounds (`policy.run_tasks`) draw each rollout's
numbers in stream order, then hand a block of them to it, and
`rollout_low_level` and `rollout_random_actions` run it on a block of one.
`vision_detect` is the detector's one law, from two uniforms a hole that
its callers draw: `policy.init_beliefs`, dataset generation and calibration.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import (
    MAX_HORIZON,
    MAX_LENGTH,
    MAX_PLACEMENT_ATTEMPTS,
    EnvConfig,
    HoleGroundTruth,
    PegType,
    check_integer,
    frozen_array,
)
from .errors import ConfigurationError, InvalidInputError

# bytes of x and y wiggle normals that a block of rollouts holds at once
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SpiralParams:
    """Low-level search policy parameters."""

    r_max: float = 0.015
    n_rot: int = 2
    sigma_wiggle: float = 0.00125

    def __post_init__(self):
        object.__setattr__(self, "n_rot", check_integer(self.n_rot, "n_rot", ConfigurationError))
        # written so that NaN fails each range check
        if not 0.0 < self.r_max <= MAX_LENGTH:
            raise ConfigurationError(f"r_max must lie in (0, {MAX_LENGTH:g}] m")
        # a spiral of more turns than steps only aliases
        if not 1 <= self.n_rot <= MAX_HORIZON:
            raise ConfigurationError(f"n_rot must lie in [1, {MAX_HORIZON}]")
        if not 0.0 <= self.sigma_wiggle <= MAX_LENGTH:
            raise ConfigurationError(f"wiggle scale must lie in [0, {MAX_LENGTH:g}] m")


@dataclass(frozen=True)
class RolloutOutcome:
    """A rollout's result.  `trace` holds the tips' xy, an (n, 2) read-only
    array with a row per step up to the first inserting tip, and
    `closest_approach` is the smallest tip distance to the hole over it [m],
    which the position sensor reads."""

    success: bool
    trace: np.ndarray
    closest_approach: float

    def __post_init__(self):
        if not 0.0 <= self.closest_approach < np.inf:
            raise InvalidInputError("closest approach must be finite and >= 0")


@dataclass(frozen=True)
class World:
    """Ground-truth hole layout plus the configuration it was built from."""

    holes: tuple[HoleGroundTruth, ...]
    config: EnvConfig

    def __post_init__(self):
        if not self.holes:
            raise InvalidInputError("a world needs at least one hole")

    @property
    def n_holes(self) -> int:
        return len(self.holes)


def min_hole_separation(config: EnvConfig, spiral: SpiralParams) -> float:
    """Pairwise hole distance below which spirals could reach a neighbor."""
    return 2.0 * (spiral.r_max + config.capture_radius)


def placement_box(config: EnvConfig, spiral: SpiralParams) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the region where holes may be placed: the workspace shrunk
    on each side by the detector error bound plus the spiral radius, so every
    detection and every spiral around it stays inside the workspace."""
    margin = config.detector_error_bound + spiral.r_max
    lo = np.asarray(config.workspace_min) + margin
    hi = np.asarray(config.workspace_max) - margin
    if np.any(hi <= lo):
        raise ConfigurationError(
            f"workspace too small for placement margin {margin:g} m "
            "(detector error bound + spiral r_max on each side)"
        )
    return lo, hi


def spawn_world(config: EnvConfig, rng: np.random.Generator, spiral: SpiralParams) -> World:
    """Sample a hole layout satisfying the separation invariant.

    Types cover min(n_holes, n_types) distinct values so that any peg drawn
    from the present types has a matching hole; extra holes get uniform types.
    """
    sep = min_hole_separation(config, spiral)
    lo, hi = placement_box(config, spiral)

    positions: list[np.ndarray] = []
    attempts = 0
    while len(positions) < config.n_holes:
        if attempts >= MAX_PLACEMENT_ATTEMPTS:
            raise ConfigurationError(
                f"could not place {config.n_holes} holes at separation {sep:.3f} m"
            )
        attempts += 1
        cand = rng.uniform(lo, hi)
        if all(np.linalg.norm(cand - q) >= sep for q in positions):
            positions.append(cand)

    covered = [int(t) for t in rng.permutation(config.n_types) + 1]
    types = covered[: min(config.n_holes, config.n_types)]
    while len(types) < config.n_holes:
        types.append(int(rng.integers(1, config.n_types + 1)))
    order = rng.permutation(config.n_holes)
    holes = tuple(
        HoleGroundTruth(hole_type=types[k], position=positions[k]) for k in order
    )
    return World(holes=holes, config=config)


def vision_detect(positions: np.ndarray, bound: float, uniforms: np.ndarray) -> np.ndarray:
    """Noisy detections of holes at `positions` (n, 2): truth plus a
    per-axis error uniform on [-bound, bound], from standard uniforms (n, 2)
    by the arithmetic of `rng.uniform(-bound, bound)`."""
    return positions + (-bound + (bound - -bound) * uniforms)


@functools.lru_cache(maxsize=32)
def _drive_offsets(horizon: int, spiral: SpiralParams, sweep: bool) -> np.ndarray:
    """Every step's open-loop motion as rows x, y of a (2, horizon) array:
    the spiral sweep, or pressing in place.  Computed once per argument set."""
    if sweep:
        j = np.arange(horizon, dtype=float)
        radius = j * spiral.r_max / horizon
        angle = 2.0 * math.pi * j * spiral.n_rot / horizon
        offsets = np.stack([radius * np.cos(angle), radius * np.sin(angle)])
    else:
        offsets = np.zeros((2, horizon))
    offsets.setflags(write=False)
    return offsets


def block_size(horizon: int) -> int:
    """Rollouts per block: as many as keep their wiggle normals within
    `BLOCK_BYTES`, and at least one."""
    return max(1, BLOCK_BYTES // (16 * horizon))


def sized_empty(shape) -> np.ndarray:
    """`np.empty(shape)` for a checked positive size: a size that numpy
    cannot index raises MemoryError, as one the host cannot hold does."""
    try:
        return np.empty(shape)
    except ValueError as exc:  # "Maximum allowed dimension exceeded", "array is too big"
        raise MemoryError(str(exc)) from None


def wiggle_rows(normals: np.ndarray, horizon: int) -> np.ndarray:
    """The rows x and y, one entry per step, of the wiggle normals at the
    head of a rollout's normal block; each step's z normal is unread."""
    return normals[:3 * horizon].reshape(horizon, 3).T[:2]


class BlockOutcome(NamedTuple):
    """The outcomes of n rollouts: whether each inserts (n,), its closest
    approach (n,) and the count of its tips (n,), which end at its first tip
    in the capture disk when it inserts; and, when the pass keeps the tips,
    each one's last tip (n, 2), else None."""

    success: np.ndarray
    closest: np.ndarray
    steps: np.ndarray
    tip: np.ndarray | None


def rollout_block(starts: np.ndarray, holes: np.ndarray, normals_xy: np.ndarray,
                  aligned: np.ndarray, matched, spiral: SpiralParams,
                  env: EnvConfig, sweep: bool, tips: np.ndarray | None = None) -> BlockOutcome:
    """The one rollout kernel: n independent rollouts, each as
    `rollout_low_level` (sweep) or `rollout_random_actions` finds them, from
    its start and hole (n, 2), the x and y rows of its wiggle normals
    (n, 2, horizon), which the pass overwrites, its alignment verdict and
    whether its peg matches the hole.  The closest approach runs up to the
    first inserting tip.

    A command adds a wiggle and the pull back to the estimate, which cancels
    the previous tip: step j lands at the estimate plus its drive, the
    open-loop offset plus the wiggle, clipped to the workspace.  The tips'
    x and y go to `tips` (n, 2, horizon) if given, so rollout k's trace is
    `tips[k, :, :steps[k]].T`; without it, the pass works in `normals_xy`.
    """
    if not np.isfinite(starts).all():
        raise InvalidInputError("start estimate must be a finite 2-vector")
    horizon = env.horizon_low
    xy = np.multiply(normals_xy, spiral.sigma_wiggle, out=normals_xy if tips is None else tips)
    xy += _drive_offsets(horizon, spiral, sweep)
    xy += starts[:, :, None]
    np.maximum(xy, np.array(env.workspace_min)[:, None], out=xy)
    np.minimum(xy, np.array(env.workspace_max)[:, None], out=xy)
    delta = np.subtract(xy, holes[:, :, None], out=normals_xy)
    delta *= delta
    distance = np.add(delta[:, 0], delta[:, 1], out=delta[:, 0])
    np.sqrt(distance, out=distance)
    inside = distance <= env.capture_radius
    first = inside.argmax(axis=1)
    rows = np.arange(len(first))
    success = aligned & matched & inside[rows, first]
    # an inserting rollout ends at its first tip in the disk, and every tip
    # before that one lies farther out, so it is also the closest
    last = np.where(success, first, horizon - 1)
    closest = np.where(success, distance[rows, first], distance.min(axis=1))
    if not 0.0 <= closest.min() <= closest.max() < math.inf:
        raise InvalidInputError("closest approach must be finite and >= 0")
    return BlockOutcome(success, closest, last + 1, None if tips is None else xy[rows, :, last])


def _single_rollout(start_estimate, peg: PegType, hole: HoleGroundTruth, spiral: SpiralParams,
                    env: EnvConfig, rng: np.random.Generator, sweep: bool) -> RolloutOutcome:
    """One rollout as a block of one: its draws, then the kernel."""
    start_estimate = frozen_array(start_estimate, (2,), "start estimate")
    horizon = env.horizon_low
    aligned = rng.random() < env.alignment_rate
    normals = wiggle_rows(rng.standard_normal(6 * horizon), horizon)
    tips = np.empty((1, 2, horizon))
    out = rollout_block(start_estimate[None], hole.position[None], normals[None],
                        np.array([aligned]), peg.value == hole.hole_type, spiral, env, sweep,
                        tips)
    trace = tips[0].T[:out.steps[0]]
    trace.setflags(write=False)
    return RolloutOutcome(bool(out.success[0]), trace, float(out.closest[0]))


def rollout_low_level(
    start_estimate,
    peg: PegType,
    hole: HoleGroundTruth,
    spiral: SpiralParams,
    env: EnvConfig,
    rng: np.random.Generator,
) -> RolloutOutcome:
    """Run the spiral search around a position estimate until insertion or timeout."""
    return _single_rollout(start_estimate, peg, hole, spiral, env, rng, sweep=True)


def rollout_random_actions(
    start_estimate,
    peg: PegType,
    hole: HoleGroundTruth,
    spiral: SpiralParams,
    env: EnvConfig,
    rng: np.random.Generator,
) -> RolloutOutcome:
    """Exploration rollout for data collection: random wiggles while pressing,
    anchored at the position estimate (no spiral sweep)."""
    return _single_rollout(start_estimate, peg, hole, spiral, env, rng, sweep=False)


def _critical_radii(config: EnvConfig, spiral: SpiralParams, trials: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Each matched attempt's smallest inserting capture radius: its closest
    tip distance, or inf when its alignment draw fails.  Each attempt starts
    from a detector sample around a hole at the workspace center, where the
    placement margin keeps clipping from skewing the estimate."""
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    placement_box(config, spiral)
    center = 0.5 * (np.asarray(config.workspace_min) + np.asarray(config.workspace_max))
    horizon = config.horizon_low
    radii = sized_empty(trials)
    for lo in range(0, trials, block_size(horizon)):
        n = min(block_size(horizon), trials - lo)
        # per trial, in stream order: the detector's two uniforms and the
        # alignment draw, then the normal block, whose x and y rows are kept
        uniforms = np.empty((n, 3))
        normals_xy = np.empty((n, 2, horizon))
        for k in range(n):
            rng.random(out=uniforms[k])
            normals_xy[k] = wiggle_rows(rng.standard_normal(6 * horizon), horizon)
        detections = vision_detect(center, config.detector_error_bound, uniforms[:, :2])
        aligned = uniforms[:, 2] < config.alignment_rate
        # unmatched, an attempt runs its whole horizon: its closest approach
        # is its smallest tip distance
        out = rollout_block(detections, np.broadcast_to(center, (n, 2)), normals_xy,
                            aligned, False, spiral, config, sweep=True)
        radii[lo:lo + n] = np.where(aligned, out.closest, np.inf)
    return radii


def _rate(radii: np.ndarray, radius: float) -> float:
    return int(np.count_nonzero(radii <= radius)) / len(radii)


def calibrate_alpha(config: EnvConfig, spiral: SpiralParams, trials: int,
                    rng: np.random.Generator) -> float:
    """Empirical matched-pair success rate under detector-noise starts."""
    return _rate(_critical_radii(config, spiral, trials, rng), config.capture_radius)


@dataclass(frozen=True)
class CalibrationResult:
    capture_radius: float
    alpha_hat: float
    target: float
    feasible: bool
    trials: int


def capture_radius_bound(config: EnvConfig, spiral: SpiralParams) -> float:
    """Radius beyond which every in-bound detection is reachable by the spiral."""
    return config.detector_error_bound * math.sqrt(2.0) + spiral.r_max


def tune_capture_radius(
    config: EnvConfig, spiral: SpiralParams, target_alpha: float, trials: int,
    rng: np.random.Generator,
) -> CalibrationResult:
    """The smallest capture radius whose matched-pair rate reaches a target:
    the k-th smallest critical radius of one batch, with k the least count
    whose rate reaches it.  `alpha_hat` comes from a fresh batch, since the
    in-sample rate meets the target by construction.  A target at or above
    the rate at the feasibility bound clamps to the bound and reports that
    in-sample rate, unbiased since the bound precedes the batch.
    """
    if not 0.0 < target_alpha <= 1.0:
        raise InvalidInputError("target alpha must lie in (0, 1]")
    bound = capture_radius_bound(config, spiral)
    radii = _critical_radii(config, spiral, trials, rng)
    ceiling = _rate(radii, bound)
    if target_alpha >= ceiling:
        return CalibrationResult(bound, ceiling, target_alpha, feasible=False, trials=trials)
    # k / trials as calibrate_alpha rounds it: ceil(target * trials) can be one off
    k = bisect.bisect_left(range(trials + 1), target_alpha, key=lambda k: k / trials)
    radius = float(np.partition(radii, k - 1)[k - 1])
    alpha_hat = _rate(_critical_radii(config, spiral, trials, rng), radius)
    return CalibrationResult(radius, alpha_hat, target_alpha, feasible=True, trials=trials)
