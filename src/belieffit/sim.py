"""Kinematic 2D peg-in-hole world.

The table surface is the z=0 plane and holes live at known-z positions on it.
The end effector is a point tip driven by position deltas; commanded motion
below the surface becomes penetration (and a spring force reading) instead of
displacement.  A matched rollout inserts when the tip enters the capture disk
around the true hole position while the rollout's alignment draw is good; the
alignment rate is the position-independent component of low-level success,
the capture disk the position-dependent one.

Every rollout consumes its RNG in a fixed order (alignment draw, wiggle
block, force-noise block), so identical seeds give identical traces no matter
how the rollout terminates.  No step depends on the tip before it, so a
rollout computes all its steps at once as arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .beliefs import EnvConfig, HoleGroundTruth, PegType
from .errors import ConfigurationError, InvalidInputError

FORCE_SPRING_K = 100.0  # N/m, spring response while pressing
FORCE_NOISE_SD = 0.5    # N, per-axis sensor noise

MAX_PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class SpiralParams:
    """Low-level search policy parameters."""

    r_max: float = 0.015
    n_rot: int = 2
    delta_z: float = 0.004
    sigma_wiggle: float = 0.00125

    def __post_init__(self):
        # written so that NaN fails each range check
        if not (0.0 < self.r_max < np.inf and 0.0 < self.delta_z < np.inf) or self.n_rot < 1:
            raise ConfigurationError("spiral parameters must be finite and positive")
        if not 0.0 <= self.sigma_wiggle < np.inf:
            raise ConfigurationError("wiggle scale must be finite and >= 0")


@dataclass(frozen=True)
class SensorimotorTrace:
    """Tip positions and force readings, (n, 3) arrays with a row per step."""

    positions: np.ndarray
    forces: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.positions)
        if len(shape) != 2 or shape[1] != 3 or not shape[0] or np.shape(self.forces) != shape:
            raise InvalidInputError("trace needs (n, 3) positions and forces, n >= 1")

    def __len__(self) -> int:
        return len(self.positions)

    def positions_xy(self) -> np.ndarray:
        return self.positions[:, :2]

    def closest_approach(self, point) -> float:
        """Smallest tip distance to a 2D point over the whole trace."""
        deltas = self.positions_xy() - np.asarray(point, dtype=float)
        return float(np.sqrt((deltas ** 2).sum(axis=1)).min())


@dataclass(frozen=True)
class RolloutOutcome:
    """A rollout's result; `closest_approach` is the smallest tip distance to
    the hole over the trace [m], which the position sensor reads."""

    success: bool
    trace: SensorimotorTrace
    insertion_step: int | None
    closest_approach: float

    def __post_init__(self):
        if self.success != (self.insertion_step is not None):
            raise InvalidInputError("success iff insertion_step present")
        if self.insertion_step is not None and self.insertion_step >= len(self.trace):
            raise InvalidInputError("insertion step beyond trace length")
        if not 0.0 <= self.closest_approach < np.inf:
            raise InvalidInputError("closest approach must be finite and >= 0")

    @property
    def final_ee(self) -> np.ndarray:
        return self.trace.positions[-1]


@dataclass(frozen=True)
class World:
    """Ground-truth hole layout plus the configuration it was built from."""

    holes: tuple[HoleGroundTruth, ...]
    config: EnvConfig

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


def vision_detect(world: World, rng: np.random.Generator) -> list[np.ndarray]:
    """Noisy detections: truth plus independent per-axis uniform error."""
    b = world.config.detector_error_bound
    return [hole.position + rng.uniform(-b, b, 2) for hole in world.holes]


def _spiral_offset(j, horizon: int, spiral: SpiralParams) -> np.ndarray:
    """Open-loop spiral motion at step j, or one row per step for an array j."""
    j = np.asarray(j, dtype=float)
    radius = j * spiral.r_max / horizon
    angle = 2.0 * math.pi * j * spiral.n_rot / horizon
    z = np.full_like(j, -spiral.delta_z)
    return np.stack([radius * np.cos(angle), radius * np.sin(angle), z], axis=-1)


@functools.lru_cache(maxsize=32)
def _drive_offsets(horizon: int, spiral: SpiralParams, sweep: bool) -> np.ndarray:
    """Every step's open-loop motion as rows x, y, z of a (3, horizon) array:
    the spiral sweep, or pressing in place.  Computed once per argument set."""
    if sweep:
        offsets = _spiral_offset(np.arange(horizon), horizon, spiral).T.copy()
    else:
        offsets = np.zeros((3, horizon))
        offsets[2] = -spiral.delta_z
    offsets.setflags(write=False)
    return offsets


@functools.lru_cache(maxsize=32)
def _column(values: tuple[float, ...]) -> np.ndarray:
    """`values` as a read-only column, to broadcast along a row per step."""
    column = np.array(values, dtype=float)[:, None]
    column.setflags(write=False)
    return column


def _integrate(
    start_estimate,
    peg: PegType,
    hole: HoleGroundTruth,
    spiral: SpiralParams,
    env: EnvConfig,
    rng: np.random.Generator,
    offsets: np.ndarray,
) -> RolloutOutcome:
    """The rollout kernel shared by both rollouts.

    `offsets` is each step's open-loop motion as a (3, env.horizon_low)
    array.  A command adds a wiggle, rectified upward in z, and the pull back
    to the estimate, which cancels the previous tip: step j lands at the
    estimate plus its drive, clipped to the workspace, and a drive below the
    surface reads as spring force.  If aligned and matched, the trace ends at
    the first tip in the capture disk.  The kernel works on rows x, y, z, one
    entry per step, and returns the trace as (n, 3) views of them.
    """
    start_estimate = np.asarray(start_estimate, dtype=float)
    if start_estimate.shape != (2,) or not all(map(math.isfinite, start_estimate.tolist())):
        raise InvalidInputError("start estimate must be a finite 2-vector")
    horizon = env.horizon_low
    aligned = rng.random() < env.alignment_rate
    # one draw holds the wiggle block, then the force-noise block: the same
    # stream as drawing them one after the other
    wiggles, forces = rng.standard_normal((2, horizon, 3)).transpose(0, 2, 1).copy()
    wiggles *= spiral.sigma_wiggle
    np.abs(wiggles[2], out=wiggles[2])
    drive = np.add(offsets, wiggles, out=wiggles)
    forces *= FORCE_NOISE_SD

    tips = np.empty((3, horizon))
    xy = np.add(drive[:2], start_estimate[:, None], out=tips[:2])
    np.maximum(xy, _column(env.workspace_min), out=xy)
    np.minimum(xy, _column(env.workspace_max), out=xy)
    np.maximum(drive[2], 0.0, out=tips[2])
    forces[2] += FORCE_SPRING_K * (tips[2] - drive[2])  # depth of the drive below the surface
    delta = xy - hole.position[:, None]
    delta *= delta
    distance = np.sqrt(np.add(delta[0], delta[1], out=delta[0]), out=delta[0])
    step = None
    if aligned and peg.value == hole.hole_type:
        first = int((distance <= env.capture_radius).argmax())
        if distance[first] <= env.capture_radius:
            step = first
    n = horizon if step is None else step + 1
    return RolloutOutcome(
        step is not None, SensorimotorTrace(tips.T[:n], forces.T[:n]), step,
        float(distance[:n].min()),
    )


def rollout_low_level(
    start_estimate,
    peg: PegType,
    hole: HoleGroundTruth,
    spiral: SpiralParams,
    env: EnvConfig,
    rng: np.random.Generator,
) -> RolloutOutcome:
    """Run the spiral search around a position estimate until insertion or timeout."""
    offsets = _drive_offsets(env.horizon_low, spiral, True)
    return _integrate(start_estimate, peg, hole, spiral, env, rng, offsets)


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
    offsets = _drive_offsets(env.horizon_low, spiral, False)
    return _integrate(start_estimate, peg, hole, spiral, env, rng, offsets)


def _matched_pair_rollout(
    config: EnvConfig, spiral: SpiralParams, rng: np.random.Generator
) -> bool:
    """One matched peg/hole attempt started from a detector sample.

    The hole sits at the workspace center so edge clipping cannot skew the
    estimate; success depends only on detector error and rollout noise.
    """
    center = 0.5 * (
        np.asarray(config.workspace_min) + np.asarray(config.workspace_max)
    )
    hole = HoleGroundTruth(hole_type=1, position=center)
    detection = hole.position + rng.uniform(
        -config.detector_error_bound, config.detector_error_bound, 2
    )
    return rollout_low_level(detection, PegType(1), hole, spiral, config, rng).success


def calibrate_alpha(
    config: EnvConfig, spiral: SpiralParams, trials: int, rng: np.random.Generator
) -> float:
    """Empirical matched-pair success rate under detector-noise starts."""
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    wins = sum(_matched_pair_rollout(config, spiral, rng) for _ in range(trials))
    return wins / trials


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
    config: EnvConfig,
    spiral: SpiralParams,
    target_alpha: float,
    trials: int,
    rng: np.random.Generator,
    iterations: int = 12,
) -> CalibrationResult:
    """Bisection on the capture radius toward a target matched-pair rate.

    The success rate is monotone in the radius and saturates at the alignment
    rate, so targets above that ceiling clamp to the feasibility bound.
    """
    if not 0.0 < target_alpha <= 1.0:
        raise InvalidInputError("target alpha must lie in (0, 1]")

    def rate_at(radius: float, rng: np.random.Generator) -> float:
        return calibrate_alpha(replace(config, capture_radius=radius), spiral, trials, rng)

    seeds = rng.integers(0, 2**63 - 1, iterations + 1)
    lo, hi = 0.0005, capture_radius_bound(config, spiral)
    hi_rate = rate_at(hi, np.random.default_rng(seeds[0]))
    if target_alpha >= hi_rate:
        return CalibrationResult(hi, hi_rate, target_alpha, feasible=False, trials=trials)
    for k in range(iterations):
        mid = 0.5 * (lo + hi)
        if rate_at(mid, np.random.default_rng(seeds[k + 1])) < target_alpha:
            lo = mid
        else:
            hi = mid
    tuned = 0.5 * (lo + hi)
    final = rate_at(tuned, rng)
    return CalibrationResult(tuned, final, target_alpha, feasible=True, trials=trials)
