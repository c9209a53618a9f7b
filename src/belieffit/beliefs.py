"""Belief types over hole positions and types, and their constructors.

A hole's position is tracked by a 2D Gaussian, its type by a discrete
distribution over the C possible types, and a boolean records whether a peg
has already been fitted into it.  The belief types here are immutable values
whose constructors check their invariants; a trial in progress holds its
beliefs as `BeliefArrays` instead, and the policy checks each posterior it
writes there with the same `check_position` and `check_types`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError

# Floor used when (re)normalizing stored type distributions so that a later
# Bayes update can never divide by an exactly-zero normalizer.
PROB_FLOOR = 1e-12

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-12
SUM_TOL = 1e-9
MAX_HORIZON = 100_000  # rollouts size arrays by horizon_low; more exhausts memory
# spawning draws a candidate per attempt, so more holes can never be placed
MAX_PLACEMENT_ATTEMPTS = 1000
# every type belief and every training record holds a probability per type
MAX_TYPES = 1000
# the bound [m] on workspace corners and on every configured length: squares
# of sums of a few such lengths stay far from overflow in the kernels
MAX_LENGTH = 1e100


def _frozen_array(value, shape) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise InvalidInputError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def check_position(mean: np.ndarray, cov: np.ndarray) -> None:
    """Raise InvalidInputError unless (mean, cov) is a valid 2D Gaussian:
    finite, symmetric within SYMMETRY_TOL, smallest eigenvalue >= PSD_TOL.

    Works on the six entries; the eigenvalue is the closed form for a
    symmetric 2x2 matrix read from its lower triangle, as `eigvalsh` does.
    """
    m0, m1 = mean.tolist()
    (a, b), (c, d) = cov.tolist()
    if not (math.isfinite(m0) and math.isfinite(m1)):
        raise InvalidInputError("belief mean must be finite")
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise InvalidInputError("belief covariance must be finite")
    if abs(b - c) > SYMMETRY_TOL:
        raise InvalidInputError("belief covariance must be symmetric")
    if 0.5 * (a + d) - math.hypot(0.5 * (a - d), c) < PSD_TOL:
        raise InvalidInputError("belief covariance must be PSD")


def check_types(probs: list[float]) -> None:
    """Raise InvalidInputError unless `probs` lies on the simplex: finite
    entries in [0, 1] summing to 1 within SUM_TOL."""
    if not all(map(math.isfinite, probs)):
        raise InvalidInputError("type probabilities must be finite")
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise InvalidInputError("type probabilities must lie in [0, 1]")
    if abs(ordered_sum(probs) - 1.0) > SUM_TOL:
        raise InvalidInputError("type probabilities must sum to 1")


def ordered_sum(values: list[float]) -> float:
    """Sum of floats in the order numpy sums a 1-D float array: left to right
    below 8 terms, numpy's own pairwise sum from 8 on."""
    return sum(values) if len(values) < 8 else float(np.add.reduce(values))


def normalized_rows(weights: np.ndarray) -> np.ndarray:
    """`normalized` applied to each row of a 2-D array; numpy reduces each
    row of a C-contiguous array as `ordered_sum` does, so the results are
    equal."""
    weights = np.ascontiguousarray(weights)
    total = np.add.reduce(weights, axis=1)
    if not np.all((0.0 < total) & (total < math.inf)):
        raise InvalidInputError("weights must have a positive finite sum")
    floored = np.maximum(weights / total[:, None], PROB_FLOOR)
    return floored / np.add.reduce(floored, axis=1)[:, None]


def sample_gaussian(mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(mean, cov) (used by the sampling baseline)."""
    # eigh instead of cholesky: the covariance may be singular.
    vals, vecs = np.linalg.eigh(cov)
    root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0)))
    return mean + root @ rng.standard_normal(2)


@dataclass(frozen=True)
class GaussianBelief2:
    """Gaussian over a 2D position: mean [m] and covariance [m^2]."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen_array(self.mean, (2,))
        cov = _frozen_array(self.cov, (2, 2))
        check_position(mean, cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class TypeBelief:
    """Discrete distribution over hole types 1..C."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise InvalidInputError("type belief needs at least two classes")
        check_types(probs.tolist())
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_types(self) -> int:
        return int(self.probs.size)

    def prob_of(self, hole_type: int) -> float:
        """Mass on a 1-based hole type."""
        if not 1 <= hole_type <= self.n_types:
            raise InvalidInputError(f"type {hole_type} out of range 1..{self.n_types}")
        return float(self.probs[hole_type - 1])


@dataclass(frozen=True)
class PegType:
    """1-based type tag of the grasped peg."""

    value: int

    def __post_init__(self):
        if int(self.value) < 1:
            raise InvalidInputError("peg type must be a positive integer")
        object.__setattr__(self, "value", int(self.value))


@dataclass(frozen=True)
class HoleBelief:
    """Composite per-hole belief: position Gaussian, type distribution, fitted flag."""

    position: GaussianBelief2
    type_belief: TypeBelief
    fitted: bool = False


@dataclass(eq=False)
class BeliefArrays:
    """One trial's beliefs as arrays, row h for hole h: means (H, 2),
    covariances (H, 2, 2), type distributions (H, C) and fitted flags (H,).

    The policy's step updates the chosen row in place after checking the
    posterior; `to_beliefs` builds belief objects from copies of the rows.
    """

    means: np.ndarray
    covs: np.ndarray
    xi: np.ndarray
    fitted: np.ndarray

    @classmethod
    def of(cls, beliefs: list[HoleBelief]) -> BeliefArrays:
        """The arrays of belief objects (their constructors checked them)."""
        if not beliefs:
            raise InvalidInputError("need at least one hole belief")
        if len({b.type_belief.n_types for b in beliefs}) != 1:
            raise InvalidInputError("every hole belief needs the same number of types")
        return cls(
            means=np.array([b.position.mean for b in beliefs]),
            covs=np.array([b.position.cov for b in beliefs]),
            xi=np.array([b.type_belief.probs for b in beliefs]),
            fitted=np.array([b.fitted for b in beliefs], dtype=bool),
        )

    @classmethod
    def detected(cls, detections, sigma_init: float, n_types: int) -> BeliefArrays:
        """Initial beliefs: an isotropic Gaussian of variance `sigma_init` on
        each detection, a uniform type distribution, nothing fitted."""
        means = np.array(detections, dtype=float)
        n = len(means)
        if not n or means.shape != (n, 2) or not np.isfinite(means).all():
            raise InvalidInputError("detections must be finite 2-vectors")
        if not 0.0 < sigma_init < np.inf:
            raise InvalidInputError("sigma_init must be positive")
        if n_types < 2:
            raise InvalidInputError("need at least two hole types")
        return cls(
            means=means,
            covs=np.tile(sigma_init * np.eye(2), (n, 1, 1)),
            xi=np.full((n, n_types), 1.0 / n_types),
            fitted=np.zeros(n, dtype=bool),
        )

    def copy(self) -> BeliefArrays:
        return BeliefArrays(
            self.means.copy(), self.covs.copy(), self.xi.copy(), self.fitted.copy()
        )

    def to_beliefs(self) -> list[HoleBelief]:
        return [
            HoleBelief(GaussianBelief2(mean, cov), TypeBelief(xi), bool(fitted))
            for mean, cov, xi, fitted in zip(self.means, self.covs, self.xi, self.fitted)
        ]


@dataclass(frozen=True)
class HoleGroundTruth:
    """Simulator-side truth for one hole."""

    hole_type: int
    position: np.ndarray
    fitted: bool = False

    def __post_init__(self):
        if int(self.hole_type) < 1:
            raise InvalidInputError("hole type must be a positive integer")
        position = _frozen_array(self.position, (2,))
        if not all(map(math.isfinite, position.tolist())):
            raise InvalidInputError("hole position must be finite")
        object.__setattr__(self, "hole_type", int(self.hole_type))
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class EnvConfig:
    """Environment parameters shared by the simulator, policy and filters.

    `capture_radius` and `alignment_rate` drive the kinematic insertion model:
    a matched rollout succeeds when the tip enters the capture disk around the
    true hole *and* the per-rollout alignment draw comes up good.  The
    alignment rate is the success ceiling at zero position error; the capture
    radius shapes how success decays with position error.
    """

    n_holes: int = 5
    n_types: int = 3
    detector_error_bound: float = 0.02
    alpha: float = 0.34
    sigma_init: float = 1e-4
    workspace_min: tuple[float, float] = (-0.25, -0.25)
    workspace_max: tuple[float, float] = (0.25, 0.25)
    horizon_high: int = 10
    horizon_low: int = 100
    capture_radius: float = 0.0025
    alignment_rate: float = 0.36

    def __post_init__(self):
        if not 1 <= self.n_holes <= MAX_PLACEMENT_ATTEMPTS:
            raise ConfigurationError(f"n_holes must lie in [1, {MAX_PLACEMENT_ATTEMPTS}]")
        if not 2 <= self.n_types <= MAX_TYPES:
            raise ConfigurationError(f"n_types must lie in [2, {MAX_TYPES}]")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in (0, 1]")
        # every range check is written so that NaN fails it
        if not 0.0 <= self.detector_error_bound <= MAX_LENGTH:
            raise ConfigurationError(f"detector error bound must lie in [0, {MAX_LENGTH:g}] m")
        if not 0.0 < self.sigma_init < np.inf:
            raise ConfigurationError("sigma_init must be finite and positive")
        if not (1 <= self.horizon_high <= MAX_HORIZON and 1 <= self.horizon_low <= MAX_HORIZON):
            raise ConfigurationError(f"horizons must lie in [1, {MAX_HORIZON}]")
        if not 0.0 < self.alignment_rate <= 1.0:
            raise ConfigurationError("alignment rate must lie in (0, 1]")
        if not 0.0 < self.capture_radius <= MAX_LENGTH:
            raise ConfigurationError(f"capture radius must lie in (0, {MAX_LENGTH:g}] m")
        lo = np.asarray(self.workspace_min, dtype=float)
        hi = np.asarray(self.workspace_max, dtype=float)
        if lo.shape != (2,) or hi.shape != (2,) or not all(
            -MAX_LENGTH <= l < h <= MAX_LENGTH for l, h in zip(lo.tolist(), hi.tolist())
        ):
            raise ConfigurationError(
                "workspace bounds must be 2-vectors with positive, finite extent and "
                f"corners within {MAX_LENGTH:g} m of 0"
            )
        # tuples keep the config hashable, which the rollout's caches need
        object.__setattr__(self, "workspace_min", tuple(lo.tolist()))
        object.__setattr__(self, "workspace_max", tuple(hi.tolist()))


def normalized(weights: list[float]) -> list[float]:
    """Nonnegative weights scaled to a distribution with a small floor.

    The floor keeps every class reachable by later Bayes updates; it is far
    below anything observable in the experiments.
    """
    total = ordered_sum(weights)
    if not 0.0 < total < math.inf:
        raise InvalidInputError("weights must have a positive finite sum")
    floored = [max(w / total, PROB_FLOOR) for w in weights]
    total = ordered_sum(floored)
    return [p / total for p in floored]


def normalize_probs(raw) -> np.ndarray:
    """`normalized` for any 1-D array-like of weights."""
    return np.array(normalized(np.asarray(raw, dtype=float).tolist()))


def init_position_belief(detection, sigma_init: float) -> GaussianBelief2:
    """Isotropic Gaussian centered on a vision detection."""
    detection = np.asarray(detection, dtype=float)
    if detection.shape != (2,) or not np.all(np.isfinite(detection)):
        raise InvalidInputError("detection must be a finite 2-vector")
    if sigma_init <= 0.0:
        raise InvalidInputError("sigma_init must be positive")
    return GaussianBelief2(mean=detection, cov=sigma_init * np.eye(2))


def init_type_belief_uniform(n_types: int) -> TypeBelief:
    """Uninformative prior over hole types."""
    if n_types < 2:
        raise InvalidInputError("need at least two hole types")
    return TypeBelief(np.full(n_types, 1.0 / n_types))


def init_type_belief_random(n_types: int, rng: np.random.Generator) -> TypeBelief:
    """Prior from unit-interval draws normalized to sum one."""
    if n_types < 2:
        raise InvalidInputError("need at least two hole types")
    return TypeBelief(normalize_probs(rng.uniform(0.0, 1.0, n_types)))


def fit_probability(belief: HoleBelief, peg: PegType, alpha: float) -> float:
    """Predicted probability that the next attempt on this hole succeeds.

    A success needs the types to match (belief mass xi[peg]) and the rollout
    to come through (rate alpha).  An already-fitted hole pays no reward, so
    its score is zero.
    """
    if belief.fitted:
        return 0.0
    return alpha * belief.type_belief.prob_of(peg.value)
