"""Belief types over hole positions and types, and their constructors.

A hole's position is tracked by a 2D Gaussian, its type by a discrete
distribution over the C possible types, and a boolean records whether a peg
has already been fitted into it.  All types here are immutable values;
updates produce new objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError

# Floor used when (re)normalizing stored type distributions so that a later
# Bayes update can never divide by an exactly-zero normalizer.
PROB_FLOOR = 1e-12

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-12
SUM_TOL = 1e-9


def _frozen_array(value, shape) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise InvalidInputError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianBelief2:
    """Gaussian over a 2D position: mean [m] and covariance [m^2]."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen_array(self.mean, (2,))
        cov = _frozen_array(self.cov, (2, 2))
        if not np.all(np.isfinite(mean)):
            raise InvalidInputError("belief mean must be finite")
        if not np.all(np.isfinite(cov)):
            raise InvalidInputError("belief covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise InvalidInputError("belief covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < PSD_TOL:
            raise InvalidInputError("belief covariance must be PSD")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw from the distribution (used by the sampling baseline)."""
        # eigh instead of cholesky: the covariance may be singular.
        vals, vecs = np.linalg.eigh(self.cov)
        root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0)))
        return self.mean + root @ rng.standard_normal(2)


@dataclass(frozen=True)
class TypeBelief:
    """Discrete distribution over hole types 1..C."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise InvalidInputError("type belief needs at least two classes")
        if not np.all(np.isfinite(probs)):
            raise InvalidInputError("type probabilities must be finite")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise InvalidInputError("type probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > SUM_TOL:
            raise InvalidInputError("type probabilities must sum to 1")
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


@dataclass(frozen=True)
class HoleGroundTruth:
    """Simulator-side truth for one hole."""

    hole_type: int
    position: np.ndarray
    fitted: bool = False

    def __post_init__(self):
        if int(self.hole_type) < 1:
            raise InvalidInputError("hole type must be a positive integer")
        object.__setattr__(self, "hole_type", int(self.hole_type))
        object.__setattr__(self, "position", _frozen_array(self.position, (2,)))


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
    rng_seed: int = 0
    capture_radius: float = 0.0025
    alignment_rate: float = 0.36

    def __post_init__(self):
        if self.n_holes < 1:
            raise ConfigurationError("need at least one hole")
        if self.n_types < 2:
            raise ConfigurationError("need at least two hole types")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in (0, 1]")
        # every range check is written so that NaN fails it
        if not 0.0 <= self.detector_error_bound < np.inf:
            raise ConfigurationError("detector error bound must be finite and >= 0")
        if not 0.0 < self.sigma_init < np.inf:
            raise ConfigurationError("sigma_init must be finite and positive")
        if self.horizon_high < 1 or self.horizon_low < 1:
            raise ConfigurationError("horizons must be >= 1")
        if not 0.0 < self.alignment_rate <= 1.0:
            raise ConfigurationError("alignment rate must lie in (0, 1]")
        if not 0.0 < self.capture_radius < np.inf:
            raise ConfigurationError("capture radius must be finite and positive")
        lo, hi = np.asarray(self.workspace_min), np.asarray(self.workspace_max)
        if not np.all((hi > lo) & np.isfinite(lo) & np.isfinite(hi)):
            raise ConfigurationError("workspace bounds must be finite with positive extent")


def normalize_probs(raw) -> np.ndarray:
    """Normalize nonnegative weights to a distribution with a small floor.

    The floor keeps every class reachable by later Bayes updates; it is far
    below anything observable in the experiments.
    """
    arr = np.asarray(raw, dtype=float)
    total = float(arr.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise InvalidInputError("weights must have a positive finite sum")
    arr = np.maximum(arr / total, PROB_FLOOR)
    return arr / arr.sum()


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
