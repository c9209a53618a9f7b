"""Parametric virtual sensors that read a rollout trace.

These stand in for learned trace encoders: the position sensor returns a
noisy innovation toward the true hole position, the match sensor a noisy
binary same-type verdict.  Their ground-truth noise parameters live here and
are distinct values from the filter-side learned parameters; training exists
precisely to recover these from interaction data.

A trace that never came close to the hole carries less position signal, so
the position sensor inflates its noise by `uninformative_scale` when the
closest approach exceeds `informative_radius`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beliefs import PegType
from .errors import InvalidInputError
from .filters import FilterModels, Innovation, MatchObservationModel, PositionNoiseModel


@dataclass(frozen=True)
class PositionSensorSpec:
    cov: np.ndarray = field(default_factory=lambda: 6.4e-5 * np.eye(2))
    bias: np.ndarray = field(default_factory=lambda: np.zeros(2))
    uninformative_scale: float = 3.0
    informative_radius: float = 0.01125

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        bias = np.array(self.bias, dtype=float)
        if cov.shape != (2, 2) or not np.all(np.isfinite(cov)):
            raise InvalidInputError("sensor covariance must be a finite 2x2 matrix")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise InvalidInputError("sensor covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) <= 0.0:
            raise InvalidInputError("sensor covariance must be positive definite")
        if bias.shape != (2,) or not np.all(np.isfinite(bias)):
            raise InvalidInputError("sensor bias must be a finite 2-vector")
        if not 1.0 <= self.uninformative_scale < np.inf:
            raise InvalidInputError("uninformative scale must be finite and >= 1")
        if not 0.0 < self.informative_radius < np.inf:
            raise InvalidInputError("informative radius must be finite and positive")
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan
            inflated = np.float64(self.uninformative_scale) ** 2 * cov
        if not np.all(np.isfinite(inflated)):
            raise InvalidInputError(
                "sensor covariance times uninformative scale squared must be finite"
            )
        cov.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "bias", bias)
        # Cholesky factors of the informative and uninformative noise laws
        object.__setattr__(
            self, "_factors", (np.linalg.cholesky(cov), np.linalg.cholesky(inflated))
        )

    def noise_factor(self, closest_approach: float) -> np.ndarray:
        """Cholesky factor of the noise covariance for a trace whose closest
        tip came `closest_approach` [m] from the hole."""
        return self._factors[int(closest_approach > self.informative_radius)]


@dataclass(frozen=True)
class MatchSensorSpec:
    tpr: float = 0.85
    fpr: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.fpr < self.tpr < 1.0:
            raise InvalidInputError("need 0 < fpr < tpr < 1 for a useful sensor")


@dataclass(frozen=True)
class SensorModel:
    position: PositionSensorSpec = field(default_factory=PositionSensorSpec)
    match: MatchSensorSpec = field(default_factory=MatchSensorSpec)

    def filter_models(self) -> FilterModels:
        """Filter parameters equal to this truth (the bias and the
        uninformative inflation aside)."""
        return FilterModels(
            position=PositionNoiseModel(self.position.cov),
            match=MatchObservationModel(tpr=self.match.tpr, fpr=self.match.fpr),
        )


def observe_position(
    closest_approach: float,
    true_position: np.ndarray,
    model: SensorModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noisy observed hole position after a trace whose closest tip came
    `closest_approach` from the hole (the rollout kernel reports it)."""
    noise = model.position.noise_factor(closest_approach) @ rng.standard_normal(2)
    return true_position + model.position.bias + noise


def observe_positions(closest_approach: np.ndarray, true_positions: np.ndarray,
                      model: SensorModel, normals: np.ndarray) -> np.ndarray:
    """`observe_position` of n traces at once, given the closest approach
    (n,), the hole (n, 2) and the two standard normals (n, 2) of each; numpy
    multiplies each stacked factor and column as it does a single pair."""
    factors = np.stack(model.position._factors)
    regime = (closest_approach > model.position.informative_radius).astype(np.intp)
    noise = (factors[regime] @ normals[:, :, None])[:, :, 0]
    return true_positions + model.position.bias + noise


def sense_position(
    trace: np.ndarray,
    true_position,
    current_mean,
    model: SensorModel,
    rng: np.random.Generator,
) -> Innovation:
    """Noisy innovation (observed position minus current estimate mean)
    after a trace of tip positions, an (n, 2) array."""
    true_position = np.asarray(true_position, dtype=float)
    current_mean = np.asarray(current_mean, dtype=float)
    closest = float(np.sqrt(((trace - true_position) ** 2).sum(axis=1)).min())
    observed = observe_position(closest, true_position, model, rng)
    return Innovation(observed - current_mean)


def sense_match(
    hole_type: int, peg: PegType, model: SensorModel, rng: np.random.Generator
) -> bool:
    """Noisy binary verdict on whether the hole's type matches the peg's."""
    if hole_type < 1:
        raise InvalidInputError("hole type must be a positive integer")
    p = model.match.tpr if hole_type == peg.value else model.match.fpr
    return bool(rng.random() < p)
