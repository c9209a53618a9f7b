"""Parametric virtual sensors that read a rollout.

These stand in for learned trace encoders: the position sensor returns a
noisy observation of the true hole position, the match sensor a noisy
binary same-type verdict.  Their ground-truth noise parameters live here and
are distinct values from the filter-side learned parameters; training exists
precisely to recover these from interaction data.

The position sensor reads a rollout through its closest approach to the
hole, which the rollout kernel reports.  A trace that never came close to
the hole carries less position signal, so the sensor inflates its noise by
`uninformative_scale` when the closest approach exceeds
`informative_radius`.  Each sensor is a pure function of the truth and of
draws that its caller takes, two standard normals a position reading and
one uniform a match verdict; one expression reads one trace, as the
policy's step does, or a block of them, as dataset generation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beliefs import frozen_array, frozen_cov
from .errors import InvalidInputError
from .filters import FilterModels, MatchObservationModel, PositionNoiseModel


@dataclass(frozen=True)
class PositionSensorSpec:
    cov: np.ndarray = field(default_factory=lambda: 6.4e-5 * np.eye(2))
    bias: np.ndarray = field(default_factory=lambda: np.zeros(2))
    uninformative_scale: float = 3.0
    informative_radius: float = 0.01125

    def __post_init__(self):
        cov = frozen_cov(self.cov, "sensor covariance")
        if np.min(np.linalg.eigvalsh(cov)) <= 0.0:
            raise InvalidInputError("sensor covariance must be positive definite")
        bias = frozen_array(self.bias, (2,), "sensor bias")
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
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "bias", bias)
        try:  # Cholesky factors of the informative and uninformative noise laws
            factors = np.stack((np.linalg.cholesky(cov), np.linalg.cholesky(inflated)))
        except np.linalg.LinAlgError:  # a nearly singular cov can pass eigvalsh
            raise InvalidInputError("sensor covariance must be positive definite") from None
        object.__setattr__(self, "_factors", factors)

    def noise_factor(self, closest_approach) -> np.ndarray:
        """Cholesky factor of the noise covariance for a trace whose closest
        tip came `closest_approach` [m] from the hole, or one stacked factor
        per trace for an array of approaches."""
        return self._factors[(closest_approach > self.informative_radius) * 1]


@dataclass(frozen=True)
class MatchSensorSpec:
    tpr: float = 0.85
    fpr: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.fpr < self.tpr < 1.0:
            raise InvalidInputError("need 0 < fpr < tpr < 1 for a useful sensor")
        # the false- and true-positive rates, indexed by whether the types match
        object.__setattr__(self, "_rates", np.array((self.fpr, self.tpr)))


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


def sense_position(closest_approach, true_position: np.ndarray, model: SensorModel,
                   normals: np.ndarray) -> np.ndarray:
    """Noisy observed hole position after a trace whose closest tip came
    `closest_approach` from the hole (the rollout kernel reports it), from
    two standard normals; or n at once from approaches (n,), holes (n, 2)
    and normals (n, 2), each stacked factor times its column."""
    noise = (model.position.noise_factor(closest_approach) @ normals[..., None])[..., 0]
    return true_position + model.position.bias + noise


def sense_match(matched, model: SensorModel, uniforms):
    """Noisy same-type verdict from one uniform: true below the true-positive
    rate when the peg matches the hole, below the false-positive rate when
    not; or n verdicts at once from bool and uniform arrays (n,)."""
    return uniforms < model.match._rates[matched * 1]
