"""Belief updates: Gaussian position correction and discrete type correction.

The position filter assumes static holes (identity dynamics), so an update is
a pure measurement correction:

    K  = Sigma (R + Sigma)^-1
    mu' = mu + K h
    Sigma' = (I - K) Sigma

The type filter is an exact discrete Bayes step whose evidence combines the
binary match observation (via the learned confusion model) with the attempt
outcome (via the task transition model: a matched attempt succeeds with rate
alpha, a mismatched one never does).

`kalman_posterior` and `type_posterior` compute on plain arrays and are what
the policy's step calls; `kalman_update` and `histogram_update` wrap them for
belief objects, whose constructors check the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import GaussianBelief2, PegType, TypeBelief, ordered_sum
from .errors import DegenerateEvidenceError, InvalidInputError

MATCH_PROB_EPS = 1e-6
DEGENERATE_ETA = 1e-300
REGULARIZER = 1e-12

_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


@dataclass(frozen=True)
class PositionNoiseModel:
    """Measurement covariance R of the virtual position sensor [m^2]."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (2, 2) or not np.all(np.isfinite(cov)):
            raise InvalidInputError("noise covariance must be a finite 2x2 matrix")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise InvalidInputError("noise covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < REGULARIZER:
            raise InvalidInputError("noise covariance must have eigenvalues >= 1e-12")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class MatchObservationModel:
    """Confusion model of the binary match sensor.

    tpr = P(observe match | types match), fpr = P(observe match | mismatch).
    Probabilities are kept away from {0, 1} so log-evidence stays finite.
    """

    tpr: float
    fpr: float

    def __post_init__(self):
        for name, v in (("tpr", self.tpr), ("fpr", self.fpr)):
            if not MATCH_PROB_EPS <= v <= 1.0 - MATCH_PROB_EPS:
                raise InvalidInputError(
                    f"{name}={v} outside [{MATCH_PROB_EPS}, {1 - MATCH_PROB_EPS}]"
                )

    def prob_observation(self, o_match: bool, types_match: bool) -> float:
        p_match = self.tpr if types_match else self.fpr
        return p_match if o_match else 1.0 - p_match


UNINFORMATIVE_MATCH_MODEL = MatchObservationModel(tpr=0.5, fpr=0.5)


class FilterModels(NamedTuple):
    """The learned parameters both filters consume."""

    position: PositionNoiseModel
    match: MatchObservationModel


@dataclass(frozen=True)
class Innovation:
    """Virtual position sensor output: observed position minus current mean."""

    value: np.ndarray

    def __post_init__(self):
        value = np.array(self.value, dtype=float)
        if value.shape != (2,) or not np.all(np.isfinite(value)):
            raise InvalidInputError("innovation must be a finite 2-vector")
        value.setflags(write=False)
        object.__setattr__(self, "value", value)


def kalman_posterior(
    mean: np.ndarray, cov: np.ndarray, innovation: np.ndarray, noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement correction of a position belief given as (mean, cov)."""
    s = noise_cov + cov
    (s00, s01), (s10, s11) = s.tolist()
    if abs(s00 * s11 - s01 * s10) < DEGENERATE_ETA:
        s = s + REGULARIZER * _EYE2
    # Sigma S^-1 without forming S^-1; a closed-form 2x2 inverse loses digits
    # in I - K when the noise is tiny (an insertion observes the hole exactly)
    gain = np.linalg.solve(s.T, cov.T).T
    mean = mean + gain @ innovation
    cov = (_EYE2 - gain) @ cov
    return mean, 0.5 * (cov + cov.T)  # symmetrize against floating-point drift


def kalman_update(
    prior: GaussianBelief2, innovation: Innovation, noise: PositionNoiseModel
) -> GaussianBelief2:
    """Measurement correction of a position belief."""
    mean, cov = kalman_posterior(prior.mean, prior.cov, innovation.value, noise.cov)
    return GaussianBelief2(mean=mean, cov=cov)


def transition_prob(beta_next: bool, types_match: bool, alpha: float) -> float:
    """Task dynamics for one attempt on an unfitted hole."""
    p_success = alpha if types_match else 0.0
    return p_success if beta_next else 1.0 - p_success


def type_posterior(
    probs: list[float],
    o_match: bool,
    beta_next: bool,
    peg: PegType,
    alpha: float,
    model: MatchObservationModel,
) -> list[float]:
    """Exact Bayes posterior over hole types after one attempt.

    Class k's weight is P(o_match | k) * P(beta | k) * probs[k]; only the
    peg's class matches, so there are two likelihood factors in all.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError("alpha must lie in (0, 1]")
    match = model.prob_observation(o_match, True) * transition_prob(beta_next, True, alpha)
    other = model.prob_observation(o_match, False) * transition_prob(beta_next, False, alpha)
    weights = [
        (match if k == peg.value else other) * p for k, p in enumerate(probs, start=1)
    ]
    eta = ordered_sum(weights)
    if eta <= DEGENERATE_ETA:
        raise DegenerateEvidenceError("evidence annihilated the type belief")
    return [w / eta for w in weights]


def histogram_update(
    prior: TypeBelief,
    o_match: bool,
    beta_next: bool,
    peg: PegType,
    alpha: float,
    model: MatchObservationModel,
) -> TypeBelief:
    """Exact Bayes posterior over hole types after one attempt."""
    return TypeBelief(
        type_posterior(prior.probs.tolist(), o_match, beta_next, peg, alpha, model)
    )
