"""Belief updates: Gaussian position correction and discrete type correction.

The position filter assumes static holes (identity dynamics), so an update is
a pure measurement correction:

    A  = (R + Sigma)^-1,  K = Sigma A
    mu' = mu + K h
    Sigma' = K R

Sigma' = K R equals (I - K) Sigma, since I - K = R A, and it has no
subtraction: (I - K) Sigma cancels when the noise is far below the prior (an
insertion observes the hole almost exactly).  `kalman_correction` is this
algebra on Python floats; `position_posterior` runs it on a belief's
entries, and the loss in `training` runs it once per prior.

The type filter is an exact discrete Bayes step whose evidence combines the
binary match observation (via the learned confusion model) with the attempt
outcome (via the task transition model: a matched attempt succeeds with rate
alpha, a mismatched one never does).

`position_posterior` and `type_posterior` compute on Python floats and are
what the policy's step calls; `kalman_update` and `histogram_update` run
them for belief objects, whose constructors check the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import (GaussianBelief2, PegType, TypeBelief, frozen_array, frozen_cov,
                      ordered_sum)
from .errors import DegenerateEvidenceError, InvalidInputError

MATCH_PROB_EPS = 1e-6
DEGENERATE_ETA = 1e-300
REGULARIZER = 1e-12
_SPLIT = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves


@dataclass(frozen=True)
class PositionNoiseModel:
    """Measurement covariance R of the virtual position sensor [m^2]."""

    cov: np.ndarray

    def __post_init__(self):
        cov = frozen_cov(self.cov, "noise covariance")
        if np.min(np.linalg.eigvalsh(cov)) < REGULARIZER:
            raise InvalidInputError(f"noise covariance must have eigenvalues >= {REGULARIZER}")
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
        object.__setattr__(self, "value", frozen_array(self.value, (2,), "innovation"))


def _product_error(a: float, b: float, p: float) -> float:
    """The rounding error a b - p of p = a b, exactly: Dekker's product on
    Veltkamp's split of each factor.  The product must neither overflow nor
    underflow."""
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _det(x00: float, x01: float, x10: float, x11: float) -> float:
    """x00 x11 - x01 x10 from exact products, so that a determinant far below
    its products is still correct to the last bits."""
    p, q = x00 * x11, x01 * x10
    return (p - q) + (_product_error(x00, x11, p) - _product_error(x01, x10, q))


def kalman_correction(s0: tuple, r: tuple) -> tuple[tuple, tuple, tuple]:
    """The Kalman correction of a prior covariance S0 by a measurement
    covariance R, each a 2x2 matrix given as its entries (m00, m01, m10, m11):
    A = (R + S0)^-1, the gain K = S0 A and the posterior covariance
    Sigma1 = K R, symmetrised.

    K and Sigma1 are multiplied out with S0 adj(S0) = |S0| I and
    adj(R) R = |R| I, where |X| is det X and adj X = |X| X^-1:

        |R + S0| = |S0| + |R| + tr(adj(S0) R)
        K        = (|S0| I + S0 adj(R)) / |R + S0|
        Sigma1   = (|S0| R + |R| S0) / |R + S0|

    |S0| and |R| are exact to the last bits.  With R isotropic, as the
    sensors' noise is, every other sum adds terms of one sign, so nothing
    cancels however near singular S0 is or however far below it R is; the
    products S0 A and (S0 A) R cancel in both cases.  The entries are scaled
    by a power of two first, which is exact, so that the products stay in
    range.  A determinant of R + S0 that is not positive raises before
    anything is divided by it."""
    s00, s01, s10, s11 = s0
    r00, r01, r10, r11 = r
    scale = math.ldexp(1.0, -math.frexp(s00 + s11 + r00 + r11)[1])
    s00, s01, s10, s11 = s00 * scale, s01 * scale, s10 * scale, s11 * scale
    r00, r01, r10, r11 = r00 * scale, r01 * scale, r10 * scale, r11 * scale
    d0, dr = _det(s00, s01, s10, s11), _det(r00, r01, r10, r11)
    det = (d0 + dr) + ((s00 * r11 + s11 * r00) - (s01 * r10 + s10 * r01))
    if not det > 0.0:
        raise DegenerateEvidenceError("innovation covariance R + S0 not positive definite")
    # back in the caller's units: A scales as 1/S0, K not at all, Sigma1 as S0
    a = scale / det
    c = 1.0 / (scale * det)
    off = 0.5 * ((d0 * r01 + dr * s01) + (d0 * r10 + dr * s10)) * c
    return (
        ((s11 + r11) * a, -(s01 + r01) * a, -(s10 + r10) * a, (s00 + r00) * a),
        ((d0 + (s00 * r11 - s01 * r10)) / det, (s01 * r00 - s00 * r01) / det,
         (s10 * r11 - s11 * r10) / det, (d0 + (s11 * r00 - s10 * r01)) / det),
        ((d0 * r00 + dr * s00) * c, off, off, (d0 * r11 + dr * s11) * c),
    )


def position_posterior(mean, cov, innovation, noise) -> tuple[tuple, tuple]:
    """Measurement correction of a position belief on Python floats: the
    mean (m0, m1), the covariance and the noise as ((x00, x01), (x10, x11))
    and the innovation (h0, h1) in, the posterior mean and covariance out as
    tuples of the same shapes.  A degenerate R + S0 is regularised first."""
    (c00, c01), (c10, c11) = cov
    (r00, r01), (r10, r11) = noise
    if abs((c00 + r00) * (c11 + r11) - (c01 + r01) * (c10 + r10)) < DEGENERATE_ETA:
        # regularising R + S0 is regularising R: (I - K) S0 = K (R + eps I)
        r00, r11 = r00 + REGULARIZER, r11 + REGULARIZER
    _, (k00, k01, k10, k11), (p00, p01, _, p11) = kalman_correction(
        (c00, c01, c10, c11), (r00, r01, r10, r11))
    (m0, m1), (h0, h1) = mean, innovation
    return (m0 + (k00 * h0 + k01 * h1), m1 + (k10 * h0 + k11 * h1)), ((p00, p01), (p01, p11))


def kalman_update(
    prior: GaussianBelief2, innovation: Innovation, noise: PositionNoiseModel
) -> GaussianBelief2:
    """Measurement correction of a position belief."""
    mean, cov = position_posterior(
        prior.mean.tolist(), prior.cov.tolist(), innovation.value.tolist(), noise.cov.tolist())
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
