"""Belief types over hole positions and types, and their constructors.

A hole's position is tracked by a 2D Gaussian, its type by a discrete
distribution over the C possible types, and a boolean records whether a peg
has already been fitted into it.  The belief types here are immutable values
whose constructors check their invariants; a trial in progress holds its
beliefs as `BeliefArrays` instead, one row of Python floats per hole.
`fit_probability` scores every hole of those rows for the policy's choice,
and the policy checks each posterior it writes there with the same
`check_position` and `check_types`.
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


def frozen_array(value, shape: tuple, what: str) -> np.ndarray:
    """A new read-only float array of `value`, which must have `shape` and
    finite entries: else, or when numpy cannot convert it, "{what} must be a
    finite 2-vector" (or "2x2 matrix")."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):  # a string, a dict or a ragged nesting
        arr = np.empty(0)  # of no shape that a caller asks for
    if arr.shape != shape or not np.isfinite(arr).all():
        kind = f"{shape[0]}-vector" if len(shape) == 1 else "x".join(map(str, shape)) + " matrix"
        raise InvalidInputError(f"{what} must be a finite {kind}")
    arr.setflags(write=False)
    return arr


def frozen_cov(value, what: str) -> np.ndarray:
    """`frozen_array` of a 2x2 matrix, symmetric within SYMMETRY_TOL.  The
    caller checks definiteness, whose floor differs: a belief may be
    singular, a noise model may not."""
    cov = frozen_array(value, (2, 2), what)
    if abs(cov[0, 1] - cov[1, 0]) > SYMMETRY_TOL:
        raise InvalidInputError(f"{what} must be symmetric")
    return cov


def check_position(mean, cov) -> None:
    """Raise InvalidInputError unless (mean, cov) is a valid 2D Gaussian:
    finite, symmetric within SYMMETRY_TOL, smallest eigenvalue >= PSD_TOL.

    Works on the six entries as Python floats, the mean as (m0, m1) and the
    covariance as ((a, b), (c, d)); the eigenvalue is the closed form for a
    symmetric 2x2 matrix read from its lower triangle, as `eigvalsh` does.
    """
    m0, m1 = mean
    (a, b), (c, d) = cov
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


def check_type_tag(tag, message: str, n_types: float = math.inf,
                   range_message: str | None = None) -> int:
    """`tag` as an int, if it is a type tag: an int or a numpy integer, not a
    bool, in 1..`n_types`.  Else InvalidInputError with `message`, or with
    `range_message`, if given, for an integer out of range."""
    if isinstance(tag, bool) or not isinstance(tag, (int, np.integer)):
        raise InvalidInputError(message)
    if not 1 <= tag <= n_types:
        raise InvalidInputError(range_message or message)
    return int(tag)


def check_count(value, key: str, low: int, high: float = math.inf,
                error: type = InvalidInputError) -> int:
    """`value` as an int, if it is an integer (an int, a numpy integer or a
    whole float, not a bool) in [`low`, `high`].  Else `error` with "{key}
    must be an integer, got {value!r}", or, out of range, "{key} must lie in
    [low, high]", "must be non-negative, got {value}" or "must be at least
    {low}, got {value}"."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        raise error(f"{key} must be an integer, got {value!r}")
    value = int(value)
    if not low <= value <= high:
        raise error(f"{key} must lie in [{low}, {high}]" if high < math.inf
                    else f"{key} must be non-negative, got {value}" if low == 0
                    else f"{key} must be at least {low}, got {value}")
    return value


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
        mean = frozen_array(self.mean, (2,), "belief mean")
        cov = frozen_array(self.cov, (2, 2), "belief covariance")
        check_position(mean.tolist(), cov.tolist())
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class TypeBelief:
    """Discrete distribution over hole types 1..C."""

    probs: np.ndarray

    def __post_init__(self):
        try:
            shape = np.shape(self.probs)
        except ValueError:  # a ragged nesting
            shape = ()
        if len(shape) != 1 or shape[0] < 2:
            raise InvalidInputError("type belief must be a vector of at least two classes")
        probs = frozen_array(self.probs, shape, "type belief")
        check_types(probs.tolist())
        object.__setattr__(self, "probs", probs)

    @property
    def n_types(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class PegType:
    """1-based type tag of the grasped peg."""

    value: int

    def __post_init__(self):
        value = check_type_tag(self.value, "peg type must be a positive integer")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class HoleBelief:
    """Composite per-hole belief: position Gaussian, type distribution, fitted flag."""

    position: GaussianBelief2
    type_belief: TypeBelief
    fitted: bool = False


@dataclass(eq=False)
class BeliefArrays:
    """One trial's beliefs as Python rows, entry h for hole h: each mean a
    tuple (m0, m1), each covariance ((c00, c01), (c10, c11)), each type
    distribution a list of C floats and each fitted flag a bool.

    The constructor takes arrays or nested sequences of shapes (H, 2),
    (H, 2, 2), (H, C) and (H,) for H >= 1 holes and C >= 2 types, the last
    of bools, else raises InvalidInputError, and stores new rows of Python
    floats and bools, so no numpy scalar reaches a step.  The policy's step
    scores the holes with `fit_probability` and replaces the chosen hole's
    rows after checking the posterior, whose values are its to check.
    """

    means: list[tuple[float, float]]
    covs: list[tuple[tuple[float, float], tuple[float, float]]]
    xi: list[list[float]]
    fitted: list[bool]

    def __post_init__(self):
        try:
            means, covs, xi = (np.asarray(v, dtype=float) for v in (self.means, self.covs, self.xi))
            fitted = np.asarray(self.fitted)
        except (TypeError, ValueError):  # a string, a dict or a ragged nesting
            raise InvalidInputError("belief rows must be arrays of numbers") from None
        h, c = xi.shape if xi.ndim == 2 else (0, 0)
        if not (h >= 1 and c >= 2 and means.shape == (h, 2) and covs.shape == (h, 2, 2)
                and fitted.shape == (h,) and fitted.dtype == bool):
            raise InvalidInputError("belief rows must have shapes (H, 2), (H, 2, 2), (H, C) "
                                    "and (H,) for H >= 1 and C >= 2, the last of bools")
        self.means = list(map(tuple, means.tolist()))
        self.covs = [(tuple(r0), tuple(r1)) for r0, r1 in covs.tolist()]
        self.xi = xi.tolist()
        self.fitted = fitted.tolist()

    @classmethod
    def of(cls, beliefs: list[HoleBelief]) -> BeliefArrays:
        """The rows of belief objects, gathered for the constructor to check."""
        return cls(
            means=[b.position.mean for b in beliefs],
            covs=[b.position.cov for b in beliefs],
            xi=[b.type_belief.probs for b in beliefs],
            fitted=[b.fitted for b in beliefs],
        )

    def copy(self) -> BeliefArrays:
        """A copy with rows of its own, which the constructor builds."""
        return BeliefArrays(self.means, self.covs, self.xi, self.fitted)


@dataclass(frozen=True)
class HoleGroundTruth:
    """Simulator-side truth for one hole."""

    hole_type: int
    position: np.ndarray

    def __post_init__(self):
        hole_type = check_type_tag(self.hole_type, "hole type must be a positive integer")
        position = frozen_array(self.position, (2,), "hole position")
        object.__setattr__(self, "hole_type", hole_type)
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
        for key, low, high in (("n_holes", 1, MAX_PLACEMENT_ATTEMPTS), ("n_types", 2, MAX_TYPES),
                               ("horizon_high", 1, MAX_HORIZON), ("horizon_low", 1, MAX_HORIZON)):
            value = check_count(getattr(self, key), key, low, high, ConfigurationError)
            object.__setattr__(self, key, value)
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must lie in (0, 1]")
        # every range check is written so that NaN fails it
        if not 0.0 <= self.detector_error_bound <= MAX_LENGTH:
            raise ConfigurationError(f"detector error bound must lie in [0, {MAX_LENGTH:g}] m")
        if not 0.0 < self.sigma_init < np.inf:
            raise ConfigurationError("sigma_init must be finite and positive")
        if not 0.0 < self.alignment_rate <= 1.0:
            raise ConfigurationError("alignment rate must lie in (0, 1]")
        if not 0.0 < self.capture_radius <= MAX_LENGTH:
            raise ConfigurationError(f"capture radius must lie in (0, {MAX_LENGTH:g}] m")
        try:
            lo = np.asarray(self.workspace_min, dtype=float)
            hi = np.asarray(self.workspace_max, dtype=float)
        except (TypeError, ValueError):  # a string, a dict or a ragged nesting
            lo = hi = np.empty(0)  # of no shape that the check below accepts
        if lo.shape != (2,) or hi.shape != (2,) or not all(
            -MAX_LENGTH <= l < h <= MAX_LENGTH for l, h in zip(lo.tolist(), hi.tolist())
        ):
            raise ConfigurationError(
                "workspace bounds must be 2-vectors with positive, finite extent and "
                f"corners within {MAX_LENGTH:g} m of 0"
            )
        # tuples, so that no caller can change a frozen config's bounds in place
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


def init_position_belief(detection, sigma_init: float) -> GaussianBelief2:
    """Isotropic Gaussian centered on a vision detection, which
    `GaussianBelief2` checks."""
    if not 0.0 < sigma_init < math.inf:  # a zero variance passes the PSD check
        raise InvalidInputError("sigma_init must be finite and positive")
    return GaussianBelief2(mean=detection, cov=sigma_init * np.eye(2))


def fit_probability(state: BeliefArrays, peg: PegType, alpha: float) -> list[float]:
    """Predicted probability that the next attempt on each hole succeeds.

    A success needs the types to match (belief mass xi[h, peg]) and the
    rollout to come through (rate alpha).  An already-fitted hole pays no
    reward, so its score is zero.
    """
    n_types = len(state.xi[0])
    if not 1 <= peg.value <= n_types:
        raise InvalidInputError(f"type {peg.value} out of range 1..{n_types}")
    k = peg.value - 1
    return [0.0 if fitted else alpha * xi[k] for fitted, xi in zip(state.fitted, state.xi)]
