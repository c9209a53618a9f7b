"""Noise-parameter calibration by minimizing one-step posterior NLL.

Each interaction record carries an initial belief, one position observation,
one binary match verdict and the attempt outcome.  Running both filters for a
single step under candidate parameters yields a posterior, and the loss is
the negative log-likelihood of the true hole state under it:

    1/2 ln|Sigma1| + 1/2 (p - mu1)^T Sigma1^-1 (p - mu1)   position terms
    - ln xi1[c]                                            type term
    - ln P_learned(o_match | true class)                   sensor-head terms

The learned parameters live in an unconstrained vector theta: the position
covariance through a lower-triangular square root with log diagonal (always
positive definite), the confusion rates through a scaled logistic (always
inside (eps, 1-eps)), so gradient descent can never leave the feasible set.
Gradients are analytic and validated against central finite differences.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import SUM_TOL, SYMMETRY_TOL, EnvConfig, HoleGroundTruth, PegType
from .beliefs import init_type_belief_random
from .errors import (
    DegenerateEvidenceError,
    DegenerateOracleError,
    DegenerateOracleWarning,
    InvalidInputError,
    OptimizationFailureError,
)
from .filters import MATCH_PROB_EPS, FilterModels, MatchObservationModel, PositionNoiseModel
from .sensors import SensorModel, sense_match, sense_position
from .sim import SpiralParams, placement_box, rollout_random_actions

LOG_FLOOR = 1e-6

DATASET_COLUMNS = (
    "peg_type", "hole_type", "p_x", "p_y", "mu0_x", "mu0_y",
    "obs_x", "obs_y", "o_match", "beta",
)


@dataclass(frozen=True)
class InteractionRecord:
    """One data point: initial beliefs, sensor readings, and outcome."""

    peg_type: int
    hole_type: int
    position: np.ndarray
    mu0: np.ndarray
    sigma0: np.ndarray
    xi0: np.ndarray
    obs: np.ndarray
    o_match: bool
    beta: bool

    def __post_init__(self):
        for name in ("position", "mu0", "obs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (2,) or not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} must be a finite 2-vector")
            object.__setattr__(self, name, arr)
        sigma0 = np.asarray(self.sigma0, dtype=float)
        xi0 = np.asarray(self.xi0, dtype=float)
        if sigma0.shape != (2, 2) or xi0.ndim != 1:
            raise InvalidInputError("bad initial belief shapes")
        if self.peg_type < 1 or self.hole_type < 1 or self.hole_type > xi0.size:
            raise InvalidInputError("types out of range")
        # float arithmetic, cheap for large datasets; NaN and inf fail each test.
        # (a + d)/2 - hypot((a - d)/2, b) is the smaller eigenvalue.
        (a, b), (c, d) = sigma0.tolist()
        if not (abs(b - c) <= SYMMETRY_TOL and 0.5 * (a + d) - math.hypot(0.5 * (a - d), b) > 0):
            raise InvalidInputError("sigma0 must be symmetric positive definite")
        probs = xi0.tolist()
        if not (min(probs) >= 0.0 and abs(sum(probs) - 1.0) <= SUM_TOL):
            raise InvalidInputError("xi0 must lie on the probability simplex")
        object.__setattr__(self, "sigma0", sigma0)
        object.__setattr__(self, "xi0", xi0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class LearnedParams:
    """Unconstrained parameter vector theta = (a, b, c, u_t, u_f)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.shape != (5,) or not np.all(np.isfinite(theta)):
            raise InvalidInputError("theta must be a finite 5-vector")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_values(cls, position_cov, tpr: float, fpr: float) -> "LearnedParams":
        cov = np.asarray(position_cov, dtype=float)
        chol = np.linalg.cholesky(cov)
        eps = MATCH_PROB_EPS

        def logit(p):
            q = (p - eps) / (1.0 - 2.0 * eps)
            q = min(max(q, 1e-12), 1.0 - 1e-12)
            return math.log(q / (1.0 - q))

        theta = np.array(
            [math.log(chol[0, 0]), chol[1, 0], math.log(chol[1, 1]),
             logit(tpr), logit(fpr)]
        )
        return cls(theta)

    @property
    def chol(self) -> np.ndarray:
        a, b, c = self.theta[:3]
        return np.array([[math.exp(a), 0.0], [b, math.exp(c)]])

    @property
    def position_cov(self) -> np.ndarray:
        chol = self.chol
        return chol @ chol.T

    @property
    def tpr(self) -> float:
        return float(MATCH_PROB_EPS + (1 - 2 * MATCH_PROB_EPS) * _sigmoid(self.theta[3]))

    @property
    def fpr(self) -> float:
        return float(MATCH_PROB_EPS + (1 - 2 * MATCH_PROB_EPS) * _sigmoid(self.theta[4]))

    def to_filter_models(self) -> FilterModels:
        cov = self.position_cov
        if np.min(np.linalg.eigvalsh(cov)) < 1e-12:
            cov = cov + 1e-12 * np.eye(2)
        return FilterModels(
            position=PositionNoiseModel(cov),
            match=MatchObservationModel(tpr=self.tpr, fpr=self.fpr),
        )


# --------------------------------------------------------------------------
# dataset generation and serialization
# --------------------------------------------------------------------------


def generate_dataset(
    config: EnvConfig,
    sensor_model: SensorModel,
    n_interactions: int,
    rng: np.random.Generator,
    spiral: SpiralParams,
) -> list[InteractionRecord]:
    """Balanced interaction dataset from exploration rollouts.

    The first ceil(n/2) records are matched pairs, the rest mismatched; each
    record holds one reading of each virtual sensor plus the rollout outcome.
    """
    if n_interactions < 2:
        raise InvalidInputError("need at least two interactions for class balance")
    n_matched = (n_interactions + 1) // 2
    lo, hi = placement_box(config, spiral)
    records = []
    for i in range(n_interactions):
        hole_type = int(rng.integers(1, config.n_types + 1))
        if i < n_matched:
            peg_type = hole_type
        else:
            others = [t for t in range(1, config.n_types + 1) if t != hole_type]
            peg_type = int(others[rng.integers(0, len(others))])
        p = rng.uniform(lo, hi)
        hole = HoleGroundTruth(hole_type=hole_type, position=p)
        mu0 = p + rng.uniform(
            -config.detector_error_bound, config.detector_error_bound, 2
        )
        xi0 = init_type_belief_random(config.n_types, rng).probs
        outcome = rollout_random_actions(mu0, PegType(peg_type), hole, spiral, config, rng)
        innovation = sense_position(outcome.trace, p, mu0, sensor_model, rng)
        o_match = sense_match(hole_type, PegType(peg_type), sensor_model, rng)
        records.append(
            InteractionRecord(
                peg_type=peg_type,
                hole_type=hole_type,
                position=p,
                mu0=mu0,
                sigma0=config.sigma_init * np.eye(2),
                xi0=xi0,
                obs=innovation.value + mu0,
                o_match=o_match,
                beta=outcome.success,
            )
        )
    return records


def save_dataset(records: list[InteractionRecord], path) -> None:
    write_csv(
        path, DATASET_COLUMNS,
        ([r.peg_type, r.hole_type, *r.position.tolist(), *r.mu0.tolist(),
          *r.obs.tolist(), int(r.o_match), int(r.beta)] for r in records),
    )


def write_csv(path, header, rows) -> None:
    """The package's CSV writer: `read_table` reads what it writes.  A float
    cell is written as its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, columns: tuple, what: str, parse) -> list:
    """`parse(cells)` of each row of a CSV file whose header must be `columns`.

    A wrong header, a row of the wrong length, or a cell that `parse` rejects
    with ValueError raises InvalidInputError naming the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if tuple(header) != columns:
                raise InvalidInputError(f"unexpected {what} columns: {header}")
            out = []
            for row in reader:
                if len(row) != len(columns):
                    raise InvalidInputError(f"expected {len(columns)} cells, got {len(row)}")
                out.append(parse(row))
            return out
        except UnicodeDecodeError as exc:  # read ahead in blocks: no line to name
            raise InvalidInputError(f"cannot decode {path}: {exc}") from None
        except (ValueError, csv.Error) as exc:
            raise InvalidInputError(f"{path} line {reader.line_num}: {exc}") from None


def load_dataset(path, config: EnvConfig) -> list[InteractionRecord]:
    """Load records; initial beliefs not stored in the CSV are reconstructed
    as the configured isotropic position prior and a uniform type prior."""
    sigma0 = config.sigma_init * np.eye(2)
    xi0 = np.full(config.n_types, 1.0 / config.n_types)

    def record(row):
        return InteractionRecord(
            peg_type=int(row[0]),
            hole_type=int(row[1]),
            position=np.array([float(row[2]), float(row[3])]),
            mu0=np.array([float(row[4]), float(row[5])]),
            sigma0=sigma0,
            xi0=xi0,
            obs=np.array([float(row[6]), float(row[7])]),
            o_match=bool(int(row[8])),
            beta=bool(int(row[9])),
        )

    return read_table(path, DATASET_COLUMNS, "dataset", record)


# --------------------------------------------------------------------------
# loss and gradient
# --------------------------------------------------------------------------


class _Precomputed(NamedTuple):
    """The theta-free part of the loss over a batch, built once per call.

    2x2 matrices are tuples of their entries (m00, m01, m10, m11) and vectors
    tuples of (x, y), each entry an (n,) array.  With t(k) = P(beta | class k)
    the transition table, `tx_*` hold t(k) * xi0[k] on the peg's class, summed
    over the other classes, and on the true class c.
    """

    sigma0: tuple
    h: tuple  # innovation obs - mu0
    e: tuple  # prior error p - mu0
    tx_peg: np.ndarray
    tx_other: np.ndarray
    tx_true: np.ndarray
    on_peg: np.ndarray  # c equals the peg's class
    o_match: np.ndarray
    sign: np.ndarray  # derivative of P(o_match | .) in its rate: +1 or -1


def _precompute(records: list[InteractionRecord], alpha: float) -> _Precomputed:
    if not records:
        raise InvalidInputError("batch must be non-empty")
    if len({r.xi0.size for r in records}) != 1:
        raise InvalidInputError("records must share the same number of types")
    mu0 = np.array([r.mu0 for r in records])
    obs = np.array([r.obs for r in records])
    p = np.array([r.position for r in records])
    xi0 = np.array([r.xi0 for r in records])
    peg = np.array([r.peg_type for r in records]) - 1
    true = np.array([r.hole_type for r in records]) - 1
    beta = np.array([r.beta for r in records], dtype=bool)
    o_match = np.array([r.o_match for r in records], dtype=bool)
    idx = np.arange(len(records))
    is_peg = peg[:, None] == np.arange(xi0.shape[1])
    t_peg = np.where(beta, alpha, 1.0 - alpha)
    t_other = np.where(beta, 0.0, 1.0)
    on_peg = peg == true
    tx_peg = t_peg * xi0[idx, peg]
    tx_other = t_other * np.where(is_peg, 0.0, xi0).sum(axis=1)
    if not np.all(tx_peg + tx_other > 0.0):
        raise DegenerateEvidenceError(
            "a record's outcome has zero probability under its type prior"
        )
    return _Precomputed(
        sigma0=tuple(np.array([r.sigma0 for r in records]).reshape(-1, 4).T.copy()),
        h=tuple((obs - mu0).T.copy()),
        e=tuple((p - mu0).T.copy()),
        tx_peg=tx_peg,
        tx_other=tx_other,
        tx_true=np.where(on_peg, t_peg, t_other) * xi0[idx, true],
        on_peg=on_peg,
        o_match=o_match,
        sign=np.where(o_match, 1.0, -1.0),
    )


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices given as entry tuples."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _apply(x: tuple, v: tuple) -> tuple:
    """Product of a 2x2 matrix and a 2-vector given as entry tuples."""
    x00, x01, x10, x11 = x
    return x00 * v[0] + x01 * v[1], x10 * v[0] + x11 * v[1]


def _inv(x: tuple) -> tuple:
    """Inverse and determinant of a 2x2 matrix given as an entry tuple."""
    x00, x01, x10, x11 = x
    det = x00 * x11 - x01 * x10
    return (x11 / det, -x01 / det, -x10 / det, x00 / det), det


def _value_and_grad(theta: np.ndarray, pre: _Precomputed) -> tuple[np.ndarray, np.ndarray]:
    """Per-record loss terms at theta, rows (position, type, match), and the
    gradient of each term's batch mean, one 5-vector per row."""
    params = LearnedParams(theta)
    grads = np.zeros((3, 5))

    # position: one Kalman correction with gain K = S0 A, A = (R + S0)^-1
    s0 = pre.sigma0
    a, _ = _inv(tuple(s + r for s, r in zip(s0, params.position_cov.ravel())))
    gain = _mul(s0, a)
    sigma1 = tuple(s - x for s, x in zip(s0, _mul(gain, s0)))
    with np.errstate(divide="ignore", invalid="ignore"):  # reported below
        m, det1 = _inv(sigma1)
    if not np.all(det1 > 0.0):
        raise DegenerateEvidenceError("posterior covariance not positive definite: sigma0 too small")
    kh = _apply(gain, pre.h)
    d = (pre.e[0] - kh[0], pre.e[1] - kh[1])  # p - mu1
    md = _apply(m, d)
    loss_pos = 0.5 * np.log(det1) + 0.5 * (d[0] * md[0] + d[1] * md[1])
    # dLp = tr(G dR) with G = 1/2 P M P^T + u v^T - 1/2 u u^T,
    # P = A S0, u = P M d, v = A h; dR is symmetric, so only G00, G01 + G10
    # and G11 matter
    p = _mul(a, s0)
    q00, q01, q10, q11 = _mul(p, m)
    u = _apply(p, md)
    v = _apply(a, pre.h)
    g00 = (0.5 * (q00 * p[0] + q01 * p[1]) + u[0] * v[0] - 0.5 * u[0] * u[0]).mean()
    g11 = (0.5 * (q10 * p[2] + q11 * p[3]) + u[1] * v[1] - 0.5 * u[1] * u[1]).mean()
    gx = (0.5 * (q00 * p[2] + q01 * p[3] + q10 * p[0] + q11 * p[1])
          + u[0] * v[1] + u[1] * v[0] - u[0] * u[1]).mean()
    (ea, _), (b, ec) = params.chol.tolist()
    grads[0, :3] = (2.0 * ea * ea * g00 + ea * b * gx, ea * gx + 2.0 * b * g11,
                    2.0 * ec * ec * g11)

    # type and match: the observation likelihood is h_peg on the peg's class
    # and h_other elsewhere, each moving with its rate by `sign`
    tpr, fpr = params.tpr, params.fpr
    h_peg = np.where(pre.o_match, tpr, 1.0 - tpr)
    h_other = np.where(pre.o_match, fpr, 1.0 - fpr)
    h_true = np.where(pre.on_peg, h_peg, h_other)
    eta = h_peg * pre.tx_peg + h_other * pre.tx_other
    xi1_true = h_true * pre.tx_true / eta
    loss_type = -np.log(np.maximum(xi1_true, LOG_FLOOR))
    loss_match = -np.log(np.maximum(h_true, LOG_FLOOR))
    # dLc/dh_k = tx_k / eta - [k = c] / h_c; floored records contribute none.
    # dlog_h is d ln h_c / d(its rate)
    active = xi1_true >= LOG_FLOOR
    dlog_h = pre.sign / h_true
    on_peg = pre.on_peg
    d_peg = np.where(active, pre.sign * pre.tx_peg / eta - np.where(on_peg, dlog_h, 0.0), 0.0)
    d_other = np.where(active, pre.sign * pre.tx_other / eta - np.where(on_peg, 0.0, dlog_h), 0.0)
    scale = 1.0 - 2.0 * MATCH_PROB_EPS
    st, sf = _sigmoid(theta[3]), _sigmoid(theta[4])
    chain = np.array([scale * st * (1.0 - st), scale * sf * (1.0 - sf)])
    grads[1, 3:] = chain * (d_peg.mean(), d_other.mean())
    grads[2, 3:] = -chain * (np.where(on_peg, dlog_h, 0.0).mean(),
                             np.where(on_peg, 0.0, dlog_h).mean())
    return np.array([loss_pos, loss_type, loss_match]), grads


def _mean_loss_and_grad(theta, pre: _Precomputed) -> tuple[float, np.ndarray]:
    """Batch-mean loss, every term summed, and its gradient."""
    losses, grads = _value_and_grad(theta, pre)
    return float(losses.sum(axis=0).mean()), grads.sum(axis=0)


def batch_nll(params: LearnedParams, records: list[InteractionRecord], alpha: float) -> float:
    """Mean one-step filtering NLL of the records under `params`."""
    return _mean_loss_and_grad(params.theta, _precompute(records, alpha))[0]


def grad_nll(params: LearnedParams, records: list[InteractionRecord], alpha: float) -> np.ndarray:
    """Analytic gradient of the mean NLL w.r.t. theta."""
    return _mean_loss_and_grad(params.theta, _precompute(records, alpha))[1]


def fit_parameters(
    records: list[InteractionRecord],
    init: LearnedParams | None,
    lr: float = 0.01,
    epochs: int = 2000,
    alpha: float = 0.34,
    history_out: list | None = None,
) -> LearnedParams:
    """Full-batch Adam with cosine-annealed step size on the mean NLL.

    Annealing matters here: Adam normalizes per-coordinate step sizes, and
    the Cholesky off-diagonal lives on a much smaller natural scale than the
    log-diagonal coordinates, so a constant step keeps it oscillating instead
    of settling.  `init=None` starts from a neutral guess (isotropic 1 cm^2
    covariance, mildly informative confusion rates).  Divergence past 10x the
    initial loss aborts with an error.  Each epoch makes one pass over the
    batch: the loss at the new parameters, recorded in `history_out`, comes
    with the gradient for the next step.
    """
    if epochs < 1:
        raise InvalidInputError("need at least one epoch")
    if not 0.0 < lr < math.inf:
        raise InvalidInputError(f"learning rate must be positive and finite, got {lr}")
    pre = _precompute(records, alpha)
    if init is None:
        init = LearnedParams.from_values(1e-4 * np.eye(2), tpr=0.75, fpr=0.25)
    theta = init.theta.copy()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(5)
    v = np.zeros(5)
    initial_loss, g = _mean_loss_and_grad(theta, pre)
    bound = 10.0 * max(abs(initial_loss), 1.0)
    for epoch in range(1, epochs + 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** epoch)
        v_hat = v / (1 - beta2 ** epoch)
        step = lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - 1) / epochs))
        theta = theta - step * m_hat / (np.sqrt(v_hat) + eps)
        if not np.all(np.isfinite(theta)) or np.max(np.abs(theta[:3])) > 150.0:
            raise OptimizationFailureError(
                f"parameters diverged at epoch {epoch} (|theta| too large)"
            )
        loss, g = _mean_loss_and_grad(theta, pre)
        if history_out is not None:
            history_out.append(loss)
        if not np.isfinite(loss) or loss > bound:
            raise OptimizationFailureError(
                f"loss diverged at epoch {epoch}: {loss:.3g} vs initial {initial_loss:.3g}"
            )
    return LearnedParams(theta)


# --------------------------------------------------------------------------
# closed-form oracles
# --------------------------------------------------------------------------


def mle_covariance_oracle(observations, truths) -> np.ndarray:
    """Unbiased sample covariance of sensor residuals (obs - truth)."""
    observations = np.asarray(observations, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if observations.shape != truths.shape or observations.ndim != 2:
        raise InvalidInputError("observations and truths must be (n, 2) arrays")
    if observations.shape[0] < 3:
        raise DegenerateOracleError("need at least 3 samples")
    residuals = observations - truths
    centered = residuals - residuals.mean(axis=0)
    cov = centered.T @ centered / (residuals.shape[0] - 1)
    if np.linalg.matrix_rank(cov) < 2:
        warnings.warn("rank-deficient residual sample", DegenerateOracleWarning)
    return cov


def mle_confusion_oracle(samples) -> tuple[float, float]:
    """Counting estimate of (tpr, fpr) from (types_match, o_match) pairs."""
    matched = [o for is_match, o in samples if is_match]
    mismatched = [o for is_match, o in samples if not is_match]
    if not matched or not mismatched:
        raise DegenerateOracleError("need both matched and mismatched samples")
    eps = MATCH_PROB_EPS
    tpr = min(max(sum(matched) / len(matched), eps), 1.0 - eps)
    fpr = min(max(sum(mismatched) / len(mismatched), eps), 1.0 - eps)
    return tpr, fpr
