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
from .sim import SpiralParams, rollout_random_actions

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
    spiral: SpiralParams | None = None,
) -> list[InteractionRecord]:
    """Balanced interaction dataset from exploration rollouts.

    The first ceil(n/2) records are matched pairs, the rest mismatched; each
    record holds one reading of each virtual sensor plus the rollout outcome.
    """
    if n_interactions < 2:
        raise InvalidInputError("need at least two interactions for class balance")
    spiral = spiral or SpiralParams()
    n_matched = (n_interactions + 1) // 2
    margin = config.detector_error_bound + spiral.r_max
    lo = np.asarray(config.workspace_min) + margin
    hi = np.asarray(config.workspace_max) - margin
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
        outcome = rollout_random_actions(
            mu0, PegType(peg_type), hole, spiral, config.horizon_low, rng,
            capture_radius=config.capture_radius,
            alignment_rate=config.alignment_rate,
            workspace=(config.workspace_min, config.workspace_max),
        )
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DATASET_COLUMNS)
        for r in records:
            writer.writerow(
                [r.peg_type, r.hole_type,
                 repr(float(r.position[0])), repr(float(r.position[1])),
                 repr(float(r.mu0[0])), repr(float(r.mu0[1])),
                 repr(float(r.obs[0])), repr(float(r.obs[1])),
                 int(r.o_match), int(r.beta)]
            )


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


@dataclass
class _Batch:
    mu0: np.ndarray
    sigma0: np.ndarray
    xi0: np.ndarray
    obs: np.ndarray
    o_match: np.ndarray
    beta: np.ndarray
    peg: np.ndarray
    c: np.ndarray
    p: np.ndarray

    @property
    def n(self) -> int:
        return self.mu0.shape[0]

    @property
    def n_types(self) -> int:
        return self.xi0.shape[1]


def _pack(records: list[InteractionRecord]) -> _Batch:
    if not records:
        raise InvalidInputError("batch must be non-empty")
    sizes = {r.xi0.size for r in records}
    if len(sizes) != 1:
        raise InvalidInputError("records must share the same number of types")
    return _Batch(
        mu0=np.array([r.mu0 for r in records]),
        sigma0=np.array([r.sigma0 for r in records]),
        xi0=np.array([r.xi0 for r in records]),
        obs=np.array([r.obs for r in records]),
        o_match=np.array([r.o_match for r in records], dtype=bool),
        beta=np.array([r.beta for r in records], dtype=bool),
        peg=np.array([r.peg_type for r in records], dtype=int),
        c=np.array([r.hole_type for r in records], dtype=int),
        p=np.array([r.position for r in records]),
    )


def _inv2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched 2x2 inverse and determinant."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    inv = np.empty_like(m)
    inv[..., 0, 0] = m[..., 1, 1]
    inv[..., 1, 1] = m[..., 0, 0]
    inv[..., 0, 1] = -m[..., 0, 1]
    inv[..., 1, 0] = -m[..., 1, 0]
    return inv / det[..., None, None], det


def posterior_nll(
    p, mu1, sigma1, xi1, hole_type: int, peg_type: int, o_match: bool,
    tpr: float, fpr: float,
    include_position: bool = True,
    include_type: bool = True,
    include_match: bool = True,
) -> float:
    """Loss terms evaluated directly on a one-step posterior."""
    total = 0.0
    if include_position:
        sigma1 = np.asarray(sigma1, dtype=float)
        d = np.asarray(p, dtype=float) - np.asarray(mu1, dtype=float)
        det = float(np.linalg.det(sigma1))
        if not det > 0.0:
            raise DegenerateEvidenceError("posterior covariance is not positive definite")
        total += 0.5 * math.log(det) + 0.5 * float(d @ np.linalg.solve(sigma1, d))
    if include_type:
        total += -math.log(max(float(np.asarray(xi1)[hole_type - 1]), LOG_FLOOR))
    if include_match:
        if hole_type == peg_type:
            pm = tpr if o_match else 1.0 - tpr
        else:
            pm = fpr if o_match else 1.0 - fpr
        total += -math.log(max(pm, LOG_FLOOR))
    return total


def _forward_position(batch: _Batch, cov: np.ndarray):
    h = batch.obs - batch.mu0
    s = batch.sigma0 + cov[None, :, :]
    a, _ = _inv2(s)
    sa = np.einsum("nij,njk->nik", batch.sigma0, a)
    mu1 = batch.mu0 + np.einsum("nij,nj->ni", sa, h)
    sigma1 = batch.sigma0 - np.einsum("nij,njk->nik", sa, batch.sigma0)
    with np.errstate(divide="ignore", invalid="ignore"):  # reported below
        m, det1 = _inv2(sigma1)
    if not np.all(det1 > 0.0):
        raise DegenerateEvidenceError("posterior covariance not positive definite: sigma0 too small")
    d = batch.p - mu1
    loss = 0.5 * np.log(det1) + 0.5 * np.einsum("ni,nij,nj->n", d, m, d)
    return loss, h, a, m, d


def _type_tables(batch: _Batch, alpha: float, tpr: float, fpr: float):
    k = np.arange(1, batch.n_types + 1)
    is_peg = batch.peg[:, None] == k[None, :]
    t = np.where(
        batch.beta[:, None],
        np.where(is_peg, alpha, 0.0),
        np.where(is_peg, 1.0 - alpha, 1.0),
    )
    h = np.where(
        batch.o_match[:, None],
        np.where(is_peg, tpr, fpr),
        np.where(is_peg, 1.0 - tpr, 1.0 - fpr),
    )
    return is_peg, t, h


def _loss_arrays(
    theta: np.ndarray, batch: _Batch, alpha: float,
    include_position: bool, include_type: bool, include_match: bool,
):
    params = LearnedParams(theta)
    n = batch.n
    loss = np.zeros(n)
    if include_position:
        loss += _forward_position(batch, params.position_cov)[0]
    if include_type or include_match:
        tpr, fpr = params.tpr, params.fpr
        is_peg, t, h = _type_tables(batch, alpha, tpr, fpr)
        if include_type:
            w = h * t * batch.xi0
            eta = w.sum(axis=1)
            xi1_c = w[np.arange(n), batch.c - 1] / eta
            loss += -np.log(np.maximum(xi1_c, LOG_FLOOR))
        if include_match:
            types_match = batch.c == batch.peg
            pm = np.where(
                types_match,
                np.where(batch.o_match, tpr, 1.0 - tpr),
                np.where(batch.o_match, fpr, 1.0 - fpr),
            )
            loss += -np.log(np.maximum(pm, LOG_FLOOR))
    return loss


def nll_loss(
    params: LearnedParams,
    record: InteractionRecord,
    alpha: float,
    include_position: bool = True,
    include_type: bool = True,
    include_match: bool = True,
) -> float:
    """One-step filtering NLL of a single record under `params`."""
    return float(
        _loss_arrays(
            params.theta, _pack([record]), alpha,
            include_position, include_type, include_match,
        )[0]
    )


def batch_nll(
    params: LearnedParams,
    records: list[InteractionRecord],
    alpha: float,
    include_position: bool = True,
    include_type: bool = True,
    include_match: bool = True,
) -> float:
    batch = _pack(records)
    return float(
        _loss_arrays(
            params.theta, batch, alpha,
            include_position, include_type, include_match,
        ).mean()
    )


def _grad_arrays(
    theta: np.ndarray, batch: _Batch, alpha: float,
    include_position: bool, include_type: bool, include_match: bool,
) -> np.ndarray:
    params = LearnedParams(theta)
    n = batch.n
    grad = np.zeros(5)

    if include_position:
        cov = params.position_cov
        _, h, a, m, d = _forward_position(batch, cov)
        # dLp = tr(G dR) with G = 1/2 W + u v^T - 1/2 u u^T,
        # W = A S0 M S0 A, u = A S0 M d, v = A h  (A = (R+S0)^-1, M = S1^-1)
        asig = np.einsum("nij,njk->nik", a, batch.sigma0)
        w_mat = np.einsum("nij,njk,nlk->nil", asig, m, asig)
        u = np.einsum("nij,njk,nk->ni", asig, m, d)
        v = np.einsum("nij,nj->ni", a, h)
        g = (
            0.5 * w_mat
            + np.einsum("ni,nj->nij", u, v)
            - 0.5 * np.einsum("ni,nj->nij", u, u)
        ).mean(axis=0)
        chol = params.chol
        ea, b_, ec = chol[0, 0], chol[1, 0], chol[1, 1]
        dl = {
            0: np.array([[ea, 0.0], [0.0, 0.0]]),
            1: np.array([[0.0, 0.0], [1.0, 0.0]]),
            2: np.array([[0.0, 0.0], [0.0, ec]]),
        }
        for k, dmat in dl.items():
            dr = dmat @ chol.T + chol @ dmat.T
            grad[k] = float(np.sum(g * dr))

    if include_type or include_match:
        tpr, fpr = params.tpr, params.fpr
        is_peg, t, h = _type_tables(batch, alpha, tpr, fpr)
        sign = np.where(batch.o_match, 1.0, -1.0)
        d_tpr = np.zeros(n)
        d_fpr = np.zeros(n)
        if include_type:
            w = h * t * batch.xi0
            eta = w.sum(axis=1)
            idx = np.arange(n)
            w_c = w[idx, batch.c - 1]
            xi1_c = w_c / eta
            active = xi1_c >= LOG_FLOOR  # floored records contribute no gradient
            onehot_c = np.zeros((n, batch.n_types))
            onehot_c[idx, batch.c - 1] = 1.0
            # dLc/dw_k = 1/eta - delta_{k,c}/w_c
            with np.errstate(divide="ignore", invalid="ignore"):
                dldw = 1.0 / eta[:, None] - onehot_c / np.where(
                    w_c[:, None] > 0.0, w_c[:, None], np.inf
                )
            common = t * batch.xi0 * dldw * sign[:, None]
            d_tpr += np.where(active, (common * is_peg).sum(axis=1), 0.0)
            d_fpr += np.where(active, (common * ~is_peg).sum(axis=1), 0.0)
        if include_match:
            types_match = batch.c == batch.peg
            pm = np.where(
                types_match,
                np.where(batch.o_match, tpr, 1.0 - tpr),
                np.where(batch.o_match, fpr, 1.0 - fpr),
            )
            d_head = -sign / pm
            d_tpr += np.where(types_match, d_head, 0.0)
            d_fpr += np.where(~types_match, d_head, 0.0)
        scale = 1.0 - 2.0 * MATCH_PROB_EPS
        st, sf = _sigmoid(theta[3]), _sigmoid(theta[4])
        grad[3] = d_tpr.mean() * scale * st * (1.0 - st)
        grad[4] = d_fpr.mean() * scale * sf * (1.0 - sf)

    return grad


def grad_nll(
    params: LearnedParams,
    records: list[InteractionRecord],
    alpha: float,
    include_position: bool = True,
    include_type: bool = True,
    include_match: bool = True,
) -> np.ndarray:
    """Analytic gradient of the mean NLL w.r.t. theta."""
    batch = _pack(records)
    return _grad_arrays(
        params.theta, batch, alpha, include_position, include_type, include_match
    )


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
    initial loss aborts with an error.
    """
    if epochs < 1:
        raise InvalidInputError("need at least one epoch")
    batch = _pack(records)
    if init is None:
        init = LearnedParams.from_values(1e-4 * np.eye(2), tpr=0.75, fpr=0.25)
    theta = init.theta.copy()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(5)
    v = np.zeros(5)
    initial_loss = float(_loss_arrays(theta, batch, alpha, True, True, True).mean())
    bound = 10.0 * max(abs(initial_loss), 1.0)
    for epoch in range(1, epochs + 1):
        g = _grad_arrays(theta, batch, alpha, True, True, True)
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
        loss = float(_loss_arrays(theta, batch, alpha, True, True, True).mean())
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
