"""Noise-parameter calibration by minimizing one-step posterior NLL.

Each interaction record carries an initial belief, one position observation,
one binary match verdict and the attempt outcome.  Running both filters for a
single step under candidate parameters yields a posterior, and the loss is
the negative log-likelihood of the true hole state under it:

    1/2 ln|Sigma1| + 1/2 (p - mu1)^T Sigma1^-1 (p - mu1)   position terms
    - ln xi1[c]                                            type term
    - ln P_learned(o_match | true class)                   sensor-head terms

The position terms cost O(groups), not O(records): records are grouped by
prior covariance S0.  With A = (R + S0)^-1 and gain K = S0 A, I - K = R A,
so a record's posterior error is d = p - mu1 = R A e + S0 A f, where
e = p - mu0 and f = p - obs, and a group's terms and gradient follow from
its count and its second moments of e, f and h = obs - mu0.  The posterior
covariance is Sigma1 = K R.  Unlike d = e - K h and Sigma1 = S0 - K S0,
these forms do not cancel when S0 >> R.  A, K and Sigma1 come from the
filter's own `kalman_correction`; the group algebra runs on Python floats,
which suits batches that share a few priors, as every dataset built here
does.  The type term costs O(distinct type columns):
a record's type and match terms depend only on its (on the peg's class,
o_match) cell and its prior products, so records with equal ones fold into
one column weighted by their count.  The floor still applies per record,
since equal columns give equal posteriors.  The sensor-head terms follow
from the record counts of the four cells.

The learned parameters live in an unconstrained vector theta: the position
covariance through a lower-triangular square root with log diagonal (always
positive definite), the confusion rates through a scaled logistic (always
inside (eps, 1-eps)), so gradient descent can never leave the feasible set.
Gradients are analytic and validated against central finite differences.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .beliefs import SUM_TOL, SYMMETRY_TOL, EnvConfig, normalized_rows
from .errors import (
    DegenerateEvidenceError,
    DegenerateOracleError,
    DegenerateOracleWarning,
    InvalidInputError,
    OptimizationFailureError,
)
from .filters import (
    MATCH_PROB_EPS,
    FilterModels,
    MatchObservationModel,
    PositionNoiseModel,
    kalman_correction,
)
from .sensors import SensorModel, observe_positions
from .sim import SpiralParams, block_size, placement_box, rollout_block, sized_empty, wiggle_rows

LOG_FLOOR = 1e-6

DATASET_COLUMNS = (
    "peg_type", "hole_type", "p_x", "p_y", "mu0_x", "mu0_y",
    "obs_x", "obs_y", "o_match", "beta",
)


class _Row:
    """Column slices of a packed `InteractionRecord` row."""

    p = slice(0, 2)
    mu0 = slice(2, 4)
    obs = slice(4, 6)
    sigma0 = slice(6, 10)  # entries 00, 01, 10, 11
    peg = 10
    hole = 11
    beta = 12
    o_match = 13
    xi0 = slice(14, None)


class InteractionRecord:
    """One data point: initial beliefs, sensor readings, and outcome.

    A record is one read-only float row, laid out as `_Row`, and every field
    is read from it: `position`, `mu0`, `obs` and `xi0` are views of the
    row, `sigma0` is the (2, 2) view of its `_Row.sigma0` entries, the types
    are ints and the flags bools.  The constructor checks the values with
    `_check_values` and `_check_prior` and packs them, so no field can
    differ from what the loss reads.  Records compare by identity: arrays
    have no single truth value.
    """

    __slots__ = ("_row",)

    def __init__(self, peg_type: int, hole_type: int, position, mu0, sigma0, xi0, obs,
                 o_match: bool, beta: bool):
        values = []
        for vector in (position, mu0, obs):
            arr = np.asarray(vector, dtype=float)
            # a vector of another shape fails `_check_values` as not finite
            values += arr.tolist() if arr.shape == (2,) else [math.nan, math.nan]
        sigma0 = np.asarray(sigma0, dtype=float)
        xi0 = np.asarray(xi0, dtype=float)
        if sigma0.shape != (2, 2) or xi0.ndim != 1:
            raise InvalidInputError("bad initial belief shapes")
        (a, b), (c, d) = entries = sigma0.tolist()
        head = [*values, a, b, c, d, peg_type, hole_type, bool(beta), bool(o_match)]
        probs = xi0.tolist()
        _check_values(head, len(probs))
        _check_prior(entries, probs)
        row = np.array(head + probs)
        row.setflags(write=False)
        object.__setattr__(self, "_row", row)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a record is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy: the record on its row again
        return _record, (self._row,)

    def __repr__(self):
        return f"InteractionRecord(_row={self._row.tolist()})"

    position = property(lambda self: self._row[_Row.p])
    mu0 = property(lambda self: self._row[_Row.mu0])
    obs = property(lambda self: self._row[_Row.obs])
    xi0 = property(lambda self: self._row[_Row.xi0])
    sigma0 = property(lambda self: self._row[_Row.sigma0].reshape(2, 2))
    peg_type = property(lambda self: int(self._row[_Row.peg]))
    hole_type = property(lambda self: int(self._row[_Row.hole]))
    o_match = property(lambda self: bool(self._row[_Row.o_match]))
    beta = property(lambda self: bool(self._row[_Row.beta]))


def _check_values(v, size: int) -> None:
    """Check the values of a record's row `v`, laid out as `_Row` up to its
    type prior: position, mu0 and obs finite, both types integers in
    1..size.  Python floats keep the checks cheap; NaN and inf fail each
    test."""
    for name, k in (("position", 0), ("mu0", 2), ("obs", 4)):  # the starts of `_Row`'s slices
        if not (math.isfinite(v[k]) and math.isfinite(v[k + 1])):
            raise InvalidInputError(f"{name} must be a finite 2-vector")
    for t in (v[_Row.peg], v[_Row.hole]):
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise InvalidInputError("types must be integers")
        if not 1 <= t <= size:
            raise InvalidInputError("types out of range")


def _check_prior(sigma0: list, probs: list) -> None:
    """Check a record's initial beliefs, `sigma0` as nested lists of floats
    and `probs` the type prior as a list: sigma0 symmetric positive
    definite and the prior on the simplex."""
    # (a + d)/2 - hypot((a - d)/2, b) is the smaller eigenvalue
    (a, b), (c, d) = sigma0
    if not (abs(b - c) <= SYMMETRY_TOL and 0.5 * (a + d) - math.hypot(0.5 * (a - d), b) > 0):
        raise InvalidInputError("sigma0 must be symmetric positive definite")
    if not (min(probs) >= 0.0 and abs(sum(probs) - 1.0) <= SUM_TOL):
        raise InvalidInputError("xi0 must lie on the probability simplex")


def _record(row: np.ndarray) -> InteractionRecord:
    """The record on a checked packed row, made read-only."""
    row.setflags(write=False)
    record = object.__new__(InteractionRecord)
    object.__setattr__(record, "_row", row)
    return record


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
        """theta for a symmetric positive definite 2x2 `position_cov` and
        rates in (0, 1); a rate within `MATCH_PROB_EPS` of 0 or 1 gives the
        nearest that the scaled logistic reaches."""
        cov = np.asarray(position_cov, dtype=float)
        if cov.shape != (2, 2) or not np.all(np.isfinite(cov)):
            raise InvalidInputError("noise covariance must be a finite 2x2 matrix")
        if abs(cov[0, 1] - cov[1, 0]) > SYMMETRY_TOL:  # Cholesky reads the lower triangle only
            raise InvalidInputError("noise covariance must be symmetric")
        for name, p in (("tpr", tpr), ("fpr", fpr)):
            if not 0.0 < p < 1.0:  # NaN fails too
                raise InvalidInputError(f"{name}={p} outside (0, 1)")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise InvalidInputError("position covariance must be positive definite") from None
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
    record holds one reading of each virtual sensor plus the outcome of a
    `rollout_random_actions`.  A record takes its draws in the order that
    rollout and `sense_position`, then `sense_match`, would take them, with
    draws of one kind that follow each other merged into one call; then one
    array pass per block of records computes the rollouts and readings and
    writes them into the block's rows.  The records' packed rows are
    allocated before the first draw, so a size the host or numpy cannot
    hold raises MemoryError at once.  Every value comes from the checked
    config and the draws, so the rows pass the record checks by
    construction; only the readings are checked, since a sensor can
    overflow.
    """
    if n_interactions < 2:
        raise InvalidInputError("need at least two interactions for class balance")
    n_matched = (n_interactions + 1) // 2
    lo, hi = placement_box(config, spiral)
    bound = config.detector_error_bound
    n_types = config.n_types
    horizon = config.horizon_low
    match = sensor_model.match
    normals = np.empty(6 * horizon + 2)
    rows = sized_empty((n_interactions, _Row.xi0.start + n_types))
    for first in range(0, n_interactions, block_size(horizon)):
        n = min(block_size(horizon), n_interactions - first)
        hole_types, peg_types = [], []
        # per record: the hole position, the detector offset, the type
        # weights and the alignment draw; the normal block and the position
        # sensor's normals; the match sensor's uniform
        uniforms = np.empty((n, 5 + n_types))
        normals_xy = np.empty((n, 2, horizon))
        sensor_normals = np.empty((n, 2))
        verdicts = np.empty(n)
        for k in range(n):
            hole_type = int(rng.integers(1, n_types + 1))
            peg_type = hole_type
            if first + k >= n_matched:  # one of the other types, in order
                peg_type = int(rng.integers(0, n_types - 1)) + 1
                peg_type += peg_type >= hole_type
            hole_types.append(hole_type)
            peg_types.append(peg_type)
            rng.random(out=uniforms[k])
            rng.standard_normal(out=normals)
            normals_xy[k] = wiggle_rows(normals, horizon)
            sensor_normals[k] = normals[6 * horizon:]
            verdicts[k] = rng.random()

        # rng.uniform(low, high) computes low + (high - low) * u
        p = lo + (hi - lo) * uniforms[:, 0:2]
        mu0 = p + (-bound + (bound - -bound) * uniforms[:, 2:4])
        aligned = uniforms[:, 4 + n_types] < config.alignment_rate
        matched = np.array(peg_types) == np.array(hole_types)
        success, closest, *_ = rollout_block(mu0, p, normals_xy, aligned, matched, spiral,
                                             config, sweep=False)
        innovation = observe_positions(closest, p, sensor_model, sensor_normals) - mu0
        if not np.isfinite(innovation).all():
            raise InvalidInputError("innovation must be a finite 2-vector")
        block = rows[first:first + n]
        block[:, _Row.p] = p
        block[:, _Row.mu0] = mu0
        block[:, _Row.obs] = innovation + mu0
        block[:, _Row.peg] = peg_types
        block[:, _Row.hole] = hole_types
        block[:, _Row.beta] = success
        block[:, _Row.o_match] = verdicts < np.where(matched, match.tpr, match.fpr)
        block[:, _Row.xi0] = normalized_rows(uniforms[:, 4:4 + n_types])
    rows[:, _Row.sigma0] = (config.sigma_init, 0.0, 0.0, config.sigma_init)
    rows.setflags(write=False)
    return list(map(_record, rows))


def save_dataset(records: list[InteractionRecord], path) -> None:
    # each row up to its type prior, which may differ in length; p, mu0 and obs lead
    head = np.array([r._row[:_Row.xi0.start] for r in records]).reshape(-1, _Row.xi0.start)
    ints = [_Row.peg, _Row.hole, _Row.o_match, _Row.beta]
    peg, hole, match, beta = head[:, ints].astype(int).T.tolist()
    write_csv(path, DATASET_COLUMNS, zip(peg, hole, *head[:, :6].T.tolist(), match, beta))


CSV_BLOCK_ROWS = 128  # rows formatted at a time, which bounds the text held


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _column_texts(column: tuple) -> list:
    """Each cell's text: `str` of the cell, quoted where it holds a comma,
    a quote, a line feed or a carriage return.

    A column of `int`s, or of `float`s none of which is zero, is formatted
    once per distinct value; a float's `str` is its `repr`.  A zero would
    share its text with the zero of the other sign, since 0.0 == -0.0.
    """
    kinds = set(map(type, column))
    if kinds == {int} or kinds == {float}:
        distinct = dict.fromkeys(column)
        if int in kinds or 0.0 not in distinct:
            return list(map(dict(zip(distinct, map(repr, distinct))).__getitem__, column))
    texts = list(map(str, column))
    if _needs_quotes("".join(texts)):
        texts = ['"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t for t in texts]
    return texts


def _write_lines(fh, rows: list, width: int) -> None:
    """Rows of `width` cells as CSV lines, formatted column by column."""
    texts = list(map(_column_texts, zip(*rows, strict=True)))
    if len(texts) != width:
        raise ValueError(f"a CSV row needs {width} cells, got {len(texts)}")
    if width == 1:  # a line of one empty cell would read as no cell at all
        texts[0] = ['""' if text == "" else text for text in texts[0]]
    fh.write("\n".join([*map(",".join, zip(*texts)), ""]))


def write_csv(path, header, rows) -> None:
    """The package's CSV writer: `read_table` reads what it writes.

    For cells that are strings, numbers or bools, the file's bytes are
    those of `csv.writer(fh, lineterminator="\\n")` writing the header and
    then the rows, except where a cell holds a carriage return: a float
    cell is its shortest round-trip repr, and a cell is quoted where it
    holds a comma, a quote, a line feed or a carriage return.  Python
    3.11's csv leaves a lone CR bare, and `csv.reader` would end the line
    there.  A row whose cell count is not the header's raises ValueError.
    Rows are read and written `CSV_BLOCK_ROWS` at a time, each block column
    by column, most numbers once per distinct value (`_column_texts`).
    """
    rows, width = iter(rows), len(header)
    with open(path, "w", newline="") as fh:
        _write_lines(fh, [header], width)
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            _write_lines(fh, block, width)


def read_table(path, columns: tuple, what: str, parse) -> list:
    """`parse(cells)` of each row of a CSV file whose header must be `columns`.

    A wrong header, a row of the wrong length, or a row that `parse` rejects
    with ValueError (InvalidInputError among them) raises InvalidInputError
    naming the file and line.  The rows are parsed in file order, so the
    error names the first bad line.
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
    as the configured isotropic position prior and a uniform type prior.

    The prior is checked once; each line's values are checked as it is
    parsed, by the constructor's `_check_values`, so an error names the
    first bad line.  The records share one packed block of rows.
    """
    size = config.n_types
    entries = (config.sigma_init * np.eye(2)).tolist()
    probs = [1.0 / size] * size
    _check_prior(entries, probs)
    (a, b), (c, d) = entries

    def parse(cells):  # the row up to its type prior, laid out as `_Row`
        peg, hole = int(cells[0]), int(cells[1])
        head = [*map(float, cells[2:8]), a, b, c, d, peg, hole, _flag(cells[9]), _flag(cells[8])]
        _check_values(head, size)
        return head

    table = read_table(path, DATASET_COLUMNS, "dataset", parse)
    if not table:
        return []
    rows = np.empty((len(table), _Row.xi0.start + size))
    rows[:, :_Row.xi0.start] = table
    rows[:, _Row.xi0] = probs
    rows.setflags(write=False)
    return list(map(_record, rows))


def _flag(cell: str) -> bool:
    """A dataset cell that holds a flag: 0 or 1."""
    if cell not in ("0", "1"):
        raise ValueError(f"a flag must be 0 or 1, got {cell!r}")
    return cell == "1"


# --------------------------------------------------------------------------
# loss and gradient
# --------------------------------------------------------------------------


class _Precomputed(NamedTuple):
    """The theta-free part of the loss over a batch, built once per call.

    Each `groups` entry is (S0, count, See, Sef, Sff, Seh, Sfh) for one
    prior covariance S0, with Sxy the sum of x y^T over the group's records
    and every 2x2 matrix a sequence of Python floats (m00, m01, m10, m11).
    The type arrays have one row per (on the peg's class, o_match) cell, in
    the order of the likelihoods h = (1 - tpr, tpr, 1 - fpr, fpr) of
    `_value_and_grad`, and one column per distinct type column of the
    batch, weighted by its count of records.  With t(k) = P(beta | class k)
    the transition table, `tx` holds t(k) xi0[k] on the peg's class and
    summed over the other classes, each in the row of the likelihood it
    meets, so `h @ tx` is every column's evidence; `tx_true` holds
    t(c) xi0[c] on the true class c in the row of the column's cell.
    """

    n: int
    groups: tuple
    tx: np.ndarray  # (4, g)
    tx_true: np.ndarray  # (4, g)
    cells: np.ndarray  # (4, g): 1.0 in the column's cell
    weight: np.ndarray  # (g,): records per column
    count: list  # 4 floats: records per cell


# the derivative of each cell's likelihood in its rate
_SIGN = (-1.0, 1.0, -1.0, 1.0)


def _runs(keys: np.ndarray) -> tuple:
    """Runs of exactly equal columns of `keys`, one row per key: an index
    that makes equal columns adjacent, the keys in that order, and the
    bounds [0, ..., n] of the runs.  When every column is equal, the index
    is a slice and the keys are `keys`: nothing is sorted or copied."""
    n = keys.shape[1]
    if (keys == keys[:, :1]).all():
        return slice(None), keys, [0, n]
    order = np.lexsort(keys)
    ks = keys[:, order]
    # OR the key rows one by one: numpy reduces the short axis 0 slowly
    changed = functools.reduce(np.logical_or, ks[:, 1:] != ks[:, :-1])
    return order, ks, [0, *(np.flatnonzero(changed) + 1).tolist(), n]


def _precompute(records: list[InteractionRecord], alpha: float) -> _Precomputed:
    if not records:
        raise InvalidInputError("batch must be non-empty")
    views = [r._row for r in records]
    if len(set(map(len, views))) > 1:
        raise InvalidInputError("records must share the same number of types")
    n = len(views)
    # every row is a contiguous float64 array, so its bytes are its values;
    # a join holds a buffer per row until it returns, so it takes a few
    # hundred rows at a time
    rows = np.empty((n, len(views[0])))
    for lo in range(0, n, 256):
        rows[lo:lo + 256] = np.frombuffer(b"".join(views[lo:lo + 256])).reshape(-1, rows.shape[1])
    del views

    # position: group the records by S0; m[i][j] holds the entries of a
    # group's sum of x_i x_j^T, x = (e, f, h)
    z = np.empty((n, 6))
    for k, (x, y) in enumerate(((_Row.p, _Row.mu0), (_Row.p, _Row.obs), (_Row.obs, _Row.mu0))):
        for j in range(2):  # one column at a time: strided pairs cost 4x more
            np.subtract(rows[:, x.start + j], rows[:, y.start + j], out=z[:, 2 * k + j])
    order, s0, cuts = _runs(rows[:, _Row.sigma0].T)
    z = z[order]
    groups = []
    for lo, hi in zip(cuts, cuts[1:]):
        q = z[lo:hi].T @ z[lo:hi]
        m = q.reshape(3, 2, 3, 2).transpose(0, 2, 1, 3).reshape(3, 3, 4).tolist()
        groups.append((s0[:, lo].tolist(), hi - lo, m[0][0], m[0][1], m[1][1], m[0][2], m[1][2]))
    del z, s0

    # type and match: a record's terms depend only on its key (tx_true,
    # tx_other, tx_peg, cell), and the cell fixes o_match, so the pass runs
    # on one column per run of equal keys
    xi0 = rows[:, _Row.xi0]
    idx = np.arange(n)
    peg = rows[:, _Row.peg].astype(int) - 1
    true = rows[:, _Row.hole].astype(int) - 1
    beta = rows[:, _Row.beta] == 1.0
    on_peg = peg == true
    t_peg = np.where(beta, alpha, 1.0 - alpha)
    t_other = np.where(beta, 0.0, 1.0)
    keys = np.empty((4, n))
    keys[0] = np.where(on_peg, t_peg, t_other) * xi0[idx, true]
    # the prior mass off the peg's class, summed in the order numpy sums a
    # row (`beliefs.ordered_sum`): column by column below 8 classes
    size = xi0.shape[1]
    if size < 8:
        other = np.where(peg == 0, 0.0, xi0[:, 0])
        for k in range(1, size):
            other += np.where(peg == k, 0.0, xi0[:, k])
    else:
        other = np.where(peg[:, None] == np.arange(size), 0.0, xi0).sum(axis=1)
    keys[1] = t_other * other
    keys[2] = t_peg * xi0[idx, peg]
    keys[3] = np.where(on_peg, 0, 2) + rows[:, _Row.o_match]
    del rows, xi0  # the packed rows are split: free them before sorting
    _, keys, cuts = _runs(keys)
    true_x, tx_other, tx_peg, cell = keys[:, cuts[:-1]]
    if not np.all(tx_peg + tx_other > 0.0):
        raise DegenerateEvidenceError(
            "a record's outcome has zero probability under its type prior"
        )
    cell = cell.astype(int)
    o_match = cell % 2
    col = np.arange(cell.size)
    tx = np.zeros((4, cell.size))
    tx[o_match, col] = tx_peg
    tx[2 + o_match, col] = tx_other
    tx_true = np.zeros((4, cell.size))
    tx_true[cell, col] = true_x
    cells = (cell == np.arange(4)[:, None]).astype(float)
    weight = np.diff(cuts).astype(float)
    return _Precomputed(n=n, groups=tuple(groups), tx=tx, tx_true=tx_true,
                        cells=cells, weight=weight, count=(cells @ weight).tolist())


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices given as entry tuples."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _t(x: tuple) -> tuple:
    """Transpose of a 2x2 matrix given as an entry tuple."""
    return x[0], x[2], x[1], x[3]


def _add(*xs: tuple) -> tuple:
    """Sum of 2x2 matrices given as entry tuples."""
    return tuple(map(sum, zip(*xs)))


def _inv(x: tuple) -> tuple:
    """Inverse and determinant of a 2x2 matrix given as an entry tuple; a
    determinant that is not positive (say, underflowed to 0) raises before
    anything is divided by it."""
    x00, x01, x10, x11 = x
    det = x00 * x11 - x01 * x10
    if not det > 0.0:
        raise DegenerateEvidenceError(
            "posterior covariance not positive definite: sigma0 too small")
    return (x11 / det, -x01 / det, -x10 / det, x00 / det), det


def _value_and_grad(theta: list, pre: _Precomputed) -> tuple[tuple, tuple]:
    """Batch-sum loss terms at theta, a list of 5 floats, as (position,
    type, match), and the gradient of each: position's in theta[0:3], type's
    and match's in theta[3:5], zero elsewhere.  The pass runs on Python
    floats except where numpy rounds otherwise: R's 2x2 product (BLAS fuses
    its multiply-adds), the logistic's exp, the logs and the products with
    the type arrays."""
    # position, per group: one Kalman correction with A = (R + S0)^-1,
    # K = S0 A, Sigma1 = K R = M^-1 and d = (I - K) e + K f.  Summed
    # over the group, Lp = count/2 ln|Sigma1| + 1/2 tr(M D) with
    # D = sum d d^T, and
    # dLp = tr(G dR) with G = count/2 P M P^T + P M C A^T - 1/2 P M D M P^T,
    # P = A S0 and C = sum d h^T; dR is symmetric, so only G00, G01 + G10
    # and G11 matter
    ea, b, ec = math.exp(theta[0]), theta[1], math.exp(theta[2])
    chol = np.array([[ea, 0.0], [b, ec]])
    r = tuple((chol @ chol.T).ravel().tolist())
    loss_pos = g00 = g11 = gx = 0.0
    for s0, count, see, sef, sff, seh, sfh in pre.groups:
        a, k, sigma1 = kalman_correction(s0, r)
        m, det1 = _inv(sigma1)
        u = _mul(r, a)  # R A = I - K
        cross = _mul(_mul(u, sef), _t(k))
        dd = _add(_mul(_mul(u, see), _t(u)), cross, _t(cross), _mul(_mul(k, sff), _t(k)))
        dh = _add(_mul(u, seh), _mul(k, sfh))
        p = _mul(a, s0)
        pm = _mul(p, m)
        g = [0.5 * count * x + y - 0.5 * w for x, y, w in zip(
            _mul(pm, _t(p)), _mul(_mul(pm, dh), _t(a)), _mul(_mul(pm, dd), _t(pm)))]
        loss_pos += 0.5 * count * math.log(det1) + 0.5 * (
            m[0] * dd[0] + m[1] * dd[2] + m[2] * dd[1] + m[3] * dd[3])
        g00 += g[0]
        g11 += g[3]
        gx += g[1] + g[2]
    g_pos = (2.0 * ea * ea * g00 + ea * b * gx, ea * gx + 2.0 * b * g11, 2.0 * ec * ec * g11)

    # type, per type column, and match, per cell.  A record's dLc/dh_k is
    # tx_k / eta - [k = c] / h_c above the floor and 0 below it, and equal
    # columns give equal terms: summed, the first part is
    # tx @ (weight active / eta), the second follows from each cell's count
    # of active records.  dlog_h is d ln h / d(its rate); the cells (0, 1)
    # belong to tpr and (2, 3) to fpr
    scale = 1.0 - 2.0 * MATCH_PROB_EPS
    st, sf = float(_sigmoid(theta[3])), float(_sigmoid(theta[4]))
    tpr, fpr = MATCH_PROB_EPS + scale * st, MATCH_PROB_EPS + scale * sf
    h = np.array([1.0 - tpr, tpr, 1.0 - fpr, fpr])
    eta = h @ pre.tx
    xi1_true = h @ pre.tx_true
    xi1_true /= eta
    active = (xi1_true >= LOG_FLOOR) * pre.weight
    loss_type = -float(pre.weight @ np.log(np.maximum(xi1_true, LOG_FLOOR)))
    log_h = np.log(np.maximum(h, LOG_FLOOR)).tolist()
    loss_match = -sum(k * x for k, x in zip(pre.count, log_h))
    dlog_h = [s / x for s, x in zip(_SIGN, h.tolist())]
    d_type = [s * x - y * d for s, x, y, d in zip(
        _SIGN, (pre.tx @ (active / eta)).tolist(), (pre.cells @ active).tolist(), dlog_h)]
    d_match = [-k * d for k, d in zip(pre.count, dlog_h)]
    chain = (scale * st * (1.0 - st), scale * sf * (1.0 - sf))
    g_type = (chain[0] * (d_type[0] + d_type[1]), chain[1] * (d_type[2] + d_type[3]))
    g_match = (chain[0] * (d_match[0] + d_match[1]), chain[1] * (d_match[2] + d_match[3]))
    return (loss_pos, loss_type, loss_match), (g_pos, g_type, g_match)


def _mean_loss_and_grad(theta: list, pre: _Precomputed) -> tuple[float, list]:
    """Batch-mean loss, every term summed, and its gradient as 5 floats:
    each term's sum divided by the batch size, then the terms added in
    their (position, type, match) order."""
    n = pre.n
    (loss_pos, loss_type, loss_match), (g_pos, g_type, g_match) = _value_and_grad(theta, pre)
    return (loss_pos / n + loss_type / n + loss_match / n,
            [x / n for x in g_pos] + [t / n + m / n for t, m in zip(g_type, g_match)])


def batch_nll(params: LearnedParams, records: list[InteractionRecord], alpha: float) -> float:
    """Mean one-step filtering NLL of the records under `params`."""
    return _mean_loss_and_grad(params.theta.tolist(), _precompute(records, alpha))[0]


def grad_nll(params: LearnedParams, records: list[InteractionRecord], alpha: float) -> np.ndarray:
    """Analytic gradient of the mean NLL w.r.t. theta."""
    return np.array(_mean_loss_and_grad(params.theta.tolist(), _precompute(records, alpha))[1])


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
    with the gradient for the next step.  The steps run on lists of 5 Python
    floats, in the order of operations of Adam on numpy 5-vectors.
    """
    if epochs < 1:
        raise InvalidInputError("need at least one epoch")
    if not 0.0 < lr < math.inf:
        raise InvalidInputError(f"learning rate must be positive and finite, got {lr}")
    pre = _precompute(records, alpha)
    if init is None:
        init = LearnedParams.from_values(1e-4 * np.eye(2), tpr=0.75, fpr=0.25)
    theta = init.theta.tolist()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [0.0] * 5
    v = [0.0] * 5
    initial_loss, g = _mean_loss_and_grad(theta, pre)
    bound = 10.0 * max(abs(initial_loss), 1.0)
    for epoch in range(1, epochs + 1):
        m = [beta1 * x + (1 - beta1) * y for x, y in zip(m, g)]
        v = [beta2 * x + (1 - beta2) * y * y for x, y in zip(v, g)]
        c1, c2 = 1 - beta1 ** epoch, 1 - beta2 ** epoch  # bias corrections
        step = lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - 1) / epochs))
        theta = [t - step * (x / c1) / (math.sqrt(y / c2) + eps) for t, x, y in zip(theta, m, v)]
        if not all(map(math.isfinite, theta)) or max(map(abs, theta[:3])) > 150.0:
            raise OptimizationFailureError(
                f"parameters diverged at epoch {epoch} (|theta| too large)"
            )
        loss, g = _mean_loss_and_grad(theta, pre)
        if history_out is not None:
            history_out.append(loss)
        if not math.isfinite(loss) or loss > bound:
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
        raise DegenerateOracleError("covariance oracle needs at least 3 samples")
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
        raise DegenerateOracleError("confusion oracle needs both matched and mismatched samples")
    eps = MATCH_PROB_EPS
    tpr = min(max(sum(matched) / len(matched), eps), 1.0 - eps)
    fpr = min(max(sum(mismatched) / len(mismatched), eps), 1.0 - eps)
    return tpr, fpr
