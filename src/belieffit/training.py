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
import operator
import warnings
from collections.abc import Sequence
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
from .sensors import SensorModel, sense_match, sense_position
from .sim import (SpiralParams, block_size, placement_box, rollout_block, sized_empty,
                  vision_detect, wiggle_rows)

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
        _check_values(values, (peg_type, hole_type), len(probs))
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


def _check_values(v, types, size: int) -> None:
    """Check a record's values: `v` the six floats of its position, mu0 and
    obs, laid out as in `_Row`, finite, and `types` its peg and hole types,
    integers in 1..size.  Python floats keep the checks cheap; NaN and inf
    fail each test."""
    for name, k in (("position", 0), ("mu0", 2), ("obs", 4)):  # the starts of `_Row`'s slices
        if not (math.isfinite(v[k]) and math.isfinite(v[k + 1])):
            raise InvalidInputError(f"{name} must be a finite 2-vector")
    for t in types:
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


class Dataset(Sequence):
    """Records on one packed block: a read-only sequence whose record i is
    the `InteractionRecord` on row i of `rows` (n, 14 + C), laid out as
    `_Row`, made only when it is indexed or iterated.  A slice is the
    dataset on those rows.  `generate_dataset` and `load_dataset` make it
    from rows that passed the record checks; the fit and `save_dataset`
    read the block, and each field name is also the column of that field
    over the records, as `position` (n, 2) or `peg_type` (n,)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        rows.setflags(write=False)
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Dataset(self._rows[i])
        return _record(self._rows[operator.index(i)])

    def __iter__(self):
        return map(_record, self._rows)

    def __reduce__(self):  # pickle and copy: the dataset on its block again
        return Dataset, (self._rows,)

    position = property(lambda self: self._rows[:, _Row.p])
    mu0 = property(lambda self: self._rows[:, _Row.mu0])
    obs = property(lambda self: self._rows[:, _Row.obs])
    xi0 = property(lambda self: self._rows[:, _Row.xi0])
    sigma0 = property(lambda self: self._rows[:, _Row.sigma0].reshape(-1, 2, 2))
    peg_type = property(lambda self: self._rows[:, _Row.peg].astype(int))
    hole_type = property(lambda self: self._rows[:, _Row.hole].astype(int))
    o_match = property(lambda self: self._rows[:, _Row.o_match] == 1.0)
    beta = property(lambda self: self._rows[:, _Row.beta] == 1.0)


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
) -> Dataset:
    """Balanced interaction dataset from exploration rollouts, as a
    `Dataset` on one packed block.

    The first ceil(n/2) records are matched pairs, the rest mismatched; each
    record holds one reading of each virtual sensor plus the outcome of a
    `rollout_random_actions`.  A record takes its draws in the order that
    it would take them alone, with draws of one kind that follow each other
    merged into one call; the per-record loop makes only those draws,
    copying the wiggle's x and y rows and the sensor's normals out of fixed
    views of the draw buffer.  Then one array pass per block hands its
    draws to `vision_detect`, `rollout_block`, `sense_position` and
    `sense_match` and writes their results into the block's rows.  The
    packed rows are allocated before the first draw, so a size the host or
    numpy cannot hold raises MemoryError at once.  Every value comes from
    the checked config and the draws, so the rows pass the record checks by
    construction; only the readings are checked, since a sensor can
    overflow.
    """
    if n_interactions < 2:
        raise InvalidInputError("need at least two interactions for class balance")
    n_matched = (n_interactions + 1) // 2
    lo, hi = placement_box(config, spiral)
    n_types = config.n_types
    horizon = config.horizon_low
    integers, random, standard_normal = rng.integers, rng.random, rng.standard_normal
    normals = np.empty(6 * horizon + 2)
    wiggle, tail = wiggle_rows(normals, horizon), normals[6 * horizon:]
    rows = sized_empty((n_interactions, _Row.xi0.start + n_types))
    for first in range(0, n_interactions, block_size(horizon)):
        n = min(block_size(horizon), n_interactions - first)
        hole_types, peg_types, verdicts = [0] * n, [0] * n, [0.0] * n
        # per record: the hole position, the detector offset, the type
        # weights and the alignment draw; the normal block and the position
        # sensor's normals; the match sensor's uniform
        uniforms = np.empty((n, 5 + n_types))
        normals_xy = np.empty((n, 2, horizon))
        sensor_normals = np.empty((n, 2))
        for k, (u, xy, s) in enumerate(zip(uniforms, normals_xy, sensor_normals)):
            hole_type = peg_type = int(integers(1, n_types + 1))
            if first + k >= n_matched:  # one of the other types, in order
                peg_type = int(integers(0, n_types - 1)) + 1
                peg_type += peg_type >= hole_type
            hole_types[k], peg_types[k] = hole_type, peg_type
            random(out=u)
            standard_normal(out=normals)
            xy[...] = wiggle
            s[...] = tail
            verdicts[k] = random()

        # rng.uniform(low, high) computes low + (high - low) * u
        p = lo + (hi - lo) * uniforms[:, 0:2]
        mu0 = vision_detect(p, config.detector_error_bound, uniforms[:, 2:4])
        aligned = uniforms[:, 4 + n_types] < config.alignment_rate
        matched = np.array(peg_types) == np.array(hole_types)
        success, closest, *_ = rollout_block(mu0, p, normals_xy, aligned, matched, spiral,
                                             config, sweep=False)
        innovation = sense_position(closest, p, sensor_model, sensor_normals) - mu0
        if not np.isfinite(innovation).all():
            raise InvalidInputError("innovation must be a finite 2-vector")
        block = rows[first:first + n]
        block[:, _Row.p] = p
        block[:, _Row.mu0] = mu0
        block[:, _Row.obs] = innovation + mu0
        block[:, _Row.peg] = peg_types
        block[:, _Row.hole] = hole_types
        block[:, _Row.beta] = success
        block[:, _Row.o_match] = sense_match(matched, sensor_model, np.array(verdicts))
        block[:, _Row.xi0] = normalized_rows(uniforms[:, 4:4 + n_types])
    rows[:, _Row.sigma0] = (config.sigma_init, 0.0, 0.0, config.sigma_init)
    return Dataset(rows)


def save_dataset(records, path) -> None:
    """Write a `Dataset` or a list of records as CSV, one line per record in
    `DATASET_COLUMNS`; a dataset's columns are read from its block."""
    # each row up to its type prior, which may differ in length; p, mu0 and obs lead
    if isinstance(records, Dataset):
        head = records._rows[:, :_Row.xi0.start]
    else:
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
    share its text with the zero of the other sign, since 0.0 == -0.0.  A
    column of numbers in which no value repeats, as a dataset's positions,
    is formatted cell by cell, which skips the lookups.
    """
    kinds = set(map(type, column))
    if kinds == {int} or kinds == {float}:
        distinct = dict.fromkeys(column)
        if len(distinct) == len(column):
            return list(map(repr, column))
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
    """The package's CSV reader: `parse` of each block of rows of a CSV file
    or pipe whose header must be `columns`, joined in file order.

    The file is read once, `CSV_BLOCK_ROWS` rows at a time; `parse` takes
    a list of rows, each a list of cells, and returns a list.  A wrong
    header, a row of the wrong length, or a row that `parse` rejects with
    ValueError (InvalidInputError among them) raises InvalidInputError
    naming the file and the physical line that row ends on: a block that
    fails, or that a csv.Error or a decode error cuts short, is parsed
    again a row at a time, so the error names its first bad line.
    """
    width, out, line = len(columns), [], None  # `line`: that of a row parsed alone
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if tuple(header) != columns:
                raise InvalidInputError(f"unexpected {what} columns: {header}")
            while True:
                rows, lines, cut = [], [], None
                try:
                    for row in islice(reader, CSV_BLOCK_ROWS):
                        rows.append(row)
                        lines.append(reader.line_num)
                except (csv.Error, UnicodeDecodeError) as exc:
                    cut = exc
                if not rows and cut is None:
                    return out
                if cut is None and set(map(len, rows)) == {width}:
                    try:
                        out += parse(rows)
                        continue
                    except ValueError:
                        pass
                for line, row in zip(lines, rows):
                    if len(row) != width:
                        raise InvalidInputError(f"expected {width} cells, got {len(row)}")
                    out += parse([row])
                if cut is not None:
                    line = reader.line_num  # where the read stopped
                    raise cut
        except UnicodeDecodeError as exc:  # read ahead in chunks: no line to name
            raise InvalidInputError(f"cannot decode {path}: {exc}") from None
        except (ValueError, csv.Error) as exc:
            raise InvalidInputError(f"{path} line {line or reader.line_num}: {exc}") from None


def load_dataset(path, config: EnvConfig) -> Dataset:
    """Load a dataset CSV, from a file or a pipe, as a `Dataset` on one
    packed block; the initial beliefs, which the CSV does not store, are
    the configured isotropic position prior and a uniform type prior.  The
    prior is checked once; `read_table` reads the lines, and
    `_dataset_rows` converts each block of them.
    """
    size = config.n_types
    entries = (config.sigma_init * np.eye(2)).tolist()
    probs = [1.0 / size] * size
    _check_prior(entries, probs)
    blocks = read_table(path, DATASET_COLUMNS, "dataset",
                        lambda lines: [_dataset_rows(lines, size)])
    rows = np.concatenate(blocks) if blocks else np.empty((0, _Row.xi0.start + size))
    (a, b), (c, d) = entries
    rows[:, _Row.sigma0] = (a, b, c, d)
    rows[:, _Row.xi0] = probs
    return Dataset(rows)


def _dataset_rows(lines: list, size: int) -> np.ndarray:
    """The packed rows of dataset lines given as lists of cells, up to the
    prior columns, which are left for the caller to fill.

    Each column is converted as a whole, in the order of a line's cells
    except that `beta` comes before `o_match`; then `_check_values` checks
    each row.  So on one line, the error raised is that of the first cell
    or check that fails, as a line-at-a-time parse would raise it."""
    columns = list(zip(*lines))
    peg, hole = list(map(int, columns[0])), list(map(int, columns[1]))
    vectors = [list(map(float, column)) for column in columns[2:8]]
    beta, match = list(map(_flag, columns[9])), list(map(_flag, columns[8]))
    for values, types in zip(zip(*vectors), zip(peg, hole)):
        _check_values(values, types, size)
    rows = np.empty((len(lines), _Row.xi0.start + size))
    rows[:, :6] = np.array(vectors).T  # p, mu0 and obs lead
    rows[:, _Row.peg] = peg
    rows[:, _Row.hole] = hole
    rows[:, _Row.beta] = beta
    rows[:, _Row.o_match] = match
    return rows


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


def _gathered_rows(records: list) -> np.ndarray:
    """The packed rows of a list of records gathered into one block."""
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
    return rows


def _precompute(records, alpha: float) -> _Precomputed:
    """The batch's theta-free terms, read from the block of a `Dataset` or
    from the rows of a list of records gathered into one."""
    if not records:
        raise InvalidInputError("batch must be non-empty")
    rows = records._rows if isinstance(records, Dataset) else _gathered_rows(records)
    n = len(rows)

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
    del rows, xi0  # the rows are split: a gathered block is freed before sorting
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
    and match's in theta[3:5], zero elsewhere.

    The pass is straight-line code on Python floats, each 2x2 product
    written out entry by entry as x00 y00 + x01 y10, and each 2x2 sum of k
    terms as ((0.0 + x) + y) + ..., so a -0.0 entry sums as `sum()` sums
    it.  numpy runs only where it rounds otherwise: R's 2x2 product (BLAS
    fuses its multiply-adds), the logistic's exp, the logs and the products
    with the type arrays."""
    # position, per group: one Kalman correction with A = (R + S0)^-1,
    # K = S0 A, Sigma1 = K R = M^-1 and d = (I - K) e + K f.  Summed
    # over the group, Lp = count/2 ln|Sigma1| + 1/2 tr(M D) with
    # D = sum d d^T, and
    # dLp = tr(G dR) with G = count/2 P M P^T + P M C A^T - 1/2 P M D M P^T,
    # P = A S0 and C = sum d h^T; dR is symmetric, so only G00, G01 + G10
    # and G11 matter
    ea, b, ec = math.exp(theta[0]), theta[1], math.exp(theta[2])
    chol = np.array([[ea, 0.0], [b, ec]])
    r = r00, r01, r10, r11 = (chol @ chol.T).ravel().tolist()
    loss_pos = g00 = g11 = gx = 0.0
    for s0, count, see, sef, sff, seh, sfh in pre.groups:
        a, k, sigma1 = kalman_correction(s0, r)
        m, det1 = _inv(sigma1)
        a00, a01, a10, a11 = a
        k00, k01, k10, k11 = k
        m00, m01, m10, m11 = m
        # U = R A = I - K
        u00, u01 = r00 * a00 + r01 * a10, r00 * a01 + r01 * a11
        u10, u11 = r10 * a00 + r11 * a10, r10 * a01 + r11 * a11
        # D = U See U^T + X + X^T + K Sff K^T with X = U Sef K^T
        x00, x01, x10, x11 = see
        w00, w01 = u00 * x00 + u01 * x10, u00 * x01 + u01 * x11
        w10, w11 = u10 * x00 + u11 * x10, u10 * x01 + u11 * x11
        z00, z01 = w00 * u00 + w01 * u01, w00 * u10 + w01 * u11
        z10, z11 = w10 * u00 + w11 * u01, w10 * u10 + w11 * u11
        x00, x01, x10, x11 = sef
        w00, w01 = u00 * x00 + u01 * x10, u00 * x01 + u01 * x11
        w10, w11 = u10 * x00 + u11 * x10, u10 * x01 + u11 * x11
        c00, c01 = w00 * k00 + w01 * k01, w00 * k10 + w01 * k11
        c10, c11 = w10 * k00 + w11 * k01, w10 * k10 + w11 * k11
        x00, x01, x10, x11 = sff
        w00, w01 = k00 * x00 + k01 * x10, k00 * x01 + k01 * x11
        w10, w11 = k10 * x00 + k11 * x10, k10 * x01 + k11 * x11
        d00 = 0.0 + z00 + c00 + c00 + (w00 * k00 + w01 * k01)
        d01 = 0.0 + z01 + c01 + c10 + (w00 * k10 + w01 * k11)
        d10 = 0.0 + z10 + c10 + c01 + (w10 * k00 + w11 * k01)
        d11 = 0.0 + z11 + c11 + c11 + (w10 * k10 + w11 * k11)
        # C = U Seh + K Sfh
        x00, x01, x10, x11 = seh
        y00, y01, y10, y11 = sfh
        h00 = 0.0 + (u00 * x00 + u01 * x10) + (k00 * y00 + k01 * y10)
        h01 = 0.0 + (u00 * x01 + u01 * x11) + (k00 * y01 + k01 * y11)
        h10 = 0.0 + (u10 * x00 + u11 * x10) + (k10 * y00 + k11 * y10)
        h11 = 0.0 + (u10 * x01 + u11 * x11) + (k10 * y01 + k11 * y11)
        # P = A S0 and PM = P M
        x00, x01, x10, x11 = s0
        p00, p01 = a00 * x00 + a01 * x10, a00 * x01 + a01 * x11
        p10, p11 = a10 * x00 + a11 * x10, a10 * x01 + a11 * x11
        q00, q01 = p00 * m00 + p01 * m10, p00 * m01 + p01 * m11
        q10, q11 = p10 * m00 + p11 * m10, p10 * m01 + p11 * m11
        # G = count/2 PM P^T + (PM C) A^T - 1/2 (PM D) PM^T
        half = 0.5 * count
        w00, w01 = q00 * h00 + q01 * h10, q00 * h01 + q01 * h11
        w10, w11 = q10 * h00 + q11 * h10, q10 * h01 + q11 * h11
        y00, y01 = q00 * d00 + q01 * d10, q00 * d01 + q01 * d11
        y10, y11 = q10 * d00 + q11 * d10, q10 * d01 + q11 * d11
        g00 += (half * (q00 * p00 + q01 * p01) + (w00 * a00 + w01 * a01)
                - 0.5 * (y00 * q00 + y01 * q01))
        g11 += (half * (q10 * p10 + q11 * p11) + (w10 * a10 + w11 * a11)
                - 0.5 * (y10 * q10 + y11 * q11))
        gx += ((half * (q00 * p10 + q01 * p11) + (w00 * a10 + w01 * a11)
                - 0.5 * (y00 * q10 + y01 * q11))
               + (half * (q10 * p00 + q11 * p01) + (w10 * a00 + w11 * a01)
                  - 0.5 * (y10 * q00 + y11 * q01)))
        loss_pos += half * math.log(det1) + 0.5 * (m00 * d00 + m01 * d10 + m10 * d01 + m11 * d11)
    g_pos = (2.0 * ea * ea * g00 + ea * b * gx, ea * gx + 2.0 * b * g11, 2.0 * ec * ec * g11)

    # type, per type column, and match, per cell.  A record's dLc/dh_k is
    # tx_k / eta - [k = c] / h_c above the floor and 0 below it, and equal
    # columns give equal terms: summed, the first part is
    # tx @ (weight active / eta), the second follows from each cell's count
    # of active records.  The cells' likelihoods are h = (1 - tpr, tpr,
    # 1 - fpr, fpr); d ln h / d(its rate) is -1/h on (0, 2) and 1/h on
    # (1, 3), and the cells (0, 1) belong to tpr and (2, 3) to fpr
    scale = 1.0 - 2.0 * MATCH_PROB_EPS
    st = 1.0 / (1.0 + float(np.exp(-theta[3])))
    sf = 1.0 / (1.0 + float(np.exp(-theta[4])))
    tpr, fpr = MATCH_PROB_EPS + scale * st, MATCH_PROB_EPS + scale * sf
    ntpr, nfpr = 1.0 - tpr, 1.0 - fpr
    h = np.array([ntpr, tpr, nfpr, fpr])
    eta = h @ pre.tx
    xi1_true = h @ pre.tx_true
    xi1_true /= eta
    active = (xi1_true >= LOG_FLOOR) * pre.weight
    loss_type = -float(pre.weight @ np.log(np.maximum(xi1_true, LOG_FLOOR)))
    n0, n1, n2, n3 = pre.count
    l0, l1, l2, l3 = np.log(np.maximum(h, LOG_FLOOR)).tolist()
    loss_match = -(0.0 + n0 * l0 + n1 * l1 + n2 * l2 + n3 * l3)
    dl0, dl1, dl2, dl3 = -1.0 / ntpr, 1.0 / tpr, -1.0 / nfpr, 1.0 / fpr
    t0, t1, t2, t3 = (pre.tx @ (active / eta)).tolist()
    c0, c1, c2, c3 = (pre.cells @ active).tolist()
    chain_t, chain_f = scale * st * (1.0 - st), scale * sf * (1.0 - sf)
    g_type = (chain_t * ((-1.0 * t0 - c0 * dl0) + (t1 - c1 * dl1)),
              chain_f * ((-1.0 * t2 - c2 * dl2) + (t3 - c3 * dl3)))
    g_match = (chain_t * (-n0 * dl0 + -n1 * dl1), chain_f * (-n2 * dl2 + -n3 * dl3))
    return (loss_pos, loss_type, loss_match), (g_pos, g_type, g_match)


def _mean_loss_and_grad(theta: list, pre: _Precomputed) -> tuple[float, list]:
    """Batch-mean loss, every term summed, and its gradient as 5 floats:
    each term's sum divided by the batch size, then the terms added in
    their (position, type, match) order."""
    n = pre.n
    (loss_pos, loss_type, loss_match), (g_pos, g_type, g_match) = _value_and_grad(theta, pre)
    return (loss_pos / n + loss_type / n + loss_match / n,
            [x / n for x in g_pos] + [t / n + m / n for t, m in zip(g_type, g_match)])


def batch_nll(params: LearnedParams, records, alpha: float) -> float:
    """Mean one-step filtering NLL of the records, a `Dataset` or a list,
    under `params`."""
    return _mean_loss_and_grad(params.theta.tolist(), _precompute(records, alpha))[0]


def grad_nll(params: LearnedParams, records, alpha: float) -> np.ndarray:
    """Analytic gradient of the mean NLL w.r.t. theta."""
    return np.array(_mean_loss_and_grad(params.theta.tolist(), _precompute(records, alpha))[1])


def check_fit_settings(lr: float, epochs: int) -> None:
    """`fit_parameters`' rule on its step size and epoch count."""
    if epochs < 1:
        raise InvalidInputError("need at least one epoch")
    if not 0.0 < lr < math.inf:
        raise InvalidInputError(f"learning rate must be positive and finite, got {lr}")


def fit_parameters(
    records,
    init: LearnedParams | None,
    lr: float = 0.01,
    epochs: int = 2000,
    alpha: float = 0.34,
    history_out: list | None = None,
) -> LearnedParams:
    """Full-batch Adam with cosine-annealed step size on the mean NLL of
    `records`, a `Dataset` or a list of records.

    Annealing matters here: Adam normalizes per-coordinate step sizes, and
    the Cholesky off-diagonal lives on a much smaller natural scale than the
    log-diagonal coordinates, so a constant step keeps it oscillating instead
    of settling.  `init=None` starts from a neutral guess (isotropic 1 cm^2
    covariance, mildly informative confusion rates).  Divergence past 10x the
    initial loss aborts with an error.  Each epoch makes one pass over the
    batch: the loss at the new parameters, recorded in `history_out`, comes
    with the gradient for the next step.  A step is one loop over the 5
    coordinates that updates the moment and parameter lists of Python
    floats in place, in the order of operations of Adam on numpy 5-vectors,
    so every bit is theirs; `init.theta` is copied, not updated.
    """
    check_fit_settings(lr, epochs)
    pre = _precompute(records, alpha)
    if init is None:
        init = LearnedParams.from_values(1e-4 * np.eye(2), tpr=0.75, fpr=0.25)
    theta = init.theta.tolist()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rest1, rest2 = 1 - beta1, 1 - beta2
    m = [0.0] * 5
    v = [0.0] * 5
    initial_loss, g = _mean_loss_and_grad(theta, pre)
    bound = 10.0 * max(abs(initial_loss), 1.0)
    for epoch in range(1, epochs + 1):
        c1, c2 = 1 - beta1 ** epoch, 1 - beta2 ** epoch  # bias corrections
        step = lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - 1) / epochs))
        for i, y in enumerate(g):
            mi = m[i] = beta1 * m[i] + rest1 * y
            vi = v[i] = beta2 * v[i] + rest2 * y * y
            theta[i] -= step * (mi / c1) / (math.sqrt(vi / c2) + eps)
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
