"""A readable diff of two run directories, for outputs that a change moves.

`diff_runs(a, b)` compares what `experiment` and `train` write into their
`--out` directories and returns one report line per difference found; no
line means that the runs agree.  Every CSV is read through `read_table` and
`learned_params.json` through `config.load_params`, and each side's
`steps.csv` and `metrics.csv` must first pass the CLI's validators
(`validate_steps_csv`, `validate_metrics_csv`): rows are matched by key, and
a repeated or out-of-order row that keying would hide fails the diff instead.

- `steps.csv`: rows are matched by (experiment, variant, trial, peg_index,
  step).  The report names rows found on one side only, counts the rows
  whose `beta`, `chosen_hole` or `status` flipped, gives each float
  column's largest relative deviation |a - b| / max(|a|, |b|) with the row
  where it lies, and counts the rows whose other cells differ.
- `metrics.csv`: rows are matched by (experiment, variant, trial, step,
  metric).  Each moved value is reported with its move in standard errors
  where a `_std` row gives one: the `_std` row's value over the square
  root of the variant's trial count in `steps.csv`.
- `train`'s files: `learned_params.json` entry by entry, `loss.csv`'s row
  count and last value, and `dataset.csv` as "changed", with its row
  counts, when its bytes differ.

Run as a script on a parent's and a change's outputs:

    PYTHONPATH=src python tests/rundiff.py PARENT_RUN_DIR CHANGE_RUN_DIR

It prints the report, or "no difference", and exits with 1 when the runs
differ, 2 when neither directory holds a run's files or a file is
malformed, its rows repeated or out of order.
"""

import math
import sys
from collections import Counter
from pathlib import Path

from belieffit import config as cfg
from belieffit.cli import validate_metrics_csv, validate_steps_csv
from belieffit.errors import BeliefFitError
from belieffit.experiments import METRIC_COLUMNS, STEP_COLUMNS
from belieffit.runfiles import read_table
from belieffit.training import DATASET_COLUMNS

STEP_KEY = ("experiment", "variant", "trial", "peg_index", "step")
STEP_FLIPS = ("beta", "chosen_hole", "status")
STEP_FLOATS = ("start_x", "start_y", "mu_x", "mu_y", "cov_xx", "cov_xy", "cov_yy", "xi",
               "pos_error")
STEP_OTHERS = tuple(c for c in STEP_COLUMNS if c not in STEP_KEY + STEP_FLIPS + STEP_FLOATS)
RUN_FILES = ("steps.csv", "metrics.csv", "learned_params.json", "loss.csv", "dataset.csv")


def relative_deviation(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 where a == b."""
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _step_rows(path: Path) -> dict:
    """steps.csv as {key: row}, each row a dict of its cells with the key
    cells as ints where they are numbers and the float cells as tuples of
    floats (`xi` holds one float per type)."""
    def parse(rows):
        out = []
        for cells in rows:
            row = dict(zip(STEP_COLUMNS, cells))
            for column in ("trial", "peg_index", "step"):
                row[column] = int(row[column])
            for column in STEP_FLOATS:
                row[column] = tuple(map(float, row[column].split("|")))
            out.append((tuple(row[c] for c in STEP_KEY), row))
        return out

    return dict(read_table(path, STEP_COLUMNS, "steps", parse))


def _metric_rows(path: Path) -> dict:
    """metrics.csv as {key: (value, seed cell)}."""
    return dict(read_table(path, METRIC_COLUMNS, "metrics", lambda rows: [
        ((e, v, int(trial), int(step), m), (float(value), seed))
        for e, v, trial, step, m, value, seed in rows]))


def _one_sided(name: str, a: dict, b: dict) -> list[str]:
    lines = []
    for side, keys in (("a", a.keys() - b.keys()), ("b", b.keys() - a.keys())):
        if keys:
            lines.append(f"{name}: {len(keys)} rows only in {side}, first {min(keys)}")
    return lines


def diff_steps(a: dict, b: dict) -> list[str]:
    lines = _one_sided("steps.csv", a, b)
    shared = sorted(a.keys() & b.keys())
    for column in STEP_FLIPS + STEP_OTHERS:
        moved = [k for k in shared if a[k][column] != b[k][column]]
        if moved:
            verb = "flipped" if column in STEP_FLIPS else "differs"
            lines.append(f"steps.csv: {column} {verb} in {len(moved)} of {len(shared)} shared "
                         f"rows, first {moved[0]}")
    for column in STEP_FLOATS:
        worst, where = 0.0, None
        for k in shared:
            x, y = a[k][column], b[k][column]
            if len(x) != len(y):
                lines.append(f"steps.csv: {column} has {len(x)} entries in a and {len(y)} "
                             f"in b at {k}")
                continue
            for dev in map(relative_deviation, x, y):
                if dev > worst:
                    worst, where = dev, k
        if where is not None:
            lines.append(f"steps.csv: {column} largest relative deviation {worst!r} at {where}")
    return lines


def diff_metrics(a: dict, b: dict, trials: Counter) -> list[str]:
    """The metric rows' moves; `trials` counts a's trials per (experiment,
    variant), from its steps.csv."""
    lines = _one_sided("metrics.csv", a, b)
    shared = sorted(a.keys() & b.keys())
    seeds = [k for k in shared if a[k][1] != b[k][1]]
    if seeds:
        lines.append(f"metrics.csv: seed differs in {len(seeds)} of {len(shared)} shared rows, "
                     f"first {seeds[0]}")
    for key in shared:
        (x, _), (y, _) = a[key], b[key]
        if x == y:
            continue
        experiment, variant, trial, step, metric = key
        line = f"metrics.csv: {key} {x!r} -> {y!r} ({y - x:+.6g}"
        std = metric.endswith("_mean") and a.get(
            (experiment, variant, trial, step, metric[:-len("_mean")] + "_std"))
        n = trials[experiment, variant]
        if std and std[0] > 0.0 and n:
            line += f"; {(y - x) / (std[0] / math.sqrt(n)):+.3g} standard errors"
        lines.append(line + ")")
    return lines


def _params(path: Path) -> dict:
    models = cfg.load_params(path)
    (c00, c01), (c10, c11) = models.position.cov.tolist()
    return {"position_cov[0][0]": c00, "position_cov[0][1]": c01, "position_cov[1][0]": c10,
            "position_cov[1][1]": c11, "tpr": models.match.tpr, "fpr": models.match.fpr}


def _moved(what: str, x: float, y: float) -> str:
    return f"{what} {x!r} -> {y!r} (relative deviation {relative_deviation(x, y)!r})"


def diff_train(a: Path, b: Path, both: set) -> list[str]:
    """The moves of `train`'s files that are in both `a` and `b`."""
    lines = []
    if "learned_params.json" in both:
        pa, pb = _params(a / "learned_params.json"), _params(b / "learned_params.json")
        lines += [_moved(f"learned_params.json: {name}", pa[name], pb[name])
                  for name in pa if pa[name] != pb[name]]
    if "loss.csv" in both:
        la, lb = (read_table(d / "loss.csv", ("epoch", "mean_nll"), "loss", lambda rows: [
            float(nll) for _, nll in rows]) for d in (a, b))
        if len(la) != len(lb):
            lines.append(f"loss.csv: {len(la)} rows -> {len(lb)} rows")
        if la and lb and la[-1] != lb[-1]:
            lines.append(_moved("loss.csv: last mean_nll", la[-1], lb[-1]))
    if "dataset.csv" in both and (a / "dataset.csv").read_bytes() != (
            b / "dataset.csv").read_bytes():
        na, nb = (len(read_table(d / "dataset.csv", DATASET_COLUMNS, "dataset", lambda rows: rows))
                  for d in (a, b))
        lines.append(f"dataset.csv: changed, {na} rows -> {nb} rows")
    return lines


def diff_runs(a, b) -> list[str]:
    """One line per difference between run directories `a` and `b`."""
    a, b = Path(a), Path(b)
    present = {name: ((a / name).exists(), (b / name).exists()) for name in RUN_FILES}
    if not any(x or y for x, y in present.values()):
        raise FileNotFoundError(f"no run files ({', '.join(RUN_FILES)}) in {a} or {b}")
    lines = [f"{name}: only in {'a' if x else 'b'}" for name, (x, y) in present.items() if x != y]
    both = {name for name, (x, y) in present.items() if x and y}
    for name, validate in (("steps.csv", validate_steps_csv),
                           ("metrics.csv", validate_metrics_csv)):
        for run, found in zip((a, b), present[name]):
            if found:
                validate(run / name)
    trials = Counter()
    if "steps.csv" in both:
        sa = _step_rows(a / "steps.csv")
        lines += diff_steps(sa, _step_rows(b / "steps.csv"))
        trials = Counter(k[:2] for k in {k[:3] for k in sa})
    if "metrics.csv" in both:
        lines += diff_metrics(_metric_rows(a / "metrics.csv"), _metric_rows(b / "metrics.csv"),
                              trials)
    return lines + diff_train(a, b, both)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: rundiff.py RUN_DIR_A RUN_DIR_B", file=sys.stderr)
        return 2
    try:
        lines = diff_runs(*args)
    except (FileNotFoundError, BeliefFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"a = {args[0]}\nb = {args[1]}")
    print("\n".join(lines) if lines else "no difference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
