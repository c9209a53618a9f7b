"""The run-directory diff of tests/rundiff.py on small CLI runs."""

import math
import shutil

import pytest

from belieffit.cli import main
from belieffit.errors import ConfigurationError
from belieffit.experiments import METRIC_COLUMNS, STEP_COLUMNS
from belieffit.runfiles import read_table, write_csv
from rundiff import diff_runs, main as rundiff_main, relative_deviation


def experiment(out, seed):
    assert main(["experiment", "assembly", "--trials", "2", "--seed", str(seed),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """An `experiment assembly` run at seeds 1 and 2, and a small `train`."""
    root = tmp_path_factory.mktemp("runs")
    train = root / "train"
    assert main(["train", "--generate", "60", "--epochs", "20", "--seed", "0",
                 "--out", str(train)]) == 0
    return experiment(root / "seed1", 1), experiment(root / "seed2", 2), train


def test_a_run_against_itself_reports_no_difference(runs, tmp_path, capsys):
    for run in runs:
        copy = shutil.copytree(run, tmp_path / run.name)
        assert diff_runs(run, run) == []
        assert diff_runs(run, copy) == []
        assert rundiff_main([str(run), str(copy)]) == 0
        assert capsys.readouterr().out.endswith("no difference\n")


def _rows(path, columns):
    return read_table(path, columns, path.stem, lambda rows: rows)


@pytest.mark.parametrize("file, columns, column, row", [
    ("steps.csv", STEP_COLUMNS, "mu_x", 7),
    ("metrics.csv", METRIC_COLUMNS, "value", 3),
    ("loss.csv", ("epoch", "mean_nll"), "mean_nll", -1),
])
def test_a_one_ulp_change_reports_exactly_that_deviation(runs, tmp_path, file, columns,
                                                         column, row):
    run = runs[2] if file == "loss.csv" else runs[0]
    copy = shutil.copytree(run, tmp_path / "copy")
    rows = _rows(copy / file, columns)
    cells = rows[row]
    j = columns.index(column)
    old = float(cells[j])
    new = math.nextafter(old, math.inf)
    cells[j] = repr(new)
    write_csv(copy / file, columns, rows)

    lines = diff_runs(run, copy)
    assert len(lines) == 1, lines
    deviation = relative_deviation(old, new)
    assert 0.0 < deviation <= 2.0 ** -52
    if file == "steps.csv":
        key = (cells[0], cells[1], int(cells[2]), int(cells[3]), int(cells[5]))
        assert lines == [f"steps.csv: mu_x largest relative deviation {deviation!r} at {key}"]
    elif file == "metrics.csv":
        key = (cells[0], cells[1], int(cells[2]), int(cells[3]), cells[4])
        assert lines[0].startswith(f"metrics.csv: {key} {old!r} -> {new!r} ")
    else:
        assert lines == [f"loss.csv: last mean_nll {old!r} -> {new!r} "
                         f"(relative deviation {deviation!r})"]
    assert rundiff_main([str(run), str(copy)]) == 1


def test_two_seeds_report_their_flipped_outcomes(runs):
    seed1, seed2 = runs[:2]
    a, b = ({(r[0], r[1], int(r[2]), int(r[3]), int(r[5])): r
             for r in _rows(run / "steps.csv", STEP_COLUMNS)} for run in (seed1, seed2))
    shared = sorted(a.keys() & b.keys())
    lines = diff_runs(seed1, seed2)
    flipped = 0
    for column in ("beta", "chosen_hole", "status"):
        j = STEP_COLUMNS.index(column)
        moved = [k for k in shared if a[k][j] != b[k][j]]
        flipped += len(moved)
        expected = [f"steps.csv: {column} flipped in {len(moved)} of {len(shared)} shared rows, "
                    f"first {moved[0]}"] if moved else []
        assert [x for x in lines if x.startswith(f"steps.csv: {column} ")] == expected
    assert flipped > 0
    only = [f"steps.csv: {len(keys)} rows only in {side}, first {min(keys)}"
            for side, keys in (("a", a.keys() - b.keys()), ("b", b.keys() - a.keys())) if keys]
    assert [x for x in lines if " rows only in " in x and x.startswith("steps")] == only
    assert any("standard errors" in x for x in lines)


@pytest.mark.parametrize("file", ["steps.csv", "metrics.csv"])
def test_a_repeated_row_is_rejected_not_collapsed(runs, tmp_path, capsys, file):
    """Rows are matched by key, so a row written twice would diff as no
    difference; the CLI's validator rejects it first, on either side."""
    run = runs[0]
    copy = shutil.copytree(run, tmp_path / "copy")
    lines = (copy / file).read_bytes().splitlines(keepends=True)
    (copy / file).write_bytes(b"".join([*lines, lines[-1]]))
    for pair in ((run, copy), (copy, run)):
        with pytest.raises(ConfigurationError, match="out of order or repeated"):
            diff_runs(*pair)
        assert rundiff_main([str(p) for p in pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rows out of order or repeated in ") and str(copy) in err
