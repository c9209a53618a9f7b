import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from belieffit import cli
from belieffit.cli import build_parser, main, validate_metrics_csv, validate_steps_csv
from belieffit.experiments import DEFAULT_TRIALS, DEFAULT_VARIANTS, ExperimentSpec
from belieffit.policy import PolicyVariant
from belieffit.runfiles import CSV_BLOCK_ROWS, read_table, write_csv, write_json
from belieffit.training import DATASET_COLUMNS
from belieffit import EnvConfig, SensorModel, SpiralParams
from belieffit.config import (
    _block_of,
    default_config,
    env_from,
    load_config,
    sensors_from,
    spiral_from,
)
from belieffit.errors import ConfigurationError, InvalidInputError


def run_cli(*argv):
    return main([str(a) for a in argv])


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.fixture()
def small_config(tmp_path):
    doc = default_config()
    path = tmp_path / "config.json"
    write_json(doc, path)
    return path


class TestConfig:
    def test_defaults_load_without_file(self):
        doc = load_config(None)
        assert doc["env"]["n_holes"] == 5

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot read config file "
                           "/nonexistent/config.json: .*No such file or directory"):
            load_config("/nonexistent/config.json")

    def test_override_merge(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {"n_holes": 2}}))
        doc = load_config(path)
        assert doc["env"]["n_holes"] == 2
        assert doc["env"]["n_types"] == 3  # untouched default

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"env": {"n_hole": 3}}, "'env.n_hole'; did you mean 'env.n_holes'"),
            ({"env": {"clearance": 0.001}}, "'env.clearance'"),
            ({"spirals": {}}, "'spirals'; did you mean 'spiral'"),
            # deleted keys: trained parameters come only from --params, the
            # seed only from --seed, and the press depth changed no output
            ({"learned": {"tpr": 0.85}}, "key 'learned'"),
            ({"env": {"rng_seed": 0}}, "key 'env.rng_seed'"),
            ({"spiral": {"delta_z": 0.004}}, "key 'spiral.delta_z'"),
        ],
    )
    def test_unknown_key_is_exit_2(self, tmp_path, capsys, doc, named):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="unknown config key"):
            load_config(path)
        code = run_cli(
            "experiment", "assembly", "--config", path, "--trials", 1,
            "--out", tmp_path / "r",
        )
        assert code == 2
        assert named in assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "read, name, cls",
        [(env_from, "env", EnvConfig), (spiral_from, "spiral", SpiralParams),
         (sensors_from, "sensors", SensorModel)],
        ids=["env", "spiral", "sensors"],
    )
    def test_block_reads_back_as_its_class(self, read, name, cls):
        def assert_same_fields(got, want):
            assert type(got) is type(want)
            for f in dataclasses.fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if dataclasses.is_dataclass(b):
                    assert_same_fields(a, b)
                else:
                    assert type(a) is type(b) and np.array_equal(a, b), f.name

        assert_same_fields(read({name: _block_of(cls())}), cls())

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
    @pytest.mark.parametrize(
        "block, template",
        [
            ("env", '{"env": {"capture_radius": %s}}'),
            ("env", '{"env": {"n_holes": %s}}'),
            ("env", '{"env": {"workspace_max": [%s, 0.25]}}'),
            ("spiral", '{"spiral": {"r_max": %s}}'),
            ("sensors", '{"sensors": {"position": {"informative_radius": %s}}}'),
            ("sensors", '{"sensors": {"position": {"cov": [[%s, 0], [0, 6.4e-5]]}}}'),
        ],
    )
    def test_non_finite_value_is_exit_2(self, tmp_path, capsys, block, template, value):
        # json reads NaN and Infinity as floats, and 1e999 overflows to inf
        path = tmp_path / "c.json"
        path.write_text(template % value)
        code = run_cli(
            "experiment", "matching_insertion", "--config", path, "--trials", 1,
            "--out", tmp_path / "r",
        )
        assert code == 2
        assert block in assert_one_line_error(capsys)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), "5", True])
    def test_integer_key_rejects_other_types(self, tmp_path, capsys, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {"horizon_low": value}}))
        assert run_cli("calibrate", "--config", path, "--trials", 2) == 2
        assert "horizon_low must be an integer" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ["0.3", " 0.3 ", True, False, None])
    @pytest.mark.parametrize(
        "key, template",
        [
            ("alpha", '{"env": {"alpha": %s}}'),
            ("workspace_max", '{"env": {"workspace_max": [%s, 0.25]}}'),
            ("cov", '{"sensors": {"position": {"cov": [[%s, 0], [0, 6.4e-5]]}}}'),
        ],
        ids=["float", "tuple_leaf", "array_leaf"],
    )
    def test_float_key_rejects_other_types(self, tmp_path, capsys, key, template, value):
        # a string or a bool is not read as the number it spells
        path = tmp_path / "c.json"
        path.write_text(template % json.dumps(value))
        code = run_cli(
            "experiment", "matching_insertion", "--config", path, "--trials", 1,
            "--out", tmp_path / "r",
        )
        assert code == 2
        assert f"{key} must be a number, got {value!r}" in assert_one_line_error(capsys)
        assert not (tmp_path / "r").exists()

    def test_float_key_takes_an_integer(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {"alpha": 1}}))
        alpha = env_from(load_config(path)).alpha
        assert type(alpha) is float and alpha == 1.0

    def test_integer_key_takes_a_whole_float(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {"horizon_low": 100.0}}))
        assert run_cli("calibrate", "--config", path, "--trials", 40) == 0
        assert "measured alpha" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["horizon_low", "horizon_high"])
    @pytest.mark.parametrize("value", [10**10, 10**300, 1e300])
    def test_huge_horizon_is_exit_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {key: value}}))
        assert run_cli("calibrate", "--config", path, "--trials", 2) == 2
        assert "horizons must lie in" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("key", ["n_types", "n_holes"])
    @pytest.mark.parametrize(
        "argv",
        [("experiment", "assembly", "--trials", 1), ("train", "--generate", 4, "--epochs", 2)],
        ids=["experiment", "train"],
    )
    def test_huge_count_is_exit_2(self, tmp_path, capsys, key, argv):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {key: 10**10}}))
        assert run_cli(*argv, "--config", path, "--out", tmp_path / "o") == 2
        assert f"{key} must lie in" in assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"spiral": {"sigma_wiggle": 1e308}}, "1e+100"),
            ({"env": {"workspace_max": [1e300, 1e300]}}, "1e+100"),
            # the sensor's uninformative covariance is scale**2 * cov
            ({"sensors": {"position": {"cov": [[1e308, 0], [0, 1e308]]}}}, "scale squared"),
            ({"sensors": {"position": {"uninformative_scale": 1e200}}}, "scale squared"),
        ],
        ids=["sigma_wiggle", "workspace_max", "sensor_cov", "uninformative_scale"],
    )
    def test_overflowing_length_is_exit_2_without_warnings(self, tmp_path, capsys, doc, named):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--config", path, "--generate", 4, "--epochs", 2,
                           "--out", tmp_path / "o")
        assert code == 2 and not caught
        assert named in assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ["ab", {"a": 1}, 0.25], ids=["string", "object", "number"])
    def test_tuple_key_must_be_a_list(self, tmp_path, capsys, value):
        # a string would be read a character at a time, a dict by its keys
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {"workspace_max": value}}))
        assert run_cli("calibrate", "--config", path, "--trials", 2) == 2
        assert assert_one_line_error(capsys) == (
            f"error: env: workspace_max must be a list of numbers, got {value!r}\n")

    def test_wrong_typed_value_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {"n_holes": "five"}}))
        code = run_cli("experiment", "assembly", "--config", path, "--out", tmp_path / "r")
        assert code == 2
        assert "env" in assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ("experiment", "assembly", "--trials", 1),
        ("train", "--generate", 6, "--epochs", 2),
        ("calibrate", "--trials", 4),
    ],
    ids=["experiment", "train", "calibrate"],
)
def test_negative_seed_is_exit_2(small_config, tmp_path, capsys, argv):
    out = ("--out", tmp_path / "o") if argv[0] != "calibrate" else ()
    code = run_cli(*argv, "--config", small_config, "--seed", -1, *out)
    assert code == 2
    assert "seed must be non-negative" in assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv, named",
    [
        (("train", "--dataset", "{dir}", "--epochs", 2), "{dir}"),
        (("replay", "--results", "{results}", "--trial", 0), "{results}/steps.csv"),
        (("calibrate", "--trials", 20, "--target-alpha", 0.2, "--out", "{dir}"), "{dir}"),
        (("experiment", "position_estimation", "--trials", 1, "--out", "{file}"), "{file}"),
        (("train", "--generate", 6, "--epochs", 2, "--out", "{file}"), "{file}"),
    ],
    ids=["train_dataset_dir", "replay_steps_dir", "calibrate_out_dir", "experiment_out_file",
         "train_out_file"],
)
def test_unusable_path_is_exit_2_naming_it(small_config, tmp_path, capsys, argv, named):
    # a path that exists but is the wrong kind of file: a read or write of
    # it fails in the OS, and the CLI names the path instead of a traceback
    paths = {"dir": tmp_path / "a_dir", "file": tmp_path / "a_file",
             "results": tmp_path / "res"}
    paths["dir"].mkdir()
    paths["file"].write_text("kept\n")
    (paths["results"] / "steps.csv").mkdir(parents=True)
    config = ("--config", small_config) if argv[0] != "replay" else ()
    assert run_cli(*(str(a).format(**paths) for a in argv), *config) == 2
    assert named.format(**paths) in assert_one_line_error(capsys)
    assert paths["file"].read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("train", "--generate", 20), "file"),
        (("experiment", "assembly", "--trials", 200), "file"),
        (("calibrate", "--trials", 40), "dir"),
        (("train", "--generate", 20, "--epochs", 2), "file/sub"),
        (("calibrate", "--trials", 40), "file/cal.json"),
        (("calibrate", "--trials", 40), "nodir/cal.json"),
        (("train", "--generate", 20, "--epochs", 2), ""),
        (("experiment", "assembly", "--trials", 2), ""),
        (("calibrate", "--trials", 40), ""),
    ],
    ids=["train_out_file", "experiment_out_file", "calibrate_out_dir", "train_out_under_file",
         "calibrate_out_under_file", "calibrate_out_in_missing_dir", "train_out_empty",
         "experiment_out_empty", "calibrate_out_empty"],
)
def test_wrong_kind_of_out_fails_before_any_work(small_config, tmp_path, capsys, monkeypatch,
                                                 argv, kind):
    # a run directory that is a file or under one, a config file that is a
    # directory, under a file or in a missing directory, or an empty path,
    # exits 2 before the command prints, computes or writes anything
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    monkeypatch.chdir(tmp_path)  # where a run directory named "" would land
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / kind if kind else ""
    assert run_cli(*argv, "--config", small_config, "--out", out) == 2
    captured = capsys.readouterr()
    reason = {"dir": "Is a directory", "nodir/cal.json": "No such file or directory"}.get(
        kind, "Not a directory")
    error = f"error: {out}: {reason}\n" if kind else "error: --out must name a path, got ''\n"
    assert captured.out == "" and captured.err == error
    assert list((tmp_path / "dir").iterdir()) == []
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize(
    "flags, reason",
    [(("--epochs", 0), "need at least one epoch"),
     (("--lr", -1), "learning rate must be positive and finite, got -1.0")],
    ids=["epochs", "lr"],
)
def test_bad_fit_settings_fail_before_the_dataset(small_config, tmp_path, capsys, flags, reason):
    # `fit_parameters`' own rule, applied before a large dataset is generated
    with mock.patch.object(cli, "generate_dataset", wraps=cli.generate_dataset) as generate:
        code = run_cli("train", "--config", small_config, "--generate", 200_000, *flags,
                       "--out", tmp_path / "o")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == f"error: {reason}\n"
    generate.assert_not_called()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (("experiment", "assembly", "--trials", "abc"),
         "argument --trials: invalid int value: 'abc'"),
        (("experiment", "nokind"), "argument kind: invalid choice: 'nokind' (choose from "),
        (("experiment", "assembly", "--bogus", 1), "unrecognized arguments: --bogus 1"),
        (("replay", "--trial", 0), "the following arguments are required: --results"),
        ((), "the following arguments are required: command"),
        (("train", "--dataset", "d.csv", "--generate", 7, "--seed", 9),
         "argument --generate: not allowed with argument --dataset"),
        # the seed seeds only --generate
        (("train", "--dataset", "d.csv", "--seed", 9),
         "argument --seed: not allowed with argument --dataset"),
        # --steps is every kind's horizon
        (("experiment", "assembly", "--step-cap", 4), "unrecognized arguments: --step-cap 4"),
    ],
    ids=["non_integer_trials", "unknown_kind", "unknown_flag", "replay_without_results",
         "no_command", "dataset_and_generate", "dataset_and_seed", "step_cap"],
)
def test_rejected_flag_is_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv, error):
    # argparse's usage block and SystemExit become one line and a return
    monkeypatch.chdir(tmp_path)  # where a default --out would land
    assert run_cli(*argv) == 2
    assert assert_one_line_error(capsys).startswith(f"error: {error}")
    assert os.listdir(tmp_path) == []


class _ClosedAfterFirstLine(io.StringIO):
    """A stdout whose reader has gone once it has read the first line, as
    under `| head -1`."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize(
    "argv, files",
    [
        (("train", "--generate", 40, "--epochs", 5, "--out", "{out}"),
         ("dataset.csv", "loss.csv", "learned_params.json")),
        (("calibrate", "--trials", 40, "--out", "{out}/cal.json"), ("cal.json",)),
    ],
    ids=["train", "calibrate"],
)
def test_closed_stdout_leaves_every_file(small_config, tmp_path, capsys, monkeypatch,
                                         argv, files):
    # every file is written before the report that a closed pipe cuts short
    runs = {}
    for name in ("whole", "cut"):
        out = tmp_path / name
        out.mkdir()
        with monkeypatch.context() as m:
            if name == "cut":
                m.setattr(sys, "stdout", _ClosedAfterFirstLine())
            code = run_cli(*(str(a).format(out=out) for a in argv), "--config", small_config)
        runs[name] = code, capsys.readouterr().err
        assert sorted(os.listdir(out)) == sorted(files)
    assert runs["whole"][0] == 0 and runs["cut"] == (2, "error: Broken pipe\n")
    for name in files:
        assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_closed_stdout_pipe_is_exit_2_with_one_line(small_config, tmp_path):
    """A report to a pipe whose reader has gone, in a child process whose
    stdout is block-buffered as it is without PYTHONUNBUFFERED, so that the
    report fails only when stdout is flushed: exit 2, one `error:` line and
    every file written."""
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child starts
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["train", "--generate", "40", "--epochs", "5", "--config", str(small_config),
            "--out", "g"]
    script = f"import sys\nfrom belieffit.cli import main\nsys.exit(main({argv!r}))\n"
    try:
        child = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                               stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (2, "error: Broken pipe\n")
    assert sorted(os.listdir(tmp_path / "g")) == ["dataset.csv", "learned_params.json",
                                                  "loss.csv"]


class TestCalibrate:
    def test_writes_deterministic_config(self, small_config, tmp_path, capsys):
        out1 = tmp_path / "cal1.json"
        out2 = tmp_path / "cal2.json"
        assert run_cli(
            "calibrate", "--config", small_config, "--trials", 60,
            "--seed", 5, "--out", out1,
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "calibrate", "--config", small_config, "--trials", 60,
            "--seed", 5, "--out", out2,
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert "calibration" in doc
        assert doc["env"]["capture_radius"] == doc["calibration"]["capture_radius"]
        reloaded = load_config(out1)
        assert reloaded["env"]["alpha"] == doc["env"]["alpha"]
        assert reloaded["calibration"] == doc["calibration"]

    def test_zero_measured_rate_is_exit_2_and_writes_nothing(
        self, small_config, tmp_path, capsys
    ):
        # one trial whose alignment draw fails: no config may hold alpha = 0
        out = tmp_path / "cal.json"
        code = run_cli(
            "calibrate", "--config", small_config, "--trials", 1, "--seed", 1, "--out", out
        )
        assert code == 2
        assert "measured alpha is 0" in assert_one_line_error(capsys)
        assert not out.exists()

    def test_bad_sensors_block_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # calibrate reads no sensor, but the config it writes must load in
        # every command
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sensors": {"position": {"bias": "ab"}}}))
        out = tmp_path / "cal.json"
        assert run_cli("calibrate", "--config", path, "--trials", 4, "--out", out) == 2
        assert assert_one_line_error(capsys) == (
            "error: sensors: bias must be a number, got 'ab'\n")
        assert not out.exists()

    def test_unreachable_target_warns_but_succeeds(self, small_config, tmp_path, capsys):
        code = run_cli(
            "calibrate", "--config", small_config, "--trials", 40,
            "--seed", 1, "--target-alpha", "1.0", "--out", tmp_path / "cal.json",
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "feasibility bound" in captured.err


def test_write_csv_writes_numpy_floats_as_numbers(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ("a", "b", "c", "d"), [(np.float64(0.1), 0.1, np.int64(3), "x|y")])
    assert path.read_text() == "a,b,c,d\n0.1,0.1,3,x|y\n"
    parsed = read_table(path, ("a", "b", "c", "d"), "cells",
                        lambda rows: [(float(r[0]), int(r[2])) for r in rows])
    assert parsed == [(0.1, 3)]


def write_csv_reference(path, header, rows):
    """`write_csv` as `csv.writer` writes each row: the reference for the
    column-wise writer.  Its line terminator is CR LF, so that it quotes a
    cell holding a CR as `write_csv` does, and each line is cut to end in
    LF alone."""
    with open(path, "w", newline="") as fh:
        for row in [header, *rows]:
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(row)
            fh.write(line.getvalue()[:-2] + "\n")


_TEXTS = st.text(st.sampled_from(["a", "0", " ", "é", "|", ",", '"', "\r", "\n"]), max_size=4)
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-5, 1e16, 0.1]))
_CELLS = {
    "text": _TEXTS,
    "int": st.integers(),
    "bool": st.booleans(),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "np.float64": _FLOATS.map(np.float64),
    "float": _FLOATS,
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _tables(draw):
    """A header and rows whose columns each draw their cells from a small
    pool of one kind (or of all kinds), so that cells repeat, as in the
    package's files; row counts reach across block boundaries."""
    width = draw(st.integers(1, 5))
    pools = [draw(st.lists(_CELLS[draw(st.sampled_from(sorted(_CELLS)))], min_size=1, max_size=6))
             for _ in range(width)]
    n = draw(st.one_of(st.integers(0, 6), st.sampled_from(
        [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 5])))
    pick = draw(st.randoms(use_true_random=True))
    return draw(st.tuples(*[_TEXTS] * width)), [tuple(map(pick.choice, pools)) for _ in range(n)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(table=_tables())
@example(table=(("a",), [("",), ("b",), ("",)]))  # a line of one empty cell
@example(table=(("x", "y"), [(0.0, 1), (-0.0, 0), (0.0, -1)]))  # zeros of both signs
@example(table=(("x",), [(1.0,)] * CSV_BLOCK_ROWS + [(-0.0,), (1,)]))  # kinds change at a block
def test_write_csv_writes_what_csv_writer_wrote(tmp_path_factory, table):
    header, rows = table
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "cells.csv", header, iter(rows))
    write_csv_reference(folder / "reference.csv", header, rows)
    assert (folder / "cells.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(table=_tables())
@example(table=(("a", "b"), [("x\ry", 1)]))  # a lone CR, which ends a line if bare
@example(table=(("a\r",), [("\r\n",), ("\r",)]))
def test_write_csv_round_trips_through_read_table(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "cells.csv"
    write_csv(path, header, iter(rows))
    parsed = read_table(path, header, "cells", lambda cells: list(map(tuple, cells)))
    assert parsed == [tuple(map(str, row)) for row in rows]


@pytest.mark.parametrize(
    "rows", [[(1, 2), (3,)], [(1, 2, 3)], [(1, 2), (3, 4, 5)], [(1, 2)] * CSV_BLOCK_ROWS + [(3,)]],
    ids=["short", "long", "long_after_one_that_fits", "short_in_second_block"],
)
def test_write_csv_rejects_a_row_of_another_length(tmp_path, rows):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "cells.csv", ("a", "b"), rows)


# One override per key drawn: a scalar of any JSON type, or a list or object
# of them.  Integers stay small so that each run is quick; huge ones are
# among the examples below.
_CONFIG_KEYS = [(block, key) for block in ("env", "spiral") for key in default_config()[block]]
_JSON_VALUES = st.recursive(
    st.one_of(st.floats(), st.integers(-3, 200), st.text(max_size=6), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    overrides=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON_VALUES, min_size=1, max_size=4)
)
# each of these once raised a traceback: numpy's array size limit, and the
# detector's uniform range overflowing before and after a check on the margin
@example(overrides={("env", "horizon_low"): 1e300})
@example(overrides={("env", "horizon_low"): 10**300})
@example(overrides={("env", "horizon_low"): 10**10})
@example(overrides={("env", "detector_error_bound"): 1e308})
@example(overrides={
    ("env", "workspace_min"): [-1.7e308] * 2, ("env", "workspace_max"): [1.7e308] * 2,
    ("env", "detector_error_bound"): 1e308,
})
# each of these once printed a numpy overflow warning
@example(overrides={("spiral", "sigma_wiggle"): 1e308})
@example(overrides={("spiral", "n_rot"): 1e308})
@example(overrides={
    ("env", "workspace_min"): [1e308] * 2, ("env", "workspace_max"): [1.7e308] * 2,
})
def test_fuzzed_config_is_exit_0_or_one_line_exit_2(tmp_path_factory, overrides):
    doc = {"env": {}, "spiral": {}}
    for (block, key), value in overrides.items():
        doc[block][key] = value
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(doc))  # NaN and inf as JSON's NaN and Infinity
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("calibrate", "--config", path, "--trials", 2)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


_SENSOR_KEYS = [(group, key) for group, block in default_config()["sensors"].items()
                for key in block]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(overrides=st.dictionaries(
    st.sampled_from(_SENSOR_KEYS),
    st.one_of(_JSON_VALUES, st.lists(st.lists(st.floats(), min_size=2, max_size=2),
                                     min_size=2, max_size=2)),
    min_size=1, max_size=4,
))
def test_fuzzed_sensors_block_reads_or_raises_configuration_error(tmp_path_factory, overrides):
    """`calibrate` never reads `sensors`, so the block is read in process."""
    doc = {"sensors": {"position": {}, "match": {}}}
    for (group, key), value in overrides.items():
        doc["sensors"][group][key] = value
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            assert isinstance(sensors_from(load_config(path)), SensorModel)
        except ConfigurationError:
            pass
    assert not caught, [str(w.message) for w in caught]


def run_in_2_gib(tmp_path, *argv):
    """`main(argv)` in a child process under a 2 GiB address-space limit,
    where an allocation the host cannot hold fails at once instead of
    swapping.  The child prints every warning it raises."""
    limit = 2 << 30
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from belieffit.cli import main\n"
        f"sys.exit(main({[str(a) for a in argv]!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-W", "always", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)


def assert_out_of_memory(child):
    assert child.returncode == 2
    assert child.stderr.startswith("error: out of memory") and child.stderr.count("\n") == 1


def test_out_of_memory_is_exit_2(tmp_path):
    """`calibrate` holds every trial's critical radius, so 10**10 trials ask
    for 75 GiB, and 10**20 for more than numpy can index.  A study allocates
    its (variant, trial) task list before it spawns the first world, so
    10**12 trials ask for terabytes, and 10**20 for more entries than a
    list holds; it writes nothing."""
    for argv in (("calibrate", "--trials", 10**10), ("calibrate", "--trials", 10**20),
                 ("experiment", "assembly", "--trials", 10**12),
                 ("experiment", "assembly", "--trials", 10**20),
                 ("experiment", "position_estimation", "--trials", 10**12),
                 ("experiment", "matching_insertion", "--trials", 10**20)):
        assert_out_of_memory(run_in_2_gib(tmp_path, *argv))
        assert not any(tmp_path.iterdir()), argv


def test_generated_dataset_out_of_memory_is_exit_2(tmp_path):
    """`train --generate` allocates its records' packed rows before the
    first draw: 10**10 records of 17 floats ask for 1.2 TiB, and 10**20 for
    more than numpy can index."""
    for count in (10**10, 10**20):
        assert_out_of_memory(run_in_2_gib(tmp_path, "train", "--generate", count))


# Each template runs quickly at its own sizes; the fuzz replaces any of its
# count flags and sets integer config keys.
_FUZZ_TEMPLATES = [
    (("calibrate",), {"--trials": 8}),
    (("train", "--epochs", 2), {"--generate": 4}),
    (("experiment", "assembly"), {"--trials": 1, "--steps": 30}),
    (("experiment", "position_estimation"), {"--trials": 1, "--steps": 5}),
    (("experiment", "matching_insertion"), {"--trials": 1, "--steps": 10}),
]
_INT_KEYS = [(block, key) for block in ("env", "spiral")
             for key, value in default_config()[block].items() if type(value) is int]
# a count that runs in well under a second, or one that no 2 GiB can hold
_COUNTS = st.one_of(st.integers(-3, 20), st.integers(10**9, 10**12))


@st.composite
def _fuzz_cases(draw):
    """A template's command and count flags, at least one replaced, and a
    config that sets up to two integer keys."""
    command, flags = draw(st.sampled_from(_FUZZ_TEMPLATES))
    flags = {**flags, **draw(st.dictionaries(st.sampled_from(sorted(flags)), _COUNTS,
                                             min_size=1))}
    doc = {}
    for (block, key), value in draw(
            st.dictionaries(st.sampled_from(_INT_KEYS), _COUNTS, max_size=2)).items():
        doc.setdefault(block, {})[key] = value
    return command, flags, doc


@settings(derandomize=True, max_examples=6, deadline=None)
@given(case=_fuzz_cases())
# the caps that run in about half a second
@example(case=(("experiment", "assembly"), {"--trials": 1}, {"env": {"n_types": 1000}}))
@example(case=(("calibrate",), {"--trials": 8}, {"env": {"horizon_low": 100_000}}))
def test_fuzzed_counts_run_or_exit_2_with_one_line(tmp_path_factory, case):
    """Integers up to 10**12 on every integer config key and on `--trials`,
    `--generate` and `--steps`, each case in a child process
    under 2 GiB: it exits 0 with nothing on stderr, or 2 with one `error:`
    line, and prints no warning.

    Counts from 21 to 10**9 are not drawn.  Each is accepted work that
    takes from seconds to hours, and a trial count whose task list fits in
    2 GiB but whose worlds do not runs until memory runs out."""
    command, flags, doc = case
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "config.json").write_text(json.dumps(doc))
    out = () if command[0] == "calibrate" else ("--out", "out")
    child = run_in_2_gib(folder, *command, *[a for flag in flags.items() for a in flag],
                         "--config", "config.json", *out)
    assert child.returncode in (0, 2), child.stderr
    assert child.stderr == "" or (
        child.stderr.startswith("error: ") and child.stderr.count("\n") == 1), child.stderr


class TestTrain:
    def test_generate_and_train(self, small_config, tmp_path, capsys):
        out = tmp_path / "train"
        code = run_cli(
            "train", "--config", small_config, "--generate", 40,
            "--epochs", 40, "--lr", "0.05", "--seed", 3, "--out", out,
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (out / "dataset.csv").exists()
        assert (out / "loss.csv").exists()
        params = json.loads((out / "learned_params.json").read_text())
        assert set(params) == {"position_cov", "tpr", "fpr"}
        assert "20 matched / 20 mismatched" in captured.out
        with open(out / "loss.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_nll"]
        assert len(rows) == 41

    def test_underflowing_prior_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"env": {"sigma_init": 1e-200}}))
        code = run_cli(
            "train", "--config", path, "--generate", 20, "--epochs", 2,
            "--seed", 3, "--out", tmp_path / "t",
        )
        assert code == 2
        assert "not positive definite" in assert_one_line_error(capsys)

    def test_workspace_too_small_for_placement_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"env": {"workspace_min": [-0.03, -0.03], "workspace_max": [0.03, 0.03]}}
        ))
        code = run_cli(
            "train", "--config", path, "--generate", 6, "--epochs", 2,
            "--seed", 3, "--out", tmp_path / "t",
        )
        assert code == 2
        assert "placement margin" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_bad_learning_rate_is_exit_2(self, small_config, tmp_path, capsys, lr):
        code = run_cli(
            "train", "--config", small_config, "--generate", 6, "--epochs", 2,
            "--lr", lr, "--seed", 3, "--out", tmp_path / "t",
        )
        assert code == 2
        assert "learning rate" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("source, oracle", [("generate", "covariance oracle"),
                                                ("dataset", "confusion oracle")])
    def test_batch_an_oracle_rejects_writes_nothing(
        self, small_config, tmp_path, capsys, source, oracle
    ):
        # two generated records are too few for the covariance oracle, and
        # a dataset of matched records has no fpr to count
        flags = ("--generate", 2, "--seed", 3)
        if source == "dataset":
            flags = ("--dataset", tmp_path / "matched.csv")
            write_csv(flags[1], DATASET_COLUMNS, [
                (1, 1, 0.01, 0.02, 0.011, 0.019, 0.012, 0.021, 1, 0),
                (2, 2, -0.01, 0.0, -0.011, 0.001, -0.009, -0.002, 0, 0),
                (1, 1, 0.03, -0.02, 0.029, -0.021, 0.031, -0.018, 1, 1),
                (2, 2, 0.0, 0.05, 0.001, 0.049, -0.002, 0.052, 0, 0),
            ])
        out = tmp_path / "out"
        code = run_cli("train", "--config", small_config, *flags, "--epochs", 2, "--out", out)
        assert code == 2
        assert oracle in assert_one_line_error(capsys)
        assert not out.exists()

    def test_header_only_dataset_is_exit_2(self, small_config, tmp_path, capsys):
        # it loads as an empty dataset, which the covariance oracle rejects
        path = tmp_path / "empty.csv"
        write_csv(path, DATASET_COLUMNS, [])
        code = run_cli("train", "--config", small_config, "--dataset", path,
                       "--out", tmp_path / "t")
        assert code == 2
        assert "covariance oracle" in assert_one_line_error(capsys)
        assert not (tmp_path / "t").exists()

    def test_missing_dataset_is_exit_2(self, small_config, tmp_path, capsys):
        code = run_cli(
            "train", "--config", small_config, "--dataset", tmp_path / "nope.csv",
            "--out", tmp_path / "t",
        )
        assert code == 2
        assert not (tmp_path / "t").exists()
        assert assert_one_line_error(capsys) == (
            f"error: {tmp_path / 'nope.csv'}: No such file or directory\n")

    def test_diverging_run_leaves_a_finished_run_as_it_was(self, small_config, tmp_path, capsys):
        out = tmp_path / "train"
        argv = ("train", "--config", small_config, "--generate", 40, "--epochs", 40,
                "--out", out)
        assert run_cli(*argv, "--lr", "0.05", "--seed", 3) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert run_cli(*argv, "--lr", "200", "--seed", 4) == 1
        assert "parameters diverged" in assert_one_line_error(capsys)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @staticmethod
    def train_on_edited_dataset(small_config, tmp_path, capsys, column, cell):
        """Exit code and one-line error of `train` on a generated dataset
        whose line 4 has `cell` in `column`."""
        out = tmp_path / "train"
        assert run_cli(
            "train", "--config", small_config, "--generate", 6, "--epochs", 2,
            "--seed", 3, "--out", out,
        ) == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = cell
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(
            "train", "--config", small_config, "--dataset", bad, "--out", tmp_path / "t",
        )
        return code, assert_one_line_error(capsys)

    @pytest.mark.parametrize("cell, problem", [("abc", "abc"), ("", "could not convert")])
    def test_bad_dataset_cell_is_exit_2(self, small_config, tmp_path, capsys, cell, problem):
        code, err = self.train_on_edited_dataset(small_config, tmp_path, capsys, 4, cell)
        assert code == 2
        assert "line 4" in err and problem in err

    @pytest.mark.parametrize(
        "column, cell, problem",
        [(0, "9", "types out of range"), (1, "0", "types out of range"),
         (8, "7", "a flag must be 0 or 1"), (9, "-3", "a flag must be 0 or 1")],
        ids=["peg_type_9", "hole_type_0", "o_match_7", "beta_-3"],
    )
    def test_bad_dataset_type_or_flag_is_exit_2(
        self, small_config, tmp_path, capsys, column, cell, problem
    ):
        code, err = self.train_on_edited_dataset(small_config, tmp_path, capsys, column, cell)
        assert code == 2
        assert "bad.csv line 4" in err and problem in err


class TestExperiment:
    def test_position_estimation_outputs(self, small_config, tmp_path):
        out = tmp_path / "res"
        code = run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 4, "--seed", 9, "--out", out,
        )
        assert code == 0
        validate_metrics_csv(out / "metrics.csv")
        with open(out / "steps.csv", newline="") as fh:
            steps = list(csv.DictReader(fh))
        assert steps and {"mu_x", "xi", "pos_error"} <= set(steps[0])

    @pytest.mark.parametrize(
        "name, validate", [("metrics.csv", validate_metrics_csv), ("steps.csv", validate_steps_csv)]
    )
    def test_validators_reject_tampered_outputs(self, small_config, tmp_path, name, validate):
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 9, "--out", out,
        )
        lines = (out / name).read_text().splitlines()
        validate(out / name)
        path = tmp_path / name
        path.write_text("\n".join([lines[0], lines[-1], *lines[1:-1]]) + "\n")
        with pytest.raises(ConfigurationError, match="out of order"):
            validate(path)
        path.write_text("\n".join([*lines, lines[-1].rsplit(",", 1)[0]]) + "\n")
        with pytest.raises(InvalidInputError, match=f"line {len(lines) + 1}: expected"):
            validate(path)
        if name == "metrics.csv":
            cells = lines[1].split(",")
            cells[5] = "nan"
            path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
            with pytest.raises(InvalidInputError, match="line 2: non-finite"):
                validate(path)

    @pytest.mark.parametrize(
        "name, validate", [("metrics.csv", validate_metrics_csv), ("steps.csv", validate_steps_csv)]
    )
    def test_validators_read_a_pipe(self, small_config, tmp_path, pipe_of, name, validate):
        # the one reader reads a pipe in one pass, as it reads a file
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 9, "--out", out,
        )
        lines = (out / name).read_bytes().splitlines(keepends=True)
        validate(pipe_of(b"".join(lines)))
        with pytest.raises(ConfigurationError, match="out of order"):
            validate(pipe_of(b"".join([lines[0], lines[-1], *lines[1:-1]])))

    @pytest.mark.parametrize(
        "name, validate", [("metrics.csv", validate_metrics_csv), ("steps.csv", validate_steps_csv)]
    )
    def test_validators_reject_repeated_rows(self, small_config, tmp_path, name, validate):
        """Keys must strictly increase: a row written twice, in place or
        with another value, is rejected."""
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 9, "--out", out,
        )
        header, *rows = (out / name).read_text().splitlines()
        path = tmp_path / name
        # the same row again, and the same key with another seed
        for repeated in (rows[1], rows[1].rsplit(",", 1)[0] + ",10"):
            path.write_text("\n".join([header, *rows[:2], repeated, *rows[2:]]) + "\n")
            with pytest.raises(ConfigurationError, match="out of order or repeated"):
                validate(path)

    def test_byte_identical_reruns(self, small_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli(
                "experiment", "matching_insertion", "--config", small_config,
                "--trials", 5, "--seed", 4, "--out", out,
            ) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()

    @pytest.mark.parametrize("kind, lines", [
        ("position_estimation", [
            "  full_approach: mean error 0.0146 m -> 0.0043 m",
            "  frame_by_frame: mean error 0.0146 m -> 0.0083 m",
        ]),
        ("matching_insertion", [
            "  full_approach: success within 10 steps = 1.000",
            "  frame_by_frame: success within 10 steps = 1.000",
            "  sampled_initial: success within 10 steps = 1.000",
            "  fixed_initial: success within 10 steps = 0.000",
        ]),
        ("assembly", [
            "  full_approach: interventions 0.000, mean cumulative attempts 18.0",
            "  failure_plus_position: interventions 0.000, mean cumulative attempts 24.7",
            "  failure_only: interventions 0.667, mean cumulative attempts 111.7",
        ]),
    ])
    def test_summary(self, tmp_path, capsys, kind, lines):
        """Each kind's stdout summary at default flags, 3 trials, seed 0."""
        assert run_cli("experiment", kind, "--trials", 3, "--seed", 0, "--out", tmp_path) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in [
            f"experiment        : {kind} (3 trials, seed 0)",
            *lines,
            f"wrote {tmp_path / 'metrics.csv'} and {tmp_path / 'steps.csv'}",
        ])

    def test_config_sensor_truth_is_the_filters_default(self, tmp_path, capsys):
        """Without `--params` the filters hold the config's own sensor truth."""
        config, params = tmp_path / "c.json", tmp_path / "p.json"
        config.write_text(json.dumps({"sensors": {"match": {"tpr": 0.7}}}))
        params.write_text(json.dumps({"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]],
                                      "tpr": 0.7, "fpr": 0.15}))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = ("experiment", "matching_insertion", "--config", config, "--trials", 3)
        assert run_cli(*argv, "--out", out1) == 0
        assert run_cli(*argv, "--params", params, "--out", out2) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()

    def test_missing_params_file_is_exit_2(self, small_config, tmp_path, capsys):
        code = run_cli(
            "experiment", "assembly", "--config", small_config,
            "--params", tmp_path / "missing.json", "--out", tmp_path / "r",
        )
        assert code == 2
        path = tmp_path / "missing.json"
        assert assert_one_line_error(capsys) == (
            f"error: cannot read params file {path}: No such file or directory\n")

    @pytest.mark.parametrize(
        "content, problem",
        [
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": 0.85}', "'fpr'"),
            ("not json", "cannot read params file"),
            ('{"position_cov": "wide", "tpr": 0.85, "fpr": 0.15}', "params file"),
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": [1], "fpr": 0.15}',
             "params file"),
            ("[1, 2]", "JSON object"),
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": "0.9", "fpr": 0.15}',
             "tpr must be a number, got '0.9'"),
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": 0.85, "fpr": false}',
             "fpr must be a number, got False"),
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": true, "fpr": 0.15}',
             "tpr must be a number, got True"),
            ('{"position_cov": [["6.4e-5", 0.0], [0.0, 6.4e-5]], "tpr": 0.85, "fpr": 0.15}',
             "position_cov must be a number, got '6.4e-5'"),
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": 0.85, "fpr": 0.15, '
             '"bogus": 3}', "learned: unknown key 'bogus'"),
        ],
        ids=["missing_key", "not_json", "bad_cov", "bad_rate", "not_object", "string_rate",
             "false_rate", "true_rate", "string_cov", "unknown_key"],
    )
    def test_malformed_params_file_is_exit_2(
        self, small_config, tmp_path, capsys, content, problem
    ):
        params = tmp_path / "params.json"
        params.write_text(content)
        code = run_cli(
            "experiment", "assembly", "--config", small_config, "--trials", 1,
            "--params", params, "--out", tmp_path / "r",
        )
        assert code == 2
        assert problem in assert_one_line_error(capsys)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "kind, flag", [("position_estimation", "--steps"), ("assembly", "--steps")]
    )
    @pytest.mark.parametrize("value", [0, 10**10])
    def test_out_of_range_horizon_flag_is_exit_2(
        self, small_config, tmp_path, capsys, kind, flag, value
    ):
        code = run_cli("experiment", kind, "--config", small_config, "--trials", 1,
                       flag, value, "--out", tmp_path / "r")
        assert code == 2
        assert "steps must lie in [1, 100000]" in assert_one_line_error(capsys)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind", sorted(DEFAULT_TRIALS))
    def test_steps_flag_is_every_kinds_horizon(self, small_config, tmp_path, kind):
        """`--steps 2` changes each kind's run: every episode ends within 2
        attempts, before the second only by a fit."""
        runs = {}
        for name, flags in (("default", ()), ("two", ("--steps", 2))):
            out = tmp_path / name
            assert run_cli("experiment", kind, "--config", small_config, "--trials", 3,
                           *flags, "--out", out) == 0
            runs[name] = (out / "steps.csv").read_bytes()
        assert runs["two"] != runs["default"]
        with open(tmp_path / "two" / "steps.csv", newline="") as fh:
            episodes: dict = {}
            for row in csv.DictReader(fh):
                key = row["variant"], row["trial"], row["peg_index"]
                episodes.setdefault(key, []).append(row)
        for rows in episodes.values():
            assert [int(row["step"]) for row in rows] == list(range(1, len(rows) + 1))
            assert len(rows) == 2 or rows[-1]["status"] == "success"
            assert len(rows) <= 2

    def test_unknown_variant_is_exit_2(self, small_config, tmp_path):
        code = run_cli(
            "experiment", "assembly", "--config", small_config,
            "--variants", "teleportation", "--out", tmp_path / "r",
        )
        assert code == 2

    def test_repeated_variant_is_exit_2(self, small_config, tmp_path, capsys):
        code = run_cli(
            "experiment", "assembly", "--config", small_config, "--trials", 2,
            "--variants", "full_approach, failure_only,full_approach", "--out", tmp_path / "r",
        )
        assert code == 2
        assert "'full_approach' named twice" in assert_one_line_error(capsys)
        assert not (tmp_path / "r").exists()

    def test_successive_calls_do_not_share_flags(self, small_config, tmp_path, capsys,
                                                 monkeypatch):
        """The parser is built once per process; each call reads its own
        flags and the defaults, whatever the calls before it passed."""
        specs = []

        def stop(spec):
            specs.append(spec)
            raise InvalidInputError("stopped before the study")

        monkeypatch.setattr(cli, "run_experiment", stop)
        assert build_parser() is build_parser()
        assert run_cli("experiment", "assembly", "--config", small_config, "--trials", 2,
                       "--seed", 5, "--variants", "full_approach", "--steps", 7) == 2
        assert run_cli("replay", "--results", tmp_path, "--trial", 3) == 2
        assert run_cli("experiment", "assembly") == 2
        capsys.readouterr()
        flagged, default = specs
        assert (flagged.trials, flagged.seed, flagged.steps) == (2, 5, 7)
        assert flagged.variants == (PolicyVariant.FULL_APPROACH,)
        assert (default.trials, default.seed, default.steps) == (
            DEFAULT_TRIALS["assembly"], 0, 30)
        assert default.variants == DEFAULT_VARIANTS["assembly"]

    @pytest.mark.parametrize("kind", sorted(DEFAULT_TRIALS))
    def test_default_trials_are_the_librarys(self, kind, tmp_path, monkeypatch):
        """`experiment KIND` without `--trials` runs as many trials as an
        `ExperimentSpec` of that kind does by default."""
        specs = []

        def stop(spec):
            specs.append(spec)
            raise InvalidInputError("stopped before the study")

        monkeypatch.setattr(cli, "run_experiment", stop)
        args = build_parser().parse_args(["experiment", kind, "--out", str(tmp_path / "r")])
        with pytest.raises(InvalidInputError, match="stopped"):
            args.func(args)
        sensors = SensorModel()
        library = ExperimentSpec(kind=kind, env=EnvConfig(), spiral=SpiralParams(),
                                 sensors=sensors, learned=sensors.filter_models())
        assert specs[0].trials == library.trials == DEFAULT_TRIALS[kind]


class TestReplay:
    def test_replay_round_trip(self, small_config, tmp_path, capsys):
        out = tmp_path / "res"
        run_cli(
            "experiment", "assembly", "--config", small_config,
            "--trials", 2, "--seed", 11, "--steps", 8, "--out", out,
        )
        capsys.readouterr()
        code = run_cli("replay", "--results", out, "--trial", 1)
        captured = capsys.readouterr()
        assert code == 0
        assert "trial 1" in captured.out
        assert "xi=[" in captured.out

    def test_replay_is_deterministic(self, small_config, tmp_path, capsys):
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 11, "--out", out,
        )
        capsys.readouterr()
        run_cli("replay", "--results", out, "--trial", 0)
        first = capsys.readouterr().out
        run_cli("replay", "--results", out, "--trial", 0)
        second = capsys.readouterr().out
        assert first == second

    def test_missing_steps_csv_is_exit_2_naming_it(self, tmp_path, capsys):
        assert run_cli("replay", "--results", tmp_path / "res", "--trial", 0) == 2
        assert assert_one_line_error(capsys) == (
            f"error: {tmp_path / 'res' / 'steps.csv'}: No such file or directory\n")
        assert capsys.readouterr().out == ""

    def test_unknown_trial_is_exit_2(self, small_config, tmp_path, capsys):
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 11, "--out", out,
        )
        capsys.readouterr()
        assert run_cli("replay", "--results", out, "--trial", 99) == 2

    @staticmethod
    def assert_bad_cell_rejected(small_config, tmp_path, capsys, column, cell, problem, trial):
        """Replay of `trial` exits 2 naming line 3, trial 0's first row,
        once `column` of that row holds `cell` (None: its last cell cut)."""
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 11, "--out", out,
        )
        path = out / "steps.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        assert cells[lines[0].split(",").index("trial")] == "0"
        if column is None:
            del cells[-1]  # a short row: the last cell is missing
        else:
            cells[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("replay", "--results", out, "--trial", trial)
        assert code == 2
        err = assert_one_line_error(capsys)
        assert "line 3" in err and problem in err
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "column, cell, problem",
        [("trial", "abc", "abc"), ("mu_x", "", "could not convert"), (None, None, "cells")],
    )
    def test_malformed_steps_csv_is_exit_2(
        self, small_config, tmp_path, capsys, column, cell, problem
    ):
        self.assert_bad_cell_rejected(small_config, tmp_path, capsys, column, cell, problem, 0)

    @pytest.mark.parametrize(
        "column, cell, problem",
        [("trial", "abc", "abc"), ("mu_x", "", "could not convert"),
         ("xi", "0.5|x", "could not convert"), ("pos_error", "1e", "1e"),
         (None, None, "cells")],
    )
    def test_malformed_row_of_another_trial_is_exit_2(
        self, small_config, tmp_path, capsys, column, cell, problem
    ):
        # replay formats only the asked trial's rows but parses every row
        self.assert_bad_cell_rejected(small_config, tmp_path, capsys, column, cell, problem, 1)

    def test_replay_prints_each_step_of_the_trial(self, small_config, tmp_path, capsys):
        # the asked trial's rows in file order, a heading before each new
        # (variant, peg), formatted as below from the file's cells
        out = tmp_path / "res"
        run_cli(
            "experiment", "assembly", "--config", small_config,
            "--trials", 3, "--seed", 11, "--steps", 8, "--out", out,
        )
        with open(out / "steps.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["trial"] == "1"]
        expected, current = [], None
        for row in rows:
            if (row["variant"], row["peg_index"]) != current:
                current = row["variant"], row["peg_index"]
                expected.append(
                    f"[{row['experiment']}] trial 1 variant {row['variant']} "
                    f"peg#{row['peg_index']} (type {row['peg_type']}) -> {row['status']}")
            xi = ", ".join(f"{float(x):.3f}" for x in row["xi"].split("|"))
            expected.append(
                f"  t={row['step']:>3} hole={row['chosen_hole']} "
                f"start=({float(row['start_x']):+.4f},{float(row['start_y']):+.4f}) "
                f"beta={row['beta']} mu=({float(row['mu_x']):+.4f},{float(row['mu_y']):+.4f}) "
                f"err={float(row['pos_error']):.4f} xi=[{xi}] fitted={row['fitted']}")
        capsys.readouterr()
        assert run_cli("replay", "--results", out, "--trial", 1) == 0
        assert rows and capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_fitted_holes_never_rechosen_in_logs(self, small_config, tmp_path):
        out = tmp_path / "res"
        run_cli(
            "experiment", "assembly", "--config", small_config,
            "--trials", 3, "--seed", 13, "--steps", 10, "--out", out,
        )
        with open(out / "steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_trial: dict = {}
        for row in rows:
            key = (row["variant"], row["trial"])
            by_trial.setdefault(key, []).append(row)
        for rows_for_trial in by_trial.values():
            fitted: set = set()
            for row in rows_for_trial:  # already sorted by peg_index, step
                assert row["chosen_hole"] not in fitted
                if row["beta"] == "1" or (
                    row["status"] == "intervention"
                    and row == rows_for_trial[-1]
                ):
                    fitted.add(row["chosen_hole"])
