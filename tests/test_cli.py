import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from belieffit.cli import main, validate_metrics_csv, validate_steps_csv
from belieffit.training import read_table, write_csv
from belieffit import EnvConfig, SensorModel, SpiralParams
from belieffit.config import (
    _block_of,
    default_config,
    env_from,
    load_config,
    save_config,
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
    save_config(doc, path)
    return path


class TestConfig:
    def test_defaults_load_without_file(self):
        doc = load_config(None)
        assert doc["env"]["n_holes"] == 5

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError):
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
    parsed = read_table(path, ("a", "b", "c", "d"), "cells", lambda r: (float(r[0]), int(r[2])))
    assert parsed == [(0.1, 3)]


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


def test_out_of_memory_is_exit_2(tmp_path):
    """`calibrate` holds every trial's critical radius, so 10**10 trials ask
    for 75 GiB.  The child runs under a 2 GiB address-space limit, where the
    allocation fails at once instead of swapping."""
    limit = 2 << 30
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from belieffit.cli import main\n"
        "sys.exit(main(['calibrate', '--trials', str(10**10)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    child = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 2
    assert child.stderr.startswith("error: out of memory") and child.stderr.count("\n") == 1


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

    def test_missing_dataset_is_exit_2(self, small_config, tmp_path, capsys):
        code = run_cli(
            "train", "--config", small_config, "--dataset", tmp_path / "nope.csv",
            "--out", tmp_path / "t",
        )
        assert code == 2

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

    def test_byte_identical_reruns(self, small_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli(
                "experiment", "matching_insertion", "--config", small_config,
                "--trials", 5, "--seed", 4, "--out", out,
            ) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()

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

    @pytest.mark.parametrize(
        "content, problem",
        [
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": 0.85}', "'fpr'"),
            ("not json", "cannot read params file"),
            ('{"position_cov": "wide", "tpr": 0.85, "fpr": 0.15}', "params file"),
            ('{"position_cov": [[6.4e-5, 0.0], [0.0, 6.4e-5]], "tpr": [1], "fpr": 0.15}',
             "params file"),
            ("[1, 2]", "JSON object"),
        ],
        ids=["missing_key", "not_json", "bad_cov", "bad_rate", "not_object"],
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

    @pytest.mark.parametrize(
        "kind, flag", [("position_estimation", "--steps"), ("assembly", "--step-cap")]
    )
    @pytest.mark.parametrize("value", [0, 10**10])
    def test_out_of_range_horizon_flag_is_exit_2(
        self, small_config, tmp_path, capsys, kind, flag, value
    ):
        code = run_cli("experiment", kind, "--config", small_config, "--trials", 1,
                       flag, value, "--out", tmp_path / "r")
        assert code == 2
        assert "steps and step cap must lie in [1, 100000]" in assert_one_line_error(capsys)
        assert not (tmp_path / "r").exists()

    def test_unknown_variant_is_exit_2(self, small_config, tmp_path):
        code = run_cli(
            "experiment", "assembly", "--config", small_config,
            "--variants", "teleportation", "--out", tmp_path / "r",
        )
        assert code == 2


class TestReplay:
    def test_replay_round_trip(self, small_config, tmp_path, capsys):
        out = tmp_path / "res"
        run_cli(
            "experiment", "assembly", "--config", small_config,
            "--trials", 2, "--seed", 11, "--step-cap", 8, "--out", out,
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

    def test_unknown_trial_is_exit_2(self, small_config, tmp_path, capsys):
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 11, "--out", out,
        )
        capsys.readouterr()
        assert run_cli("replay", "--results", out, "--trial", 99) == 2

    @pytest.mark.parametrize(
        "column, cell, problem",
        [("trial", "abc", "abc"), ("mu_x", "", "could not convert"), (None, None, "cells")],
    )
    def test_malformed_steps_csv_is_exit_2(
        self, small_config, tmp_path, capsys, column, cell, problem
    ):
        out = tmp_path / "res"
        run_cli(
            "experiment", "position_estimation", "--config", small_config,
            "--trials", 2, "--seed", 11, "--out", out,
        )
        path = out / "steps.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        if column is None:
            del cells[-1]  # a short row: the last cell is missing
        else:
            cells[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("replay", "--results", out, "--trial", 0)
        assert code == 2
        err = assert_one_line_error(capsys)
        assert "line 3" in err and problem in err
        assert capsys.readouterr().out == ""

    def test_fitted_holes_never_rechosen_in_logs(self, small_config, tmp_path):
        out = tmp_path / "res"
        run_cli(
            "experiment", "assembly", "--config", small_config,
            "--trials", 3, "--seed", 13, "--step-cap", 10, "--out", out,
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
