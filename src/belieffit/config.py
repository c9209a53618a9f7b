"""JSON configuration: one document holding environment, controller, sensor
ground truth, and (optionally) the filters' learned parameters.

`default_config()` reads the desk-scale defaults from the config classes;
files only need the keys they want to override, and a key the defaults lack
is an error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import numpy as np

from .beliefs import EnvConfig
from .errors import ConfigurationError
from .filters import FilterModels, MatchObservationModel, PositionNoiseModel
from .sensors import MatchSensorSpec, PositionSensorSpec, SensorModel
from .sim import SpiralParams


def _block_of(value):
    """A default instance as a config block: a dataclass as a dict of its
    fields, tuples and arrays as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _block_of(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, np.ndarray)):
        return np.asarray(value).tolist()
    return value


def default_config() -> dict:
    sensors = SensorModel()
    return {
        "env": _block_of(EnvConfig()),
        "spiral": _block_of(SpiralParams()),
        "sensors": _block_of(sensors),
        # the filters start from the sensors' truth
        "learned": {
            "position_cov": sensors.position.cov.tolist(),
            "tpr": sensors.match.tpr,
            "fpr": sensors.match.fpr,
        },
        # written by `calibrate --out` as a record of the run; never read
        "calibration": None,
    }


def _merge(base: dict, override: dict, where: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            import difflib  # only a bad key pays for this import

            close = difflib.get_close_matches(key, list(base), n=1)
            hint = f"; did you mean '{where}{close[0]}'?" if close else ""
            raise ConfigurationError(f"unknown config key '{where}{key}'{hint}")
        if isinstance(value, dict) and isinstance(base[key], dict):
            out[key] = _merge(base[key], value, f"{where}{key}.")
        else:
            out[key] = value
    return out


def _read_json(path: str | Path, what: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"{what} file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {what} file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} file {path} must hold a JSON object")
    return doc


def load_config(path: str | Path | None) -> dict:
    """Defaults overlaid with the JSON document at `path` (if given)."""
    doc = default_config()
    if path is not None:
        doc = _merge(doc, _read_json(path, "config"))
    return doc


def load_params(path: str | Path) -> FilterModels:
    """Learned filter parameters from a JSON file like `train` writes."""
    doc = _read_json(path, "params")
    try:
        return learned_from({"learned": doc})
    except ConfigurationError as exc:
        raise ConfigurationError(f"params file {path}: {exc}") from None


def _block(name: str):
    """Report a missing key, a wrong-typed value or a value out of range in
    block `name` as one ConfigurationError that names the block."""

    def decorate(read):
        @functools.wraps(read)
        def checked(doc: dict):
            try:
                return read(doc)
            except KeyError as exc:
                raise ConfigurationError(f"{name}: missing key {exc}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{name}: {exc}") from None

        return checked

    return decorate


def save_config(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _int(block: dict, key: str) -> int:
    """An integer key's value; a whole float counts, a fraction is not rounded."""
    value = block[key]
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise TypeError(f"{key} must be an integer, got {value!r}")


@_block("env")
def env_from(doc: dict) -> EnvConfig:
    env = doc["env"]
    return EnvConfig(
        n_holes=_int(env, "n_holes"),
        n_types=_int(env, "n_types"),
        detector_error_bound=float(env["detector_error_bound"]),
        alpha=float(env["alpha"]),
        sigma_init=float(env["sigma_init"]),
        workspace_min=tuple(float(x) for x in env["workspace_min"]),
        workspace_max=tuple(float(x) for x in env["workspace_max"]),
        horizon_high=_int(env, "horizon_high"),
        horizon_low=_int(env, "horizon_low"),
        rng_seed=_int(env, "rng_seed"),
        capture_radius=float(env["capture_radius"]),
        alignment_rate=float(env["alignment_rate"]),
    )


@_block("spiral")
def spiral_from(doc: dict) -> SpiralParams:
    sp = doc["spiral"]
    return SpiralParams(
        r_max=float(sp["r_max"]),
        n_rot=_int(sp, "n_rot"),
        delta_z=float(sp["delta_z"]),
        sigma_wiggle=float(sp["sigma_wiggle"]),
    )


@_block("sensors")
def sensors_from(doc: dict) -> SensorModel:
    sens = doc["sensors"]
    pos = sens["position"]
    return SensorModel(
        position=PositionSensorSpec(
            cov=np.array(pos["cov"], dtype=float),
            bias=np.array(pos["bias"], dtype=float),
            uninformative_scale=float(pos["uninformative_scale"]),
            informative_radius=float(pos["informative_radius"]),
        ),
        match=MatchSensorSpec(
            tpr=float(sens["match"]["tpr"]), fpr=float(sens["match"]["fpr"])
        ),
    )


@_block("learned")
def learned_from(doc: dict) -> FilterModels:
    if "learned" not in doc or doc["learned"] is None:
        raise ConfigurationError("no learned parameters in config")
    lp = doc["learned"]
    return FilterModels(
        position=PositionNoiseModel(np.array(lp["position_cov"], dtype=float)),
        match=MatchObservationModel(tpr=float(lp["tpr"]), fpr=float(lp["fpr"])),
    )


def learned_to_doc(models: FilterModels) -> dict:
    return {
        "position_cov": [[float(x) for x in row] for row in models.position.cov],
        "tpr": float(models.match.tpr),
        "fpr": float(models.match.fpr),
    }
