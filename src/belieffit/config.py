"""The config and params schema: one JSON document holding the environment,
the spiral controller and the sensor ground truth, and the params file of
trained filter parameters.

`default_config()` reads the desk-scale defaults from the config classes, and
`env_from`, `spiral_from` and `sensors_from` read the blocks back through the
same classes; files only need the keys they want to override, and a key the
defaults lack is an error.  A float value, and each leaf of a tuple or array
value, is a JSON int or float, not a bool or a string; a tuple value is a
JSON list; an integer value is checked by its class.  The filters' trained
parameters are not part of the config: `train` writes them to a params file,
which `load_params` reads.  The files themselves are read and written by
`runfiles`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path

import numpy as np

from .beliefs import EnvConfig
from .errors import ConfigurationError
from .filters import FilterModels, MatchObservationModel, PositionNoiseModel
from .runfiles import read_json
from .sensors import SensorModel
from .sim import SpiralParams


def _block_of(value):
    """A config instance as a config block: a dataclass as a dict of its
    fields, tuples and arrays as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _block_of(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, np.ndarray)):
        return np.asarray(value).tolist()
    return value


def default_config() -> dict:
    return {
        "env": _block_of(EnvConfig()),
        "spiral": _block_of(SpiralParams()),
        "sensors": _block_of(SensorModel()),
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


def load_config(path: str | Path | None) -> dict:
    """Defaults overlaid with the JSON document at `path` (if given)."""
    doc = default_config()
    if path is not None:
        doc = _merge(doc, read_json(path, "config"))
    return doc


def load_params(path: str | Path) -> FilterModels:
    """Learned filter parameters from a JSON file like `train` writes: its
    keys are `position_cov`, `tpr` and `fpr`, and no other."""
    doc = read_json(path, "params")
    with _reading(f"params file {path}: learned"):
        unknown = sorted(doc.keys() - {"position_cov", "tpr", "fpr"})
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        return FilterModels(
            position=PositionNoiseModel(
                np.array(_numbers("position_cov", doc["position_cov"]), dtype=float)),
            match=MatchObservationModel(tpr=_number("tpr", doc["tpr"]),
                                        fpr=_number("fpr", doc["fpr"])),
        )


def learned_to_doc(models: FilterModels) -> dict:
    return {
        "position_cov": [[float(x) for x in row] for row in models.position.cov],
        "tpr": float(models.match.tpr),
        "fpr": float(models.match.fpr),
    }


@contextlib.contextmanager
def _reading(where: str):
    """Report a missing key, a wrong-typed value or a value out of range as
    one ConfigurationError that names `where`."""
    try:
        yield
    except KeyError as exc:
        raise ConfigurationError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _number(key: str, value) -> float:
    """A float key's value, or a leaf of a tuple or array key's: a JSON int
    or float, not a bool or a string."""
    if type(value) is int or type(value) is float:
        return float(value)
    raise TypeError(f"{key} must be a number, got {value!r}")


def _numbers(key: str, value):
    """An array key's value: its nested lists, each leaf read by `_number`."""
    if isinstance(value, list):
        return [_numbers(key, x) for x in value]
    return _number(key, value)


def _from_block(cls, block: dict):
    """The inverse of `_block_of`: a `cls` built from its block, each field
    read as the type of its default."""
    defaults, values = cls(), {}
    for f in dataclasses.fields(cls):
        default = getattr(defaults, f.name)
        if dataclasses.is_dataclass(default):
            values[f.name] = _from_block(type(default), block[f.name])
        elif isinstance(default, tuple):
            if not isinstance(block[f.name], list):
                raise TypeError(f"{f.name} must be a list of numbers, got {block[f.name]!r}")
            values[f.name] = tuple(_number(f.name, x) for x in block[f.name])
        elif isinstance(default, np.ndarray):
            values[f.name] = np.array(_numbers(f.name, block[f.name]), dtype=float)
        elif isinstance(default, int):  # the class checks its integers
            values[f.name] = block[f.name]
        else:
            values[f.name] = _number(f.name, block[f.name])
    return cls(**values)


def _read_block(doc: dict, name: str, cls):
    with _reading(name):
        return _from_block(cls, doc[name])


def env_from(doc: dict) -> EnvConfig:
    return _read_block(doc, "env", EnvConfig)


def spiral_from(doc: dict) -> SpiralParams:
    return _read_block(doc, "spiral", SpiralParams)


def sensors_from(doc: dict) -> SensorModel:
    return _read_block(doc, "sensors", SensorModel)
