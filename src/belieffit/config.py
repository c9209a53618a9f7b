"""JSON configuration: one document holding the environment, the spiral
controller and the sensor ground truth.

`default_config()` reads the desk-scale defaults from the config classes, and
`env_from`, `spiral_from` and `sensors_from` read the blocks back through the
same classes; files only need the keys they want to override, and a key the
defaults lack is an error.  The filters' trained parameters are not part of
the config: `train` writes them to a params file, which `load_params` reads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np

from .beliefs import EnvConfig
from .errors import ConfigurationError
from .filters import FilterModels, MatchObservationModel, PositionNoiseModel
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
    with _reading(f"params file {path}: learned"):
        return FilterModels(
            position=PositionNoiseModel(np.array(doc["position_cov"], dtype=float)),
            match=MatchObservationModel(tpr=float(doc["tpr"]), fpr=float(doc["fpr"])),
        )


def learned_to_doc(models: FilterModels) -> dict:
    return {
        "position_cov": [[float(x) for x in row] for row in models.position.cov],
        "tpr": float(models.match.tpr),
        "fpr": float(models.match.fpr),
    }


def save_config(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


def _int(block: dict, key: str) -> int:
    """An integer key's value; a whole float counts, a fraction is not rounded."""
    value = block[key]
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise TypeError(f"{key} must be an integer, got {value!r}")


def _from_block(cls, block: dict):
    """The inverse of `_block_of`: a `cls` built from its block, each field
    read as the type of its default."""
    defaults, values = cls(), {}
    for f in dataclasses.fields(cls):
        default = getattr(defaults, f.name)
        if dataclasses.is_dataclass(default):
            values[f.name] = _from_block(type(default), block[f.name])
        elif isinstance(default, tuple):
            values[f.name] = tuple(float(x) for x in block[f.name])
        elif isinstance(default, np.ndarray):
            values[f.name] = np.array(block[f.name], dtype=float)
        elif isinstance(default, int):
            values[f.name] = _int(block, f.name)
        else:
            values[f.name] = float(block[f.name])
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
