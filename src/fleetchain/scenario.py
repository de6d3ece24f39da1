"""Scenario files: JSON with a flat `params` object and optional `sweeps`.

Example::

    {
      "name": "reference",
      "params": {"cluster_count": 5, "lam": 2, "seed": 42},
      "sweeps": [{"param": "lam", "values": [2, 3, 4, 5]}],
      "output": "results"
    }

Unknown keys, unknown parameter names, sweep axes that do not reference a
config field and values a `SimConfig` rejects are configuration errors.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .sim import SimConfig

_CONFIG_FIELDS = {f.name for f in fields(SimConfig)}


class ConfigError(ValueError):
    """Bad scenario file or parameter set."""


@dataclass(frozen=True)
class SweepAxis:
    param: str
    values: tuple

    def __post_init__(self):
        if self.param not in _CONFIG_FIELDS:
            raise ConfigError(f"sweep axis {self.param!r} is not a config field")
        if not self.values:
            raise ConfigError(f"sweep axis {self.param!r} has no values")


@dataclass(frozen=True)
class Scenario:
    name: str
    config: SimConfig
    sweeps: tuple[SweepAxis, ...] = ()
    output: str | None = None


def make_config(params: dict, base: SimConfig | None = None) -> SimConfig:
    """`base` (default `SimConfig()`) with `params` set. Every config built
    from a scenario file is built here."""
    unknown = set(params) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        return replace(base or SimConfig(), **params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8 or an int too long to parse
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario root must be a JSON object")
    extra = set(raw) - {"name", "params", "sweeps", "output"}
    if extra:
        raise ConfigError(f"unknown scenario keys: {sorted(extra)}")
    for key, kind, noun in (("params", dict, "an object"), ("sweeps", list, "a list"),
                            ("name", str, "a string"), ("output", str, "a string")):
        if key in raw and not isinstance(raw[key], kind):
            raise ConfigError(f"`{key}` must be {noun}")
    # The name is part of every output file name; the output is a directory.
    if any(c in raw.get("name", "") for c in ("/", os.sep, "\0")):
        raise ConfigError("`name` must not contain a path separator or NUL")
    if "\0" in raw.get("output", ""):
        raise ConfigError("`output` must not contain NUL")
    config = make_config(raw.get("params", {}))
    sweeps = []
    for axis in raw.get("sweeps", []):
        if not (isinstance(axis, dict) and isinstance(axis.get("param"), str)
                and isinstance(axis.get("values"), list)):
            raise ConfigError("each sweep needs a string `param` and a list of `values`")
        sweeps.append(SweepAxis(param=axis["param"], values=tuple(axis["values"])))
    return Scenario(
        name=raw.get("name", path.stem),
        config=config,
        sweeps=tuple(sweeps),
        output=raw.get("output"),
    )


def expand(scenario: Scenario) -> list[tuple[str, SimConfig]]:
    """Cartesian product of the sweep axes, in declaration order; with no
    axes, the one point labelled "". A label writes an int (a bool as 1 or
    0) in full and a float with `:g`. A point's label names its output file,
    so two points with one label (`lam` at 2 and 2, or at 2.0000001 and
    2.0000002, both `lam=2`) are a configuration error."""
    axes = [[(axis.param, v) for v in axis.values] for axis in scenario.sweeps]
    points = []
    labels = set()
    for combo in itertools.product(*axes):
        cfg = make_config(dict(combo), scenario.config)
        label = "_".join(f"{param}={value:d}" if isinstance(value, int)
                         else f"{param}={value:g}" if isinstance(value, float)
                         else f"{param}={value}" for param, value in combo)
        if label in labels:
            raise ConfigError(f"two sweep points have the label {label!r}, which names "
                              "one output file")
        labels.add(label)
        points.append((label, cfg))
    return points
