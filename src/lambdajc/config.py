"""Run configuration: JSON parsing, validation, defaults, canonical hash.

A run is fully described by one JSON document whose sections mirror the
dataclasses below and in params: each section's keys are its dataclass's
fields, a missing key takes the field's default (a missing section its
dataclass's defaults; null is no section and is refused), each value is
checked against the field's annotated type, and the dataclass itself
checks its constraints.  Unknown keys are rejected by name.  A sweep axis
is checked for its schema alone, and for a name that fits one CSV field
unquoted (no comma, double quote, CR or LF): which sweeps are valid is
spectrum.check_sweep's rule.  The truncation and dynamics constraints are
checked here, as the library checks them only once a run has begun.  The
canonical form (the fully defaulted dataclasses as plain data, sorted keys,
numbers as floats or integers by field type) feeds a 64-bit content digest
used for result caching: a change to any field that can change the output
bytes changes the hash.  The output directory cannot, so it is validated
but left out of the hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import ATOMIC_PRESETS, DEFAULT_SAMPLES, DEFAULT_T_MAX, ECHO_PAIRS
from .params import DriveParams, SystemParams


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class AxisConfig:
    start: float
    stop: float
    points: int
    parameter: str
    name: str | None = None   # None: the parameter

    def __post_init__(self):
        if self.name is None:
            object.__setattr__(self, "name", self.parameter)
        elif any(c in self.name for c in ',"\r\n'):
            # the name is a CSV field, and a CSV record is one line
            raise ConfigError("name must hold no comma, double quote, CR or LF, "
                              f"got {self.name!r}")
        if self.points < 1:
            raise ConfigError("points must be >= 1")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class TruncationConfig:
    n_c1: int = 6
    n_c2: int = 6
    block_window: int | None = None   # None: spectrum.block_window_for's default

    def __post_init__(self):
        if self.n_c1 < 1 or self.n_c2 < 1:
            raise ConfigError("Fock cutoffs n_c1, n_c2 must be >= 1")
        if self.block_window is not None and self.block_window < 1:
            raise ConfigError("block_window must be >= 1")


@dataclass(frozen=True)
class DynamicsConfig:
    t_max: float = DEFAULT_T_MAX
    samples: int = DEFAULT_SAMPLES
    initial_state: str = "2"
    pair: str = "rotated"    # a key of ECHO_PAIRS

    def __post_init__(self):
        if not self.t_max > 0:
            raise ConfigError("t_max must be > 0")
        if self.samples < 2:
            raise ConfigError("samples must be >= 2")
        if self.initial_state not in ATOMIC_PRESETS:
            raise ConfigError(f"initial_state must be one of {sorted(ATOMIC_PRESETS)}, "
                              f"got {self.initial_state!r}")
        if self.pair not in ECHO_PAIRS:
            raise ConfigError(f"pair must be one of {sorted(ECHO_PAIRS)}, "
                              f"got {self.pair!r}")


@dataclass
class RunConfig:
    model: SystemParams = field(default_factory=SystemParams)
    drive: DriveParams = field(default_factory=DriveParams)
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    sweep: list[AxisConfig] = field(default_factory=list)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    output: str = "runs"

    def __post_init__(self):
        if not isinstance(self.output, str) or not self.output:
            raise ConfigError("output must be a non-empty directory path")


def _check_keys(section: str, doc: dict, cls):
    names = {f.name for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {section}")


def _scalar(where: str, hint, value):
    """A section value checked against its field's type: numbers must be
    finite (integers for int fields), None only where the field allows it,
    text fields take strings only."""
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    if float in kinds:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        if not math.isfinite(float(value)):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return float(value)
    if int in kinds:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _section(cls, section: str, doc):
    """The dataclass cls built from the JSON object doc; a missing key
    takes the field's default and a violated constraint is reported under
    section."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be an object")
    _check_keys(section, doc, cls)
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        if required and f.name not in doc:
            raise ConfigError(f"{section} is missing required key {f.name!r}")
    kwargs = {k: _scalar(f"{section}.{k}", hints[k], v) for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(doc) -> RunConfig:
    """Validate a parsed JSON document (or JSON text) into a RunConfig.

    A key whose field holds a dataclass (or a list of them, for sweep) is a
    section; output is checked by RunConfig itself."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config is not well-formed JSON: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _check_keys("config", doc, RunConfig)
    hints = get_type_hints(RunConfig)
    kwargs = {}
    for key, value in doc.items():
        hint = hints[key]
        if get_origin(hint) is list:
            if isinstance(value, dict):
                value = [value]
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list of axis objects")
            value = [_section(get_args(hint)[0], f"{key}[{i}]", v)
                     for i, v in enumerate(value)]
        elif dataclasses.is_dataclass(hint):
            value = _section(hint, key, value)
        kwargs[key] = value
    return RunConfig(**kwargs)


def config_hash(cfg: RunConfig) -> str:
    """64-bit content digest of the configuration's canonical form: every
    field that can change the output bytes, fully defaulted, as JSON with
    sorted keys."""
    doc = dataclasses.asdict(cfg)
    del doc["output"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()
