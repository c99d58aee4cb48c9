"""Run configuration: JSON parsing, validation, defaults, canonical digest.

A run is fully described by one JSON document whose sections mirror the
dataclasses below and in params: each section's keys are its dataclass's
fields, a missing key takes the field's default (a missing section its
dataclass's defaults; null is no section and is refused), each value is
checked against the field's annotated type, and the dataclass itself
checks its constraints.  Unknown keys are rejected by name.  A sweep axis
is checked for its schema alone, and for a name that fits one CSV field
unquoted (no comma, double quote, CR or LF): which sweeps are valid is
spectrum.check_sweep's rule.  The truncation and dynamics constraints are
checked here, as the library checks them only once a run has begun.
Every string of the document, keys included, must encode as UTF-8: a run
writes its strings into CSV fields, a manifest and paths.

canonical_digest is the one canonical form: JSON with sorted keys and
compact separators, floats by repr, dataclasses as their fields and arrays
as lists, hashed to 64 bits.  config_hash is that digest of the whole
fully defaulted config but its output directory.  The CLI's cache key is
not: it is the digest of what each run computes from (cli.run_key), so a
field a command never reads does not move it.
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


def _check_text(doc, where: str = "config"):
    """Refuse a string of the document, key or value, that UTF-8 cannot
    encode: a lone surrogate, which JSON text may escape ("\\ud800")."""
    if isinstance(doc, str):
        try:
            doc.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{where} holds a lone surrogate, which UTF-8 "
                              f"cannot encode: {doc!r}") from None
    elif isinstance(doc, dict):
        for key, value in doc.items():
            _check_text(key, f"a key of {where}")
            _check_text(value, f"{where}.{key}" if where != "config" else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _check_text(value, f"{where}[{i}]")


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
    _check_text(doc)
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


def _plain(obj):
    """The JSON form of what json cannot write itself: a dataclass as its
    fields, an array as a list."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def canonical_digest(obj) -> str:
    """64-bit blake2b hex digest of obj's canonical JSON: sorted keys,
    compact separators, floats by repr, dataclasses as their fields, arrays
    as lists.  It depends on no hash seed."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def config_hash(cfg: RunConfig) -> str:
    """canonical_digest of the whole config, fully defaulted, but its output
    directory.  Not the CLI's cache key (cli.run_key), which covers only
    what a run computes from."""
    doc = dataclasses.asdict(cfg)
    del doc["output"]
    return canonical_digest(doc)
