"""Run configuration: JSON parsing, validation, defaults, canonical hash.

A run is fully described by one JSON document.  Unknown keys are rejected
by name; every physical invariant is validated up front so sweeps cannot
fail halfway through.  The canonical form (fully defaulted, sorted keys,
numbers normalized to their shortest float representation) feeds a 64-bit
content digest used for result caching: a change to any field that can
change the output bytes changes the hash.  The output directory, the
worker count and truncation.sideband_eps cannot, so they are accepted and
validated but left out of the hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ATOMIC_PRESETS
from .params import DriveParams, SystemParams
from .specfun import DEFAULT_SIDEBAND_EPS
from .spectrum import DRIVEN_BLOCK_WINDOW, STATIC_BLOCK_WINDOW

SWEEPABLE_PARAMETERS = ("g1", "g2", "A_D", "omega_D", "Omega1", "Omega2")

#: Default drive: the slow published operating frequency with a modest
#: amplitude-to-frequency ratio of 0.2.
DEFAULT_DRIVE = {"amplitude": 0.036, "frequency": 0.18}

_MODEL_KEYS = ("omega1", "omega2", "Omega1", "Omega2", "g1", "g2")
_DRIVE_KEYS = ("amplitude", "frequency")
_TRUNCATION_KEYS = ("n_c1", "n_c2", "block_window", "sideband_eps")
_AXIS_KEYS = ("name", "start", "stop", "points", "parameter")
_DYNAMICS_KEYS = ("t_max", "dt_max", "samples", "initial_state", "pair")
_TOP_KEYS = ("model", "drive", "truncation", "sweep", "dynamics", "output", "workers")


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class AxisConfig:
    name: str
    start: float
    stop: float
    points: int
    parameter: str

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class TruncationConfig:
    n_c1: int = 6
    n_c2: int = 6
    block_window: int | None = None   # None: the static or driven default
    sideband_eps: float = DEFAULT_SIDEBAND_EPS   # accepted, not hashed; affects no output

    def window_for(self, driven: bool) -> int:
        if self.block_window is not None:
            return self.block_window
        return DRIVEN_BLOCK_WINDOW if driven else STATIC_BLOCK_WINDOW


@dataclass(frozen=True)
class DynamicsConfig:
    t_max: float = 200.0
    dt_max: float | None = None
    samples: int = 2000
    initial_state: str = "2"
    pair: str = "rotated"    # "rotated": full vs dominant sideband;
                             # "effective": effective-full vs effective-jc


@dataclass
class RunConfig:
    model: SystemParams = field(default_factory=SystemParams)
    drive: DriveParams | None = None
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    sweep: list[AxisConfig] = field(default_factory=list)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    output: str = "runs"
    workers: int | str = 1

    def drive_or_default(self) -> DriveParams:
        if self.drive is not None:
            return self.drive
        return DriveParams(**DEFAULT_DRIVE)


def _check_keys(section: str, doc: dict, allowed: tuple[str, ...]):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {section}")


def _number(section: str, key: str, value, allow_none=False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return float(value)


def _integer(section: str, key: str, value, allow_none=False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return int(value)


def parse_config(doc) -> RunConfig:
    """Validate a parsed JSON document (or JSON text) into a RunConfig."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not well-formed JSON: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _check_keys("config", doc, _TOP_KEYS)

    model_doc = doc.get("model", {})
    if not isinstance(model_doc, dict):
        raise ConfigError("model must be an object")
    _check_keys("model", model_doc, _MODEL_KEYS)
    model_kwargs = {k: _number("model", k, v) for k, v in model_doc.items()}
    try:
        model = SystemParams(**model_kwargs)
    except ValueError as exc:
        raise ConfigError(f"model constraint violated: {exc}") from exc

    drive = None
    if "drive" in doc and doc["drive"] is not None:
        drive_doc = doc["drive"]
        if not isinstance(drive_doc, dict):
            raise ConfigError("drive must be an object")
        _check_keys("drive", drive_doc, _DRIVE_KEYS)
        merged = dict(DEFAULT_DRIVE)
        merged.update({k: _number("drive", k, v) for k, v in drive_doc.items()})
        try:
            drive = DriveParams(**merged)
        except ValueError as exc:
            raise ConfigError(f"drive constraint violated: {exc}") from exc

    trunc_doc = doc.get("truncation", {})
    if not isinstance(trunc_doc, dict):
        raise ConfigError("truncation must be an object")
    _check_keys("truncation", trunc_doc, _TRUNCATION_KEYS)
    trunc = TruncationConfig(
        n_c1=_integer("truncation", "n_c1", trunc_doc.get("n_c1", 6)),
        n_c2=_integer("truncation", "n_c2", trunc_doc.get("n_c2", 6)),
        block_window=_integer("truncation", "block_window",
                              trunc_doc.get("block_window"), allow_none=True),
        sideband_eps=_number("truncation", "sideband_eps",
                             trunc_doc.get("sideband_eps", DEFAULT_SIDEBAND_EPS)),
    )
    if trunc.n_c1 < 1 or trunc.n_c2 < 1:
        raise ConfigError("truncation: Fock cutoffs n_c1, n_c2 must be >= 1")
    if trunc.block_window is not None and trunc.block_window < 1:
        raise ConfigError("truncation: block_window must be >= 1")
    if not (trunc.sideband_eps > 0):
        raise ConfigError("truncation: sideband_eps must be > 0")

    sweep_doc = doc.get("sweep", [])
    if isinstance(sweep_doc, dict):
        sweep_doc = [sweep_doc]
    if not isinstance(sweep_doc, list):
        raise ConfigError("sweep must be a list of axis objects")
    axes: list[AxisConfig] = []
    for idx, axis_doc in enumerate(sweep_doc):
        section = f"sweep[{idx}]"
        if not isinstance(axis_doc, dict):
            raise ConfigError(f"{section} must be an object")
        _check_keys(section, axis_doc, _AXIS_KEYS)
        for req in ("start", "stop", "points", "parameter"):
            if req not in axis_doc:
                raise ConfigError(f"{section} is missing required key {req!r}")
        parameter = axis_doc["parameter"]
        if parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigError(
                f"{section}.parameter must be one of {SWEEPABLE_PARAMETERS}, "
                f"got {parameter!r}")
        points = _integer(section, "points", axis_doc["points"])
        if points < 1:
            raise ConfigError(f"{section}.points must be >= 1")
        start = _number(section, "start", axis_doc["start"])
        stop = _number(section, "stop", axis_doc["stop"])
        if points > 1 and not stop > start:
            raise ConfigError(f"{section}: stop must exceed start for points > 1")
        axes.append(AxisConfig(name=str(axis_doc.get("name", parameter)),
                               start=start, stop=stop, points=points,
                               parameter=parameter))
    if len(axes) > 2:
        raise ConfigError("at most two sweep axes are supported")

    dyn_doc = doc.get("dynamics", {})
    if not isinstance(dyn_doc, dict):
        raise ConfigError("dynamics must be an object")
    _check_keys("dynamics", dyn_doc, _DYNAMICS_KEYS)
    dyn = DynamicsConfig(
        t_max=_number("dynamics", "t_max", dyn_doc.get("t_max", 200.0)),
        dt_max=_number("dynamics", "dt_max", dyn_doc.get("dt_max"), allow_none=True),
        samples=_integer("dynamics", "samples", dyn_doc.get("samples", 2000)),
        initial_state=str(dyn_doc.get("initial_state", "2")),
        pair=str(dyn_doc.get("pair", "rotated")),
    )
    if not (dyn.t_max > 0):
        raise ConfigError("dynamics.t_max must be > 0")
    if dyn.dt_max is not None and not (dyn.dt_max > 0):
        raise ConfigError("dynamics.dt_max must be > 0")
    if dyn.samples < 2:
        raise ConfigError("dynamics.samples must be >= 2")
    if dyn.initial_state not in ATOMIC_PRESETS:
        raise ConfigError(
            f"dynamics.initial_state must be one of {sorted(ATOMIC_PRESETS)}, "
            f"got {dyn.initial_state!r}")
    if dyn.pair not in ("rotated", "effective"):
        raise ConfigError("dynamics.pair must be 'rotated' or 'effective'")

    output = doc.get("output", "runs")
    if not isinstance(output, str) or not output:
        raise ConfigError("output must be a non-empty directory path")

    workers = doc.get("workers", 1)
    if workers == "auto":
        pass
    elif isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer or 'auto'")

    return RunConfig(model=model, drive=drive, truncation=trunc, sweep=axes,
                     dynamics=dyn, output=output, workers=workers)


def canonical_dict(cfg: RunConfig) -> dict:
    """Fully defaulted plain-data form of every field that can change the
    output bytes, used for hashing."""
    out = {
        "model": {k: float(getattr(cfg.model, k)) for k in _MODEL_KEYS},
        "drive": None if cfg.drive is None else {
            "amplitude": float(cfg.drive.amplitude),
            "frequency": float(cfg.drive.frequency),
        },
        "truncation": {
            "n_c1": cfg.truncation.n_c1,
            "n_c2": cfg.truncation.n_c2,
            "block_window": cfg.truncation.block_window,
        },
        "sweep": [
            {"name": ax.name, "start": float(ax.start), "stop": float(ax.stop),
             "points": ax.points, "parameter": ax.parameter}
            for ax in cfg.sweep
        ],
        "dynamics": {
            "t_max": float(cfg.dynamics.t_max),
            "dt_max": None if cfg.dynamics.dt_max is None else float(cfg.dynamics.dt_max),
            "samples": cfg.dynamics.samples,
            "initial_state": cfg.dynamics.initial_state,
            "pair": cfg.dynamics.pair,
        },
    }
    return out


def canonical_json(cfg: RunConfig) -> str:
    return json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    """64-bit content digest of the canonicalized configuration."""
    digest = hashlib.blake2b(canonical_json(cfg).encode("utf-8"), digest_size=8)
    return digest.hexdigest()
