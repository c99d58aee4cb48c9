"""Validated parameter containers shared by every engine in the package.

Units: hbar = 1 throughout, so every frequency doubles as an energy.  The
atomic level energies are -omega1, -omega2, +omega3 with omega3 implied by
the zero-mean convention, which is why only omega1 and omega2 appear here.

These dataclasses are the one definition of each model and drive field:
its name, default and constraint.  The run configuration, the sweep axes
and the grid rows derive their keys from them, and sweeps name the drive
fields by DRIVE_AXES.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


def _validate(obj, positive: tuple[str, ...], non_negative: tuple[str, ...],
              label: str = ""):
    """Convert every field of obj to a finite float, then check its bounds."""
    for f in dataclasses.fields(obj):
        value = float(getattr(obj, f.name))
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        object.__setattr__(obj, f.name, value)
    for name in positive:
        if getattr(obj, name) <= 0:
            raise ValueError(f"{label}{name} > 0 required, got {getattr(obj, name)}")
    for name in non_negative:
        if getattr(obj, name) < 0:
            raise ValueError(f"{label}{name} >= 0 required, got {getattr(obj, name)}")


@dataclass(frozen=True)
class SystemParams:
    """Static model parameters: two lower-level frequencies, two cavity mode
    frequencies, and the two transition-mode coupling strengths."""

    omega1: float = 0.5
    omega2: float = 0.25
    Omega1: float = 1.25
    Omega2: float = 1.0
    g1: float = 0.05
    g2: float = 0.05

    def __post_init__(self):
        _validate(self, positive=("Omega1", "Omega2"), non_negative=("g1", "g2"))

    #: sys.replace(g1=0.1) is a validated copy with g1 changed
    replace = dataclasses.replace


@dataclass(frozen=True)
class DriveParams:
    """Sinusoidal modulation of the upper-lower-2 level pair.

    theta = amplitude / frequency is always derived, never stored, so the
    three quantities can never fall out of sync.  The defaults are the slow
    published operating frequency with theta = 0.2.
    """

    amplitude: float = 0.036
    frequency: float = 0.18

    def __post_init__(self):
        _validate(self, positive=("frequency",), non_negative=("amplitude",),
                  label="drive ")

    @property
    def theta(self) -> float:
        return self.amplitude / self.frequency

    @classmethod
    def from_theta(cls, theta: float, frequency: float) -> "DriveParams":
        return cls(amplitude=theta * frequency, frequency=frequency)


def transition_frequencies(omega1, omega2):
    """The transition frequencies 2 omega1 + omega2 (mode 1) and
    2 omega2 + omega1 (mode 2), for floats and arrays alike."""
    return 2.0 * omega1 + omega2, 2.0 * omega2 + omega1


MODEL_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))

#: The sweep name of each drive field.
DRIVE_AXES = {"A_D": "amplitude", "omega_D": "frequency"}


def sweep_values(sys: SystemParams, drive: DriveParams | None = None) -> dict:
    """The model fields, and with a drive A_D and omega_D, by sweep name."""
    values = {k: getattr(sys, k) for k in MODEL_FIELDS}
    if drive is not None:
        values.update((name, getattr(drive, f)) for name, f in DRIVE_AXES.items())
    return values


def from_sweep_values(values: dict) -> tuple[SystemParams, DriveParams | None]:
    """The validated parameters of one point given by sweep name, as
    sweep_values gives them; the drive is None when values hold no drive."""
    sys = SystemParams(**{k: values[k] for k in MODEL_FIELDS})
    if not DRIVE_AXES.keys() & values.keys():
        return sys, None
    return sys, DriveParams(**{f: values[name] for name, f in DRIVE_AXES.items()})
