"""Drive-renormalized model parameters and their validity audit.

Moving to the frame of the sinusoidal drive turns the static couplings into
Bessel-weighted sideband families.  Picking the slowest counter-rotating
sideband of each mode (integer orders n0, m0) and absorbing the residual
phases into redefined frequencies yields an effective static model:

    detunings      delta1 = 2 omega1 + omega2 - Omega1
                   delta2 = 2 omega2 + omega1 - Omega2
    sidebands      D_n = 2 omega1 + omega2 + Omega1 + n * omega_D   (mode 1)
                   D_m = 2 omega2 + omega1 + Omega2 + m * omega_D   (mode 2)
                   n0, m0 = integer argmin of |D_n|, |D_m|
    frequencies    Omega1_eff = (D_{n0} - delta1) / 2
                   Omega2_eff = (D_{m0} - delta2) / 2
                   omega1_eff = [(2 delta1 - delta2) + (2 D_{n0} - D_{m0})] / 6
                   omega2_eff = [(2 delta2 - delta1) + (2 D_{m0} - D_{n0})] / 6
    couplings      gr1 = g1 J_0(theta),   gr2 = g2 J_0(2 theta)
                   gc1 = g1 J_{n0}(theta), gc2 = g2 J_{m0}(2 theta)

D_{n0}, D_{m0} are stored *signed*: the frequency formulas consume the
signed minimizer, which keeps Omega_eff linear in omega_D across a whole
sideband valley.  A consequence worth knowing: the effective frequencies
can come out negative (e.g. Omega1_eff = -0.01 for the resonant defaults at
omega_D = 0.18), which the phase-diagram engine reports via a window-capped
flag rather than hiding.

The frame change is bookkeeping-exact: delta1 + Omega1_eff = 2 omega1_eff +
omega2_eff and D_{n0} - Omega1_eff = 2 omega1_eff + omega2_eff (same for
mode 2), identities the test suite checks on random draws.

The formulas are written once, in _record, which builds the one
effective-parameter record from floats or arrays alike.  effective_table
runs it over whole slices of cells (CHUNK_CELLS cells of a driven grid or
of the effective-params axis); effective_point is its one-point form,
with the same keys as Python floats, ints and bools, and agrees with it
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .params import DriveParams, SystemParams, transition_frequencies
from .specfun import bessel_j

SIDEBAND_SEARCH_LIMIT = 10**6

#: "Much greater" threshold for the fast-oscillation hierarchy: a scale is
#: considered safely below omega_D when the ratio stays under 0.4 (the
#: published operating points themselves run at ratios up to ~0.36).
HIERARCHY_RATIO_MAX = 0.4

#: Counter-rotating sidebands are negligible while |gc/D| stays below 1e-2.
RWA_RATIO_MAX = 0.01

#: The record keys of the effective JC model's parameters, in params.MODEL_FIELDS order.
EFFECTIVE_MODEL = ("omega1_eff", "omega2_eff", "Omega1_eff", "Omega2_eff", "gr1", "gr2")


# ---------------------------------------------------------------------------
# the record's helpers: every argument may be a float or an array, elementwise.
# Plain operators serve both; the few steps that need a numpy call on arrays
# keep a Python branch for floats so the one-point form stays cheap:
# acceptance criterion 6 (10,019 effective_point calls in under 1 s) takes
# about ten times as long through array reads.


def _clip(x, bound):
    if isinstance(x, np.ndarray):
        return np.clip(x, -bound, bound)
    return max(-bound, min(bound, x))


def _as_int(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.int64)
    return int(x)


def _ratio_or_inf(num, den):
    """|num / den|, infinite where den == 0."""
    if isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den != 0.0, abs(num / den), np.inf)
    return abs(num / den) if den != 0.0 else math.inf


def _argmin_order(base, omega_d):
    """Integer n in [-LIMIT, LIMIT] minimizing |base + n * omega_d|, and the
    minimized value base + n * omega_d; n is returned as a float.

    Exact ties are broken toward the more negative integer so sweeps are
    deterministic.  x // 1.0 is floor(x), elementwise on arrays.
    """
    target = _clip(-base / omega_d, SIDEBAND_SEARCH_LIMIT)
    lo = target // 1.0
    hi = -(-target // 1.0)
    n = lo + (hi - lo) * (abs(base + hi * omega_d) < abs(base + lo * omega_d))
    return n, base + n * omega_d


def _sideband_bases(omega1, omega2, Omega1, Omega2):
    """The counter-rotating phases at order zero, D_0 of each mode."""
    w1, w2 = transition_frequencies(omega1, omega2)
    return w1 + Omega1, w2 + Omega2


def _bessel_each(orders, x):
    """bessel_j(order, x) evaluated once per distinct (order, x) pair.

    Within a slice of grid cells theta takes one value per A_D row and the
    sideband orders rarely change, so the scalar Bessel evaluator runs a
    handful of times instead of per cell.  One stable lexsort brings equal
    pairs together, each run of them evaluated at its first cell's pair,
    and the values are scattered back to the cells.
    """
    if not isinstance(x, np.ndarray):
        return bessel_j(int(orders), x)
    orders, x = np.broadcast_arrays(orders, x)
    order = np.lexsort((x.ravel(), orders.ravel()))
    n, z = orders.ravel()[order], x.ravel()[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (n[1:] != n[:-1]) | (z[1:] != z[:-1])
    values = np.array([bessel_j(*pair) for pair in zip(n[first].tolist(),
                                                        z[first].tolist())])
    out = np.empty(order.size)
    out[order] = values[np.cumsum(first) - 1]
    return out.reshape(x.shape)


def _record(omega1, omega2, Omega1, Omega2, g1, g2, amplitude, frequency) -> dict:
    """The effective-parameter record, elementwise: theta, the sideband
    orders and signed phases, the detunings, the effective frequencies and
    couplings, the validity ratios and the two verdicts.

    hierarchy_ok: every scale the drive must dominate (detunings, minimized
    sideband phases, both couplings) stays below HIERARCHY_RATIO_MAX of
    omega_D.  rwa_ok: both counter-rotating sideband couplings stay below
    RWA_RATIO_MAX of their oscillation frequency.
    """
    theta = amplitude / frequency
    w1, w2 = transition_frequencies(omega1, omega2)
    d1, d2 = w1 - Omega1, w2 - Omega2
    base1, base2 = _sideband_bases(omega1, omega2, Omega1, Omega2)
    n0, dn = _argmin_order(base1, frequency)
    m0, dm = _argmin_order(base2, frequency)
    n0, m0 = _as_int(n0), _as_int(m0)
    gc1, gc2 = g1 * _bessel_each(n0, theta), g2 * _bessel_each(m0, 2.0 * theta)
    hierarchy = {"delta1/omega_D": abs(d1) / frequency,
                 "delta2/omega_D": abs(d2) / frequency,
                 "Delta_n0/omega_D": abs(dn) / frequency,
                 "Delta_m0/omega_D": abs(dm) / frequency,
                 "g1/omega_D": g1 / frequency, "g2/omega_D": g2 / frequency}
    # A vanishing sideband phase makes the counter-rotating term secular:
    # report the ratio as infinite and fail the audit outright.
    rwa = {"gc1/Delta_n0": _ratio_or_inf(gc1, dn),
           "gc2/Delta_m0": _ratio_or_inf(gc2, dm)}
    hierarchy_ok = rwa_ok = True
    for r in hierarchy.values():
        hierarchy_ok = hierarchy_ok & (r < HIERARCHY_RATIO_MAX)
    for r in rwa.values():
        rwa_ok = rwa_ok & (r < RWA_RATIO_MAX)
    return {"theta": theta, "n0": n0, "m0": m0, "Delta_n0": dn, "Delta_m0": dm,
            "delta1": d1, "delta2": d2,
            "Omega1_eff": (dn - d1) / 2.0, "Omega2_eff": (dm - d2) / 2.0,
            "omega1_eff": ((2.0 * d1 - d2) + (2.0 * dn - dm)) / 6.0,
            "omega2_eff": ((2.0 * d2 - d1) + (2.0 * dm - dn)) / 6.0,
            "gr1": g1 * _bessel_each(0, theta), "gr2": g2 * _bessel_each(0, 2.0 * theta),
            "gc1": gc1, "gc2": gc2, **hierarchy, **rwa,
            "hierarchy_ok": hierarchy_ok, "rwa_ok": rwa_ok}


def effective_table(omega1, omega2, Omega1, Omega2, g1, g2, amplitude,
                    frequency) -> dict[str, np.ndarray]:
    """The effective-parameter record (see _record) of every element of the
    broadcast model and drive arrays; every value has the broadcast shape."""
    (omega1, omega2, Omega1, Omega2, g1, g2, amplitude, frequency) = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in
          (omega1, omega2, Omega1, Omega2, g1, g2, amplitude, frequency)))
    bad = ~(np.isfinite(frequency) & (frequency > 0))
    if np.any(bad):
        raise ValueError(f"finite drive frequency > 0 required, got {frequency[bad][0]}")
    return _record(omega1, omega2, Omega1, Omega2, g1, g2, amplitude, frequency)


def effective_point(sys: SystemParams, drive: DriveParams) -> dict:
    """The effective-parameter record of one model and drive: effective_table's
    keys, as Python floats, ints and bools, equal to its element bit for bit."""
    return _record(sys.omega1, sys.omega2, sys.Omega1, sys.Omega2, sys.g1, sys.g2,
                   drive.amplitude, drive.frequency)
