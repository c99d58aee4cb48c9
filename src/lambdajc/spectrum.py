"""Dressed-state block spectrum and ground-state phase diagrams.

The excitation-conserving model couples each product state to at most two
others, so the full Hamiltonian splits into 3x3 blocks labelled by a photon
pair (n_ph, m_ph).  In the ordered basis

    |upper,  n_ph,   m_ph-1>,  |lower1, n_ph+1, m_ph-1>,  |lower2, n_ph, m_ph>

the block reads

    H11 = omega1 + omega2 + Omega1*n_ph + Omega2*(m_ph - 1)
    H22 = -omega1 + Omega1*(n_ph + 1) + Omega2*(m_ph - 1)
    H33 = -omega2 + Omega1*n_ph + Omega2*m_ph
    H12 = g1*sqrt(n_ph + 1)     H13 = g2*sqrt(m_ph)     H23 = 0

with the identities H11 - H22 = delta1 and H11 - H33 = delta2.

m_ph = 0 blocks are evaluated verbatim from these formulas, including the
formally unphysical Omega2*(m-1) = -Omega2 offset and the two basis states
with photon index -1.  This convention is deliberate: it is the block
family whose level crossings put the first mode-1 transition at
g1/Omega1 = 1/(sqrt(2)-1) ~ 2.414, the first mode-2 transition at
g2/Omega2 = 1 (for g1 = 0), and the triple point near (2.414, 2.652) - the
critical topology the phase diagrams are built on.  The physical
one-dimensional edge sectors (lower2 with both modes empty, etc.) are
intentionally excluded from the ground search.

Phase taxonomy over the block label of the global ground state:
(0,0) normal; (n>0, 0) type y1; (0, m>0) type y2; (n>0, m>0) mixed.

The lowest eigenvalue of each block is computed by the closed-form
trigonometric solution of the symmetric 3x3 characteristic polynomial with
a Newton polish and an exact-diagonal fallback.

Every cell, and every block in the kernel, is evaluated at unit scale:
divided by 2^e, e the frexp exponent of its largest magnitude, with its
energies multiplied back.  That changes no rounding, so no result depends
on the unit the frequencies (with hbar = 1, energies) are written in.

Grids are evaluated by one row engine.  compute_grid_row broadcasts the
swept field over the axis-2 values and builds the elements of every
cell's blocks once.  Each block's lowest eigenvalue is bounded below by
Weyl's inequality (smallest diagonal minus hypot(h12, h13)) and above by
the smallest diagonal or a Rayleigh quotient that is exact at resonance.
Only blocks whose lower bound reaches the cell's second-smallest upper
bound, within a rounding margin, go through the kernel, in one call per
row; the others cannot be the first or second lowest, so they enter the
table as +inf.  Each cell's label is the first minimum of its flattened
table and its gap comes from a partition, with the bytes the full table
(ground_energy_table) gives.  Driven rows first pass the whole row through
effective.effective_table, so sidebands, effective parameters and the
validity audit are array code too.  ground_search and driven_phase_point
are one-cell rows of the same core; no per-cell parameter objects are
built on the grid path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .effective import RATIO_NAMES, ValidityReport, effective_table
from .params import (
    MODEL_FIELDS,
    DriveParams,
    SystemParams,
    from_sweep_values,
    sweep_values,
    transition_frequencies,
)

STATIC_BLOCK_WINDOW = 8
DRIVEN_BLOCK_WINDOW = 5
BOUNDARY_RATIO_TOL = 1e-4

_TWO_PI_3 = 2.0 * np.pi / 3.0


class PhaseCategory(str, Enum):
    NORMAL = "normal"
    Y1 = "y1"
    Y2 = "y2"
    MIXED = "mixed"


#: Category values indexed by 2 * (n_label != 0) + (m_label != 0).
_CATEGORY_VALUES = np.array([c.value for c in (PhaseCategory.NORMAL, PhaseCategory.Y2,
                                               PhaseCategory.Y1, PhaseCategory.MIXED)])


def category_values(n_label, m_label) -> np.ndarray:
    """The PhaseCategory value of every cell of the label arrays."""
    return _CATEGORY_VALUES[2 * (np.asarray(n_label) != 0) + (np.asarray(m_label) != 0)]


def categorize(n_label: int, m_label: int) -> PhaseCategory:
    return PhaseCategory(category_values(n_label, m_label))


@dataclass(frozen=True)
class DressedBlock:
    n_ph: int
    m_ph: int
    matrix: np.ndarray


@dataclass(frozen=True)
class PhasePoint:
    label: tuple[int, int]
    category: PhaseCategory
    energy: float
    gap: float
    window_capped: bool = False


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a display name, the model field it drives, and the
    strictly increasing raw values it takes."""

    name: str
    parameter: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError(f"axis {self.name!r} must hold at least one value")
        if vals.size > 1 and not np.all(np.diff(vals) > 0):
            raise ValueError(f"axis {self.name!r} must be strictly increasing")
        object.__setattr__(self, "values", vals)


@dataclass
class PhaseGrid:
    axis1: AxisSpec
    axis2: AxisSpec
    block_window: int
    energy: np.ndarray
    n_label: np.ndarray
    m_label: np.ndarray
    gap: np.ndarray
    window_capped: np.ndarray
    rwa_ok: np.ndarray
    hierarchy_ok: np.ndarray
    deviations: list[str] = field(default_factory=list)

    def cell(self, i: int, j: int) -> PhasePoint:
        return _point(vars(self), (i, j))


#: The per-cell arrays of a PhaseGrid, which compute_grid_row returns per row.
CELL_FIELDS = ("energy", "n_label", "m_label", "gap", "window_capped", "rwa_ok",
               "hierarchy_ok")


def _point(cells, index) -> PhasePoint:
    """The PhasePoint at index of per-cell arrays keyed like PhaseGrid."""
    label = (int(cells["n_label"][index]), int(cells["m_label"][index]))
    return PhasePoint(
        label=label,
        category=categorize(*label),
        energy=float(cells["energy"][index]),
        gap=float(cells["gap"][index]),
        window_capped=bool(cells["window_capped"][index]),
    )


# ---------------------------------------------------------------------------
# block construction and the closed-form 3x3 ground energy


def _block_elements(omega1, omega2, Omega1, Omega2, g1, g2, n, m):
    """Vectorized block matrix elements; n, m may be arrays."""
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    h11 = omega1 + omega2 + Omega1 * n + Omega2 * (m - 1.0)
    h22 = -omega1 + Omega1 * (n + 1.0) + Omega2 * (m - 1.0)
    h33 = -omega2 + Omega1 * n + Omega2 * m
    h12 = g1 * np.sqrt(n + 1.0)
    h13 = g2 * np.sqrt(m)
    return h11, h22, h33, h12, h13


def block_matrix(sys: SystemParams, n_ph: int, m_ph: int) -> DressedBlock:
    """The 3x3 symmetric block for photon label (n_ph, m_ph)."""
    if n_ph < 0 or m_ph < 0:
        raise ValueError(f"photon labels must be non-negative, got ({n_ph}, {m_ph})")
    h11, h22, h33, h12, h13 = _block_elements(
        sys.omega1, sys.omega2, sys.Omega1, sys.Omega2, sys.g1, sys.g2, n_ph, m_ph)
    mat = np.array([
        [h11, h12, h13],
        [h12, h22, 0.0],
        [h13, 0.0, h33],
    ])
    return DressedBlock(n_ph=n_ph, m_ph=m_ph, matrix=mat)


def _lowest_eig_sym3(h11, h22, h33, h12, h13):
    """Smallest eigenvalue of [[h11,h12,h13],[h12,h22,0],[h13,0,h33]].

    Each block is evaluated at unit scale: its elements are divided by
    2^e, e the frexp exponent of its largest |element| (0 for a zero, inf
    or NaN), and the result is multiplied back.  Scaling by a power of two
    changes no rounding, so the result is homogeneous in the common scale
    of the elements.  Trigonometric closed form, then up to two guarded
    Newton steps on the characteristic polynomial.  A block whose spread
    p = sqrt(p2 / 6) rounds to zero (exactly diagonal, or p2 / 6 below the
    subnormals) short-circuits to the min of its diagonal; where p^3
    underflows det_b is the determinant of (A - qI)/p.  Elementwise: each
    output depends only on its own five inputs, so evaluating a subset of
    blocks gives the same bytes.
    """
    if not all(type(a) is np.ndarray and a.dtype == np.float64
               and a.shape == h11.shape for a in (h11, h22, h33, h12, h13)):
        b = np.broadcast(h11, h22, h33, h12, h13)
        h11, h22, h33, h12, h13 = (np.broadcast_to(a, b.shape).astype(float)
                                   for a in (h11, h22, h33, h12, h13))
    scale, shift = np.frexp(np.maximum(np.maximum(np.maximum(np.abs(h11), np.abs(h22)),
                                                  np.maximum(np.abs(h33), np.abs(h12))),
                                       np.abs(h13)))
    h11, h22, h33, h12, h13 = (np.ldexp(x, -shift) for x in (h11, h22, h33, h12, h13))
    q = (h11 + h22 + h33) / 3.0
    a, bb, e = h11 - q, h22 - q, h33 - q
    p2 = a * a + bb * bb + e * e + 2.0 * (h12 * h12 + h13 * h13)
    p = np.sqrt(p2 / 6.0)
    diagonal = p == 0.0
    p = np.where(diagonal, 1.0, p)
    p3 = p * p * p
    tiny = p3 < np.finfo(float).tiny
    d11, d22, d33, d12, d13 = a, bb, e, h12, h13
    if tiny.any():
        over = np.where(tiny, p, 1.0)
        d11, d22, d33, d12, d13 = (x / over for x in (a, bb, e, h12, h13))
        p3 = np.where(tiny, 1.0, p3)
    det_b = (d11 * (d22 * d33) - d12 * (d12 * d33) - d13 * (d13 * d22)) / p3
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam = q + 2.0 * p * np.cos(phi + _TWO_PI_3)
    lam = np.where(diagonal, np.minimum(np.minimum(h11, h22), h33), lam)

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            u, v, w = h11 - lam, h22 - lam, h33 - lam
            f = u * v * w - h12 * h12 * w - h13 * h13 * v
            df = -(v * w + u * w + u * v) + h12 * h12 + h13 * h13
            step = np.where(np.abs(df) > 0, f / df, 0.0)
            # keep the polish local so it can never hop to another root
            step = np.where(np.abs(step) < 1e-3 * scale, step, 0.0)
            lam = lam - step
    return np.ldexp(lam, shift)


def block_ground_energy(block: DressedBlock) -> float:
    """Lowest eigenvalue of one dressed block."""
    m = block.matrix
    return float(_lowest_eig_sym3(m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2]))


def ground_occupations(block: DressedBlock) -> tuple[float, float]:
    """Mode occupations <n1>, <n2> of the block's ground eigenvector.

    Secondary diagnostic: phase labels are the block indices themselves,
    and this exposes how far the actual photon expectations sit from them
    (the three basis states carry n1 of n, n+1, n and n2 of m-1, m-1, m).
    """
    evals, vecs = np.linalg.eigh(block.matrix)
    weights = np.abs(vecs[:, 0]) ** 2
    n, m = block.n_ph, block.m_ph
    exp_n1 = weights[0] * n + weights[1] * (n + 1) + weights[2] * n
    exp_n2 = weights[0] * (m - 1) + weights[1] * (m - 1) + weights[2] * m
    return float(exp_n1), float(exp_n2)


def _window_elements(params, block_window: int):
    """Elements of every block with labels in [0, block_window]^2: params
    are the six model values, broadcast against the (W+1, W+1) label
    grid."""
    if block_window < 1:
        raise ValueError(f"block_window >= 1 required, got {block_window}")
    n, m = np.mgrid[0:block_window + 1, 0:block_window + 1]
    return _block_elements(*params, n, m)


def ground_energy_table(omega1, omega2, Omega1, Omega2, g1, g2,
                        block_window: int) -> np.ndarray:
    """Ground energies of every block with labels in [0, block_window]^2.

    Takes raw floats rather than SystemParams so the driven engine can feed
    effective parameters that violate the static positivity invariants
    (negative effective frequencies, sign-flipped couplings).  The block
    spectrum only depends on the couplings through their squares.  The
    parameters may also be arrays of shape (..., 1, 1): the result then
    holds one (block_window + 1)^2 table per leading index.
    """
    return _lowest_eig_sym3(*_window_elements(
        (omega1, omega2, Omega1, Omega2, g1, g2), block_window))


def _block_bounds(h11, h22, h33, h12, h13):
    """Lower and upper bounds on each block's lowest eigenvalue.

    Lower (Weyl): the smallest diagonal minus r = hypot(h12, h13), the
    largest eigenvalue of the off-diagonal part.  Upper (Rayleigh-Ritz):
    the smallest diagonal, or the Rayleigh quotient of
    (1, -h12/r, -h13/r)/sqrt(2) when that is lower; at resonance
    (h11 = h22 = h33) both bounds are the eigenvalue itself.
    """
    low_diag = np.minimum(np.minimum(h11, h22), h33)
    w2, w3 = h12 * h12, h13 * h13
    r2 = w2 + w3
    r = np.sqrt(r2)
    # a subnormal r2 leaves the products w * h too few digits to bound
    # the eigenvalue
    coupled = r2 >= np.finfo(float).tiny
    quotient = 0.5 * (h11 + (w2 * h22 + w3 * h33) / np.where(coupled, r2, 1.0)) - r
    return low_diag - r, np.minimum(low_diag, np.where(coupled, quotient, np.inf))


#: A block is evaluated when its lower bound is within PRUNE_MARGIN * 2(W+1)
#: of its cell's threshold.  Cells are searched at unit scale, where every
#: element of a W-window block lies below 2(W+1) (|h11| and |h22| come near
#: it at W = 1), so the margin covers the rounding of the bounds and of the
#: kernel.
PRUNE_MARGIN = 1e-12


def _pruned_ground_table(model, block_window: int, finite) -> np.ndarray:
    """(cells, blocks) table of the lowest eigenvalue of each block whose
    lower bound can reach its cell's two lowest energies, +inf elsewhere.

    model holds the six parameter arrays of the cells at unit scale: each
    cell's largest |parameter| lies below 1.  Per cell, tau is the
    second-smallest upper bound, so at least two energies lie at or below
    it; a block whose lower bound exceeds tau lies strictly above the
    cell's second-lowest energy.  Replacing it by +inf leaves the first
    minimum, its energy and the second-lowest energy as the full table has
    them, and the kernel evaluates the rest with the same bytes.  A cell
    that is not finite has no bounds and is evaluated in full.
    """
    h = [a.reshape(a.shape[0], -1) for a in
         _window_elements([a[:, None, None] for a in model], block_window)]
    # non-finite cells give NaN bounds, which are not used
    with np.errstate(invalid="ignore"):
        lower, upper = _block_bounds(*h)
    tau = np.partition(upper, 1, axis=1)[:, 1]
    margin = PRUNE_MARGIN * 2 * (block_window + 1)
    keep = np.flatnonzero((lower <= (tau + margin)[:, None]) | ~finite[:, None])
    table = np.full(lower.shape, np.inf)
    table.flat[keep] = _lowest_eig_sym3(*(a.take(keep) for a in h))
    return table


def _search_tables(tables: np.ndarray, window: int, forced_cap=False) -> dict:
    """Ground label, energy, gap and window flag of each table stacked along
    axis 0, as arrays keyed like PhaseGrid."""
    flat = tables.reshape(tables.shape[0], -1)
    k = np.argmin(flat, axis=1)  # first minimum in C order = lexicographic tie-break
    energy = np.take_along_axis(flat, k[:, None], axis=1)[:, 0]
    second = np.partition(flat, 1, axis=1)[:, 1]
    n_lab, m_lab = np.divmod(k, window + 1)
    return {
        "energy": energy,
        "n_label": n_lab,
        "m_label": m_lab,
        "gap": np.maximum(second - energy, 0.0),
        "window_capped": forced_cap | (n_lab == window) | (m_lab == window),
    }


_EFFECTIVE_MODEL = ("omega1_eff", "omega2_eff", "Omega1_eff", "Omega2_eff", "gr1", "gr2")


def _ground_cells(fields: dict[str, np.ndarray],
                  block_window: int) -> tuple[dict, dict | None]:
    """The row core: ground search of every cell of equal-length field arrays.

    fields holds the six model fields, plus A_D and omega_D for a driven
    row.
    Each cell's six model parameters are divided by 2^e, e the frexp
    exponent of its largest |parameter| (0 for a zero, inf or NaN), and its
    energy and gap are multiplied back.  The blocks of all cells are built
    once and pruned by their bounds (_pruned_ground_table), and the rest go
    through one kernel call.
    Returns the per-cell arrays keyed like PhaseGrid and, when driven, the
    effective_table the blocks were built from.
    """
    model = [fields[k] for k in MODEL_FIELDS]
    eff = None
    forced = False
    if "omega_D" in fields:
        eff = effective_table(*model, fields["A_D"], fields["omega_D"])
        model = [eff[k] for k in _EFFECTIVE_MODEL]
        # a non-positive effective cavity frequency sends the block energies
        # down without bound in that photon index
        forced = (eff["Omega1_eff"] <= 0.0) | (eff["Omega2_eff"] <= 0.0)
    largest = np.max(np.abs(model), axis=0)
    shift = np.frexp(largest)[1]
    table = _pruned_ground_table([np.ldexp(a, -shift) for a in model], block_window,
                                 np.isfinite(largest))
    cells = _search_tables(table, block_window, forced)
    for key in ("energy", "gap"):
        cells[key] = np.ldexp(cells[key], shift)
    return cells, eff


def _one_cell(sys: SystemParams, drive: DriveParams | None = None) -> dict:
    return {k: np.array([v]) for k, v in sweep_values(sys, drive).items()}


def ground_search(sys: SystemParams, block_window: int = STATIC_BLOCK_WINDOW) -> PhasePoint:
    """Global ground block over labels in [0, block_window]^2.

    Exact energy ties resolve to the lexicographically smallest label.  The
    window_capped flag reports an argmin sitting on the window edge, i.e. a
    window too small to trust.
    """
    cells, _ = _ground_cells(_one_cell(sys), block_window)
    return _point(cells, 0)


def driven_phase_point(sys: SystemParams, drive: DriveParams,
                       block_window: int = DRIVEN_BLOCK_WINDOW,
                       ) -> tuple[PhasePoint, ValidityReport]:
    """Ground block of the drive-renormalized model.

    The effective frequencies and zeroth-sideband couplings replace the
    bare parameters verbatim - signs included.  A non-positive effective
    cavity frequency makes the block energies decrease without bound in
    that photon index, so the argmin lands on the window edge by
    construction; the window_capped flag records this rather than
    rejecting the point.
    """
    cells, eff = _ground_cells(_one_cell(sys, drive), block_window)
    report = ValidityReport(ratios={k: float(eff[k][0]) for k in RATIO_NAMES},
                            hierarchy_ok=bool(eff["hierarchy_ok"][0]),
                            rwa_ok=bool(eff["rwa_ok"][0]))
    return _point(cells, 0), report


# ---------------------------------------------------------------------------
# grids


def _row_fields(sys: SystemParams, drive: DriveParams | None, axis1: AxisSpec,
                axis2: AxisSpec, i: int) -> dict[str, np.ndarray]:
    """Field arrays of row i: axis1 fixed at its i-th value, axis2 swept."""
    if axis1.parameter == axis2.parameter:
        raise ValueError(f"sweep parameter {axis1.parameter!r} is swept twice")
    values = sweep_values(sys, drive)
    for axis, value in ((axis1, axis1.values[i]), (axis2, axis2.values)):
        if axis.parameter not in values:
            raise ValueError(f"sweep parameter {axis.parameter!r} is not a field of "
                             f"the {'model or drive' if drive else 'undriven model'}")
        values[axis.parameter] = value
    # every field constraint is a bound and axis2 increases, so its two
    # ends validate the row
    for end in (axis2.values[0], axis2.values[-1]):
        from_sweep_values({**values, axis2.parameter: end})
    return {k: np.broadcast_to(np.asarray(v, dtype=float), (axis2.values.size,))
            for k, v in values.items()}


def compute_grid_row(sys_template: SystemParams, drive_template: DriveParams | None,
                     axis1: AxisSpec, axis2: AxisSpec, block_window: int,
                     i: int) -> dict[str, np.ndarray]:
    """All cells of one axis1 row, in axis2 order, as arrays keyed like
    PhaseGrid.

    The row is one (n2, W+1, W+1) block table, pruned by bounds, and one
    kernel call; each cell's result depends only on its own parameters, so
    the arrays do not depend on how rows are batched across workers.
    """
    fields = _row_fields(sys_template, drive_template, axis1, axis2, i)
    row, eff = _ground_cells(fields, block_window)
    for key in ("rwa_ok", "hierarchy_ok"):
        row[key] = eff[key] if eff is not None else np.ones(axis2.values.size, dtype=bool)
    return row


#: (cell key, the value that flags a cell, what a flagged cell is) of each
#: deviation line, in manifest order.
AUDITS = (("window_capped", True, "window-capped (block_window={})"),
          ("rwa_ok", False, "fail the counter-rotating validity rule"),
          ("hierarchy_ok", False, "fail the drive-hierarchy validity rule"))


def audit_counts(cells: dict[str, np.ndarray]) -> list[int]:
    """How many cells fail each audit, in AUDITS order; 0 for an audit
    whose key cells lacks."""
    return [int(np.count_nonzero(cells[key] == flag)) if key in cells else 0
            for key, flag, _ in AUDITS]


def deviation_lines(counts: list[int], total: int, unit: str = "cells",
                    block_window: int | None = None) -> list[str]:
    """One "count/total unit what" line per audit that some of total cells
    fail, from audit_counts summed over them."""
    return [f"{count}/{total} {unit} {what.format(block_window)}"
            for count, (_, _, what) in zip(counts, AUDITS) if count]


def assemble_grid(axis1: AxisSpec, axis2: AxisSpec, block_window: int,
                  rows: list[dict[str, np.ndarray]]) -> PhaseGrid:
    """Stack computed rows into a PhaseGrid and tally its deviations."""
    stack = {k: np.stack([r[k] for r in rows]) for k in rows[0]}
    deviations = deviation_lines(audit_counts(stack), stack["energy"].size,
                                 "cells", block_window)
    return PhaseGrid(axis1=axis1, axis2=axis2, block_window=block_window,
                     **stack, deviations=deviations)


def sweep_grid(sys_template: SystemParams, drive_template: DriveParams | None,
               axis1: AxisSpec, axis2: AxisSpec, block_window: int) -> PhaseGrid:
    """Dense ground-state sweep over two axes (static when drive is None)."""
    rows = [compute_grid_row(sys_template, drive_template, axis1, axis2,
                             block_window, i)
            for i in range(axis1.values.size)]
    return assemble_grid(axis1, axis2, block_window, rows)


def phase_grid(sys_template: SystemParams, g1_over_Omega1: np.ndarray,
               g2_over_Omega2: np.ndarray,
               block_window: int = STATIC_BLOCK_WINDOW) -> PhaseGrid:
    """Static phase diagram over the two coupling ratios."""
    ax1 = AxisSpec("g1/Omega1", "g1",
                   np.asarray(g1_over_Omega1, dtype=float) * sys_template.Omega1)
    ax2 = AxisSpec("g2/Omega2", "g2",
                   np.asarray(g2_over_Omega2, dtype=float) * sys_template.Omega2)
    return sweep_grid(sys_template, None, ax1, ax2, block_window)


def driven_phase_grid(sys_template: SystemParams, drive_template: DriveParams,
                      theta_axis: np.ndarray, detuning_ratio_axis: np.ndarray,
                      block_window: int = DRIVEN_BLOCK_WINDOW,
                      detuning_mode: int = 2) -> PhaseGrid:
    """Driven diagram over (theta, detuning ratio) at fixed drive frequency.

    The theta axis is realized by varying the drive amplitude at fixed
    omega_D.  The detuning axis varies the chosen cavity frequency at fixed
    atomic frequencies: for detuning_mode=2 the ratio is delta2/Omega2 and
    Omega2 = (2 omega2 + omega1)/(1 + ratio); mode 1 is the mirror image.
    """
    amp = np.asarray(theta_axis, dtype=float) * drive_template.frequency
    if amp.size > 1 and not np.all(np.diff(amp) > 0):
        raise ValueError("theta axis must be strictly increasing")
    if detuning_mode not in (1, 2):
        raise ValueError(f"detuning_mode must be 1 or 2, got {detuning_mode}")
    base = transition_frequencies(sys_template.omega1,
                                  sys_template.omega2)[detuning_mode - 1]
    parameter, ratio_name = (f"Omega{detuning_mode}",
                             f"delta{detuning_mode}/Omega{detuning_mode}")
    ratios = np.asarray(detuning_ratio_axis, dtype=float)
    cavity_vals = base / (1.0 + ratios)
    ax1 = AxisSpec("theta", "A_D", amp)
    # the cavity frequency decreases as the ratio grows; AxisSpec wants
    # increasing values, so sweep in reversed order and flip back
    order = np.argsort(cavity_vals)
    ax2 = AxisSpec(ratio_name, parameter, cavity_vals[order])
    grid = sweep_grid(sys_template, drive_template, ax1, ax2, block_window)
    inverse = np.argsort(order)
    for key in CELL_FIELDS:
        setattr(grid, key, getattr(grid, key)[:, inverse])
    grid.axis2 = AxisSpec(ratio_name, f"detuning{detuning_mode}_ratio", ratios)
    return grid


# ---------------------------------------------------------------------------
# boundary localization


def locate_boundary(sys: SystemParams, parameter: str,
                    block_a: tuple[int, int], block_b: tuple[int, int],
                    lo: float, hi: float, tol: float | None = None) -> float:
    """Bisect the level crossing E_a(x) = E_b(x) of two blocks along one
    model parameter.  tol defaults to BOUNDARY_RATIO_TOL scaled by the
    matching cavity frequency for coupling parameters and must be positive;
    the bisection also ends when lo and hi are adjacent floats.
    """
    if tol is None:
        scale = {"g1": sys.Omega1, "g2": sys.Omega2}.get(parameter, 1.0)
        tol = BOUNDARY_RATIO_TOL * scale
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def diff(x: float) -> float:
        """E_a - E_b with the parameter at x."""
        sys_x = sys.replace(**{parameter: x})
        return (block_ground_energy(block_matrix(sys_x, *block_a))
                - block_ground_energy(block_matrix(sys_x, *block_b)))

    diff_lo, diff_hi = diff(lo), diff(hi)
    if diff_lo == 0.0:
        return lo
    if diff_hi == 0.0:
        return hi
    if np.sign(diff_lo) == np.sign(diff_hi):
        raise ValueError(
            f"no crossing of blocks {block_a}/{block_b} in [{lo}, {hi}] "
            f"along {parameter}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        diff_mid = diff(mid)
        if diff_mid == 0.0:
            return mid
        if np.sign(diff_mid) == np.sign(diff_lo):
            lo, diff_lo = mid, diff_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def label_sequence(labels) -> list[tuple[int, int]]:
    """Ordered distinct (n, m) labels along a 1-D scan (consecutive
    duplicates collapsed)."""
    out: list[tuple[int, int]] = []
    for n, m in labels:
        lab = (int(n), int(m))
        if not out or out[-1] != lab:
            out.append(lab)
    return out
