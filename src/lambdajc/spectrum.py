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
category_index maps a label, or arrays of them, to its index into
CATEGORIES, the names of the four phases.

The lowest eigenvalue of each block is computed by the closed-form
trigonometric solution of the symmetric 3x3 characteristic polynomial with
a Newton polish and an exact-diagonal fallback.

Every cell, and every block in the kernel, is evaluated at unit scale:
divided by 2^e, e the frexp exponent of its largest magnitude, with its
energies multiplied back.  That changes no rounding, so no result depends
on the unit the frequencies (with hbar = 1, energies) are written in.

Grids are evaluated by one engine, compute_grid_cells, over the slices
chunk_slices cuts a flattened grid (row-major) into, in the library and
the CLI alike.  Each block's lowest eigenvalue is bounded below by Weyl's
inequality, the smallest diagonal minus hypot(h12, h13), which has the
closed form
    L(n, m) = Omega1*n + Omega2*m + c - sqrt(g1^2 (n+1) + g2^2 m),
    c = min(omega1 + omega2 - Omega2, -omega1 + Omega1 - Omega2, -omega2),
built per cell from per-n and per-m parts without any block element.  The
kernel first evaluates the two blocks of smallest L per cell; tau, the
larger of their energies, bounds the cell's second-lowest energy from
above.  Then it evaluates every other block with L within a rounding
margin of tau, building only those blocks' elements.  The rest cannot be
the first or second lowest, so they enter the table as +inf.  Each cell's
label is the first minimum of its flattened table and its gap the next
entry up, with the bytes a table of every block's energy gives.  At
resonance L is each block's energy, so about two blocks per cell are
evaluated.  Driven slices first pass through
effective.effective_table, so sidebands, effective parameters and the
validity audit are array code too.  ground_search, static or driven, is a
one-cell slice of the same core, and returns that cell's record (energy,
labels, gap, window flag and both validity audits) as Python scalars;
sweep_grid returns the same seven keys as arrays in grid shape.
check_sweep is the one rule of a valid
sweep, for the grids (before any kernel call), the CLI and ground_search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective import effective_table
from .params import (
    DRIVE_AXES,
    MODEL_FIELDS,
    DriveParams,
    SystemParams,
    from_sweep_values,
    sweep_values,
)
from .specfun import MAX_ARGUMENT

STATIC_BLOCK_WINDOW = 8
DRIVEN_BLOCK_WINDOW = 5
BOUNDARY_RATIO_TOL = 1e-4

_TWO_PI_3 = 2.0 * np.pi / 3.0


#: The phase categories, indexed by category_index.
CATEGORIES = ("normal", "y2", "y1", "mixed")


def category_index(n_label, m_label) -> np.ndarray:
    """The index into CATEGORIES of a label, or of every cell of label arrays."""
    return 2 * (np.asarray(n_label) != 0) + (np.asarray(m_label) != 0)


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


def block_matrix(sys: SystemParams, n_ph: int, m_ph: int) -> np.ndarray:
    """The 3x3 symmetric block for photon label (n_ph, m_ph)."""
    if n_ph < 0 or m_ph < 0:
        raise ValueError(f"photon labels must be non-negative, got ({n_ph}, {m_ph})")
    h11, h22, h33, h12, h13 = _block_elements(
        sys.omega1, sys.omega2, sys.Omega1, sys.Omega2, sys.g1, sys.g2, n_ph, m_ph)
    return np.array([
        [h11, h12, h13],
        [h12, h22, 0.0],
        [h13, 0.0, h33],
    ])


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
    underflows det_b is the determinant of (A - qI)/p.  Elementwise over
    the broadcast inputs: each output depends only on its own five, so
    evaluating a subset of blocks gives the same bytes.
    """
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


def block_ground_energy(matrix: np.ndarray) -> float:
    """Lowest eigenvalue of one 3x3 dressed block (block_matrix)."""
    return float(_lowest_eig_sym3(matrix[0, 0], matrix[1, 1], matrix[2, 2],
                                  matrix[0, 1], matrix[0, 2]))


def _lower_bounds(model, block_window: int) -> np.ndarray:
    """(cells, blocks) closed-form Weyl bound L(n, m) (module docstring) of
    every block of the window, from per-n and per-m parts of shape
    (cells, W+1), without any block element."""
    omega1, omega2, Omega1, Omega2, g1, g2 = (a[:, None] for a in model)
    k = np.arange(block_window + 1.0)
    c = np.minimum(np.minimum(omega1 + omega2 - Omega2, -omega1 + Omega1 - Omega2), -omega2)
    root = (g1 * g1 * (k + 1.0))[:, :, None] + (g2 * g2 * k)[:, None, :]
    np.sqrt(root, out=root)
    low = (Omega1 * k)[:, :, None] + (Omega2 * k + c)[:, None, :]
    low -= root
    return low.reshape(low.shape[0], -1)


def _blocks_at(model, block_window: int, index) -> tuple:
    """Elements of the blocks at flat indices of a (cells, blocks) table of
    the window's blocks in row-major (n, m) order."""
    cell, block = np.divmod(index, (block_window + 1) ** 2)
    n, m = np.divmod(block, block_window + 1)
    return _block_elements(*(a[cell] for a in model), n, m)


#: A block is evaluated when its closed-form lower bound is within
#: 2 * PRUNE_MARGIN * 2(W+1) of its cell's threshold.  Cells are searched at
#: unit scale, where every element of a W-window block lies below 2(W+1)
#: (|h11| and |h22| come near it at W = 1): one PRUNE_MARGIN * 2(W+1) covers
#: the rounding of the elements and of the kernel.  The closed form rounds
#: about ten times, each by at most half an ulp of a value below 4(W+1),
#: some 1e-14 (W+1) in all, which the second share covers many times over.
PRUNE_MARGIN = 1e-12


def _pruned_ground_table(model, block_window: int, finite) -> np.ndarray:
    """(cells, blocks) table of the lowest eigenvalue of each block whose
    lower bound can reach its cell's two lowest energies, +inf elsewhere.

    model holds the six parameter arrays of the cells at unit scale: each
    cell's largest |parameter| lies below 1.  The lower bounds come in
    closed form (_lower_bounds).  Per cell, the kernel first evaluates the
    two blocks of smallest bound, and tau is the larger of their energies:
    two energies lie at or below it, so it bounds the cell's second-lowest
    energy from above.  A block whose lower bound exceeds tau (plus the
    margin) lies strictly above that energy, and replacing it by +inf
    leaves the first minimum, its energy and the second-lowest energy as
    a table of every block has them.  The kernel's second call evaluates
    every other block within reach, gathering only their elements; with
    none in reach it is not made, since an empty call costs about as much
    as a small one.  A cell that is not finite has no bounds and is
    evaluated in full.
    """
    if block_window < 1:
        raise ValueError(f"block_window >= 1 required, got {block_window}")
    # non-finite cells give NaN bounds, which are not used
    with np.errstate(invalid="ignore"):
        low = _lower_bounds(model, block_window)
    cells, blocks = low.shape
    first = np.arange(0, cells * blocks, blocks)
    picked = []
    for _ in range(2):
        picked.append(first + np.argmin(low, axis=1))
        # a picked bound leaves the search, and the keep test below
        low.flat[picked[-1]] = np.inf
    picked = np.stack(picked, axis=1)
    energy = _lowest_eig_sym3(*_blocks_at(model, block_window, picked))
    tau = np.max(energy, axis=1)
    margin = 2 * PRUNE_MARGIN * 2 * (block_window + 1)
    keep = (low <= (tau + margin)[:, None]) | ~finite[:, None]
    keep.flat[picked] = False  # the picked blocks of non-finite cells
    rest = np.flatnonzero(keep)
    table = np.full(low.shape, np.inf)
    table.flat[picked] = energy
    if rest.size:
        table.flat[rest] = _lowest_eig_sym3(*_blocks_at(model, block_window, rest))
    return table


def _search_tables(table: np.ndarray, window: int, forced_cap) -> dict:
    """Ground label, energy, gap and window flag of each cell of a (cells,
    blocks) table, as arrays under the keys of ground_search's record."""
    rows = np.arange(table.shape[0])
    k = np.argmin(table, axis=1)  # first minimum in C order = lexicographic tie-break
    energy = table[rows, k]
    # the second-lowest entry, ties included; a NaN cell has a NaN energy
    # (argmin finds NaN first), so its gap is NaN whatever the second
    rest = table.copy()
    rest[rows, k] = np.inf
    second = rest.min(axis=1)
    n_lab, m_lab = np.divmod(k, window + 1)
    return {
        "energy": energy,
        "n_label": n_lab,
        "m_label": m_lab,
        "gap": np.maximum(second - energy, 0.0),
        "window_capped": forced_cap | (n_lab == window) | (m_lab == window),
    }


_EFFECTIVE_MODEL = ("omega1_eff", "omega2_eff", "Omega1_eff", "Omega2_eff", "gr1", "gr2")


def _ground_cells(fields: dict[str, np.ndarray], block_window: int) -> dict:
    """The slice core: ground search of every cell of equal-length field arrays.

    fields holds the six model fields, plus A_D and omega_D for a driven
    slice.
    Each cell's six model parameters are divided by 2^e, e the frexp
    exponent of its largest |parameter| (0 for a zero, inf or NaN), and its
    energy and gap are multiplied back.  The blocks of all cells are
    pruned by their closed-form bounds (_pruned_ground_table), and the
    rest go through one or two kernel calls.
    Returns the cell record, an array for each key of ground_search's; a
    static cell passes both validity audits.
    """
    model = [fields[k] for k in MODEL_FIELDS]
    audits = {k: np.ones(len(model[0]), dtype=bool) for k in ("rwa_ok", "hierarchy_ok")}
    forced = False
    if "omega_D" in fields:
        eff = effective_table(*model, fields["A_D"], fields["omega_D"])
        model = [eff[k] for k in _EFFECTIVE_MODEL]
        audits = {k: eff[k] for k in audits}
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
    return {**cells, **audits}


def block_window_for(driven: bool, block_window: int | None = None) -> int:
    """block_window, or when None the driven or the static default."""
    default = DRIVEN_BLOCK_WINDOW if driven else STATIC_BLOCK_WINDOW
    return default if block_window is None else block_window


def ground_search(sys: SystemParams, drive: DriveParams | None = None,
                  block_window: int | None = None) -> dict:
    """Global ground block over labels in [0, block_window]^2 of the model,
    or with a drive of the effective model (effective.effective_point's
    parameters, signs included): the cell of a one-cell sweep_grid, as a
    dict of Python scalars with the keys and bits of compute_grid_cells's
    cells, audits included.

    Exact energy ties resolve to the lexicographically smallest label.  The
    window_capped flag reports an argmin sitting on the window edge, i.e. a
    window too small to trust, as a non-positive effective cavity frequency
    makes it by construction.
    """
    check_sweep(sys, drive, ())
    cells = _ground_cells({k: np.array([v]) for k, v in sweep_values(sys, drive).items()},
                          block_window_for(drive is not None, block_window))
    return {k: v.item() for k, v in cells.items()}


# ---------------------------------------------------------------------------
# grids


#: Cells per slice of a sweep's flattened cell index: the unit of work of
#: sweep_grid, and of the CLI's workers and resuming.
#: 1024 by measurement on five sweeps (CHANGES.md): 512 was slower on each, 2048 when pooled.
CHUNK_CELLS = 1024


def chunk_slices(cells: int) -> list[tuple[int, int]]:
    """(start, stop) of each CHUNK_CELLS-cell slice of a sweep of cells
    cells, in index order; only the last may be shorter."""
    return [(k, min(k + CHUNK_CELLS, cells)) for k in range(0, cells, CHUNK_CELLS)]


def check_sweep(sys: SystemParams, drive: DriveParams | None, axes) -> None:
    """Raise ValueError unless sweeping sys (and drive, when not None) over
    the AxisSpecs axes is valid: no parameter swept twice, each a field of
    the model or drive, the first and last value of each valid for it
    (every field constraint is a bound, and axis values increase) and the
    largest Bessel argument 2 A_D / omega_D within specfun.MAX_ARGUMENT."""
    values = sweep_values(sys, drive)
    parameters = [axis.parameter for axis in axes]
    for axis in axes:
        if parameters.count(axis.parameter) > 1:
            raise ValueError(f"sweep parameter {axis.parameter!r} is swept twice")
        if axis.parameter not in values:
            raise ValueError(f"sweep parameter {axis.parameter!r} is not a field of "
                             f"the {'model or drive' if drive else 'undriven model'}")
        for end in axis.values[[0, -1]].tolist():
            try:
                from_sweep_values({**values, axis.parameter: end})
            except ValueError as exc:
                raise ValueError(f"sweep axis {axis.name!r}: {exc}") from exc
    if drive is not None:
        ends = {k: (values[k], values[k]) for k in DRIVE_AXES}
        ends.update((axis.parameter, axis.values[[0, -1]]) for axis in axes)
        argument = 2.0 * ends["A_D"][-1] / ends["omega_D"][0]
        if argument > MAX_ARGUMENT:
            raise ValueError(f"drive: Bessel argument 2*A_D/omega_D reaches {argument:g}, "
                             f"above the supported {MAX_ARGUMENT:g}")


def compute_grid_cells(sys: SystemParams, drive: DriveParams | None, axis1: AxisSpec,
                       axis2: AxisSpec, block_window: int, start: int,
                       stop: int) -> dict[str, np.ndarray]:
    """Cells start to stop of the grid's flattened index (row-major, axis2
    fastest), as arrays keyed like ground_search's record: one pruned block
    table and one or two kernel calls, once check_sweep passes the whole
    sweep.  Each cell depends only on its own parameters, so no byte
    depends on the slicing or on how slices are spread across workers."""
    check_sweep(sys, drive, (axis1, axis2))
    values = sweep_values(sys, drive)
    for axis, index in zip((axis1, axis2), np.divmod(np.arange(start, stop),
                                                     axis2.values.size)):
        values[axis.parameter] = axis.values[index]
    fields = {k: np.broadcast_to(np.asarray(v, dtype=float), (stop - start,))
              for k, v in values.items()}
    return _ground_cells(fields, block_window)


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


def deviation_lines(counts: list[int], total: int, unit: str,
                    block_window: int | None) -> list[str]:
    """One "count/total unit what" line per audit that some of total cells
    fail, from audit_counts summed over them."""
    return [f"{count}/{total} {unit} {what.format(block_window)}"
            for count, (_, _, what) in zip(counts, AUDITS) if count]


def sweep_grid(sys_template: SystemParams, drive_template: DriveParams | None,
               axis1: AxisSpec, axis2: AxisSpec,
               block_window: int) -> dict[str, np.ndarray]:
    """Dense ground-state sweep over two axes (static when drive is None):
    compute_grid_cells's cells over the slices of chunk_slices, joined and
    shaped (axis1 points, axis2 points), under the seven keys of
    ground_search's record."""
    shape = (axis1.values.size, axis2.values.size)
    parts = [compute_grid_cells(sys_template, drive_template, axis1, axis2,
                                block_window, start, stop)
             for start, stop in chunk_slices(shape[0] * shape[1])]
    return {k: np.concatenate([p[k] for p in parts]).reshape(shape) for k in parts[0]}


# ---------------------------------------------------------------------------
# boundary localization


def locate_boundary(sys: SystemParams, parameter: str,
                    block_a: tuple[int, int], block_b: tuple[int, int],
                    lo: float, hi: float, tol: float | None = None) -> float:
    """Bisect the level crossing E_a(x) = E_b(x) of two blocks along one
    model parameter in lo < hi, both valid for it (check_sweep).  tol
    defaults to BOUNDARY_RATIO_TOL scaled by the matching cavity frequency
    for coupling parameters and must be positive; the bisection also ends
    when lo and hi are adjacent floats.
    """
    if not lo < hi:
        raise ValueError(f"bracket must have lo < hi, got [{lo}, {hi}]")
    check_sweep(sys, None, [AxisSpec(parameter, parameter, np.array([lo, hi]))])
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
