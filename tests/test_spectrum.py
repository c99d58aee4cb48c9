import math
import warnings

import numpy as np
import pytest

from lambdajc.effective import HIERARCHY_RATIO_MAX, RWA_RATIO_MAX, effective_point, effective_table
from lambdajc import spectrum
from lambdajc.params import MODEL_FIELDS, DriveParams, SystemParams, sweep_values
from lambdajc.spectrum import (
    _EFFECTIVE_MODEL,
    STATIC_BLOCK_WINDOW,
    CATEGORIES,
    AxisSpec,
    _ground_cells,
    _search_tables,
    audit_counts,
    block_ground_energy,
    block_matrix,
    category_index,
    compute_grid_cells,
    deviation_lines,
    ground_search,
    locate_boundary,
    sweep_grid,
)

from oracles import (
    bessel_signed,
    brute_sideband,
    dense_block_ground,
    dense_ground_table,
    resonant_block_ground,
)
from test_acceptance import label_sequence

RESONANT = SystemParams()


def label(rec) -> tuple[int, int]:
    """The block label of a ground_search record."""
    return rec["n_label"], rec["m_label"]


def category(rec) -> str:
    """The phase category of a ground_search record."""
    return CATEGORIES[category_index(rec["n_label"], rec["m_label"])]


def grid_cell(grid, i, j) -> dict:
    """Cell (i, j) of a sweep_grid record, as Python scalars."""
    return {k: v[i, j].item() for k, v in grid.items()}


def window_elements(model, window):
    """Elements of every block with labels in [0, window]^2: the six model
    values broadcast against the (window+1, window+1) label grid."""
    n, m = np.mgrid[0:window + 1, 0:window + 1]
    return spectrum._block_elements(*model, n, m)


def full_table(model, window):
    """The kernel over every block of the window: the table the pruned
    search must agree with bit for bit."""
    return spectrum._lowest_eig_sym3(*window_elements(model, window))


def random_params(rng):
    return SystemParams(
        omega1=float(rng.uniform(-1.0, 2.0)),
        omega2=float(rng.uniform(-1.0, 2.0)),
        Omega1=float(rng.uniform(0.1, 3.0)),
        Omega2=float(rng.uniform(0.1, 3.0)),
        g1=float(rng.uniform(0.0, 3.0)),
        g2=float(rng.uniform(0.0, 3.0)),
    )


class TestBlockMatrix:
    def test_decoupled_resonant_block_is_scalar(self):
        sys = RESONANT.replace(g1=0.0, g2=0.0)
        block = block_matrix(sys, 0, 1)
        assert np.allclose(block, 0.75 * np.eye(3), atol=1e-15)

    def test_mode2_entry_vanishes_at_m_zero(self):
        block = block_matrix(RESONANT.replace(g2=7.7 / 9), 0, 0)
        assert block[0, 2] == 0.0
        assert block[2, 0] == 0.0

    def test_diagonal_differences_are_detunings(self):
        block = block_matrix(RESONANT.replace(Omega1=1.22), 2, 3)
        assert block[0, 0] - block[1, 1] == pytest.approx(0.03, abs=1e-14)
        assert block[0, 0] - block[2, 2] == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_differences_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            sys = random_params(rng)
            n, m = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            mat = block_matrix(sys, n, m)
            d1 = 2 * sys.omega1 + sys.omega2 - sys.Omega1
            d2 = 2 * sys.omega2 + sys.omega1 - sys.Omega2
            assert mat[0, 0] - mat[1, 1] == pytest.approx(d1, abs=1e-14)
            assert mat[0, 0] - mat[2, 2] == pytest.approx(d2, abs=1e-14)

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            block_matrix(RESONANT, -1, 0)
        with pytest.raises(ValueError):
            block_matrix(RESONANT, 0, -1)


class TestBlockGroundEnergy:
    def test_resonant_closed_form_examples(self):
        sys = RESONANT.replace(g1=0.3, g2=0.4)
        assert block_ground_energy(block_matrix(sys, 0, 1)) == pytest.approx(0.25, abs=1e-13)
        sys = RESONANT.replace(g1=1.0, g2=0.33)
        assert block_ground_energy(block_matrix(sys, 0, 0)) == pytest.approx(-1.25, abs=1e-13)

    def test_decoupled_gives_min_diagonal(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            sys = random_params(rng).replace(g1=0.0, g2=0.0)
            block = block_matrix(sys, int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            assert block_ground_energy(block) == pytest.approx(
                float(np.min(np.diag(block))), abs=1e-13)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(8)
        for _ in range(3000):
            sys = random_params(rng)
            n, m = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            ours = block_ground_energy(block_matrix(sys, n, m))
            ref = dense_block_ground(sys, n, m)
            scale = max(np.abs(block_matrix(sys, n, m)).max(), 1.0)
            assert abs(ours - ref) <= 1e-12 * scale

    def test_resonant_closed_form_random(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            g1, g2 = float(rng.uniform(0, 4)), float(rng.uniform(0, 4))
            n, m = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            sys = RESONANT.replace(g1=g1, g2=g2)
            ours = block_ground_energy(block_matrix(sys, n, m))
            assert ours == pytest.approx(resonant_block_ground(n, m, g1, g2), abs=1e-12)

    def test_monotone_in_couplings(self):
        gs = np.linspace(0.0, 4.0, 81)
        for n, m in ((0, 0), (1, 0), (0, 2), (2, 3)):
            e_g1 = [block_ground_energy(block_matrix(RESONANT.replace(g1=float(g)), n, m))
                    for g in gs]
            assert all(later - earlier <= 1e-12 for earlier, later in zip(e_g1, e_g1[1:]))
            e_g2 = [block_ground_energy(block_matrix(RESONANT.replace(g2=float(g)), n, m))
                    for g in gs]
            assert all(later - earlier <= 1e-12 for earlier, later in zip(e_g2, e_g2[1:]))


class TestKernelRange:
    """The closed form at every scale: each block is evaluated with its
    largest element normalised into [0.5, 1) by a power of two, including
    blocks whose spread cubed underflows (resonant couplings below about
    1e-103) and whose spread squared falls into subnormals."""

    @pytest.mark.parametrize("g1", [1e-110, 1e-200, 1e200])
    def test_every_block_matches_dense_eigensolver(self, g1):
        sys = RESONANT.replace(g1=g1, g2=0.0)
        for n in range(STATIC_BLOCK_WINDOW + 1):
            for m in range(STATIC_BLOCK_WINDOW + 1):
                block = block_matrix(sys, n, m)
                assert block_ground_energy(block) == pytest.approx(
                    np.linalg.eigvalsh(block)[0], rel=1e-12, abs=0.0), (n, m)

    @pytest.mark.parametrize("g1", [1e-110, 1e-200, 1e200])
    def test_ground_search_is_finite(self, g1):
        sys = RESONANT.replace(g1=g1, g2=0.0)
        point = ground_search(sys)
        dense = {(n, m): dense_block_ground(sys, n, m)
                 for n in range(STATIC_BLOCK_WINDOW + 1)
                 for m in range(STATIC_BLOCK_WINDOW + 1)}
        lowest, second = sorted(dense.values())[:2]
        assert label(point) == min(dense, key=dense.get)
        assert point["energy"] == pytest.approx(lowest, rel=1e-12, abs=0.0)
        # at g1 = 1e200 the m labels of n = 8 agree to all digits
        assert point["gap"] == pytest.approx(second - lowest, abs=1e-12 * abs(lowest))

    @pytest.mark.parametrize("k", [340, 530, 600, 1000])
    def test_scale_invariance(self, k):
        # the spectrum is homogeneous in the block elements: scaling every
        # element by 2^-k scales the lowest eigenvalue by exactly 2^-k.
        # Elements are multiples of 2^-20, so the scaled inputs stay normal.
        rng = np.random.default_rng(17)
        params = [rng.uniform(lo, hi, (300, 1, 1)) for lo, hi in
                  ((-1.0, 2.0), (-1.0, 2.0), (0.1, 3.0), (0.1, 3.0), (0.0, 3.0), (0.0, 3.0))]
        h = [np.round(x * 2.0**20) / 2.0**20
             for x in window_elements(params, 4)]
        unit = spectrum._lowest_eig_sym3(*h)
        scaled = spectrum._lowest_eig_sym3(*(np.ldexp(x, -k) for x in h))
        assert np.array_equal(scaled, np.ldexp(unit, -k))

    def test_scaled_static_grid_keeps_its_labels(self):
        # the static sample model and a 7x7 coupling grid with every
        # frequency and coupling scaled by 2^-540
        def grid(k):
            sys = SystemParams(omega1=math.ldexp(0.5, k), omega2=math.ldexp(0.25, k),
                               Omega1=math.ldexp(1.25, k), Omega2=math.ldexp(1.0, k))
            ax1 = AxisSpec("g1", "g1", np.linspace(0.0, math.ldexp(5.625, k), 7))
            ax2 = AxisSpec("g2", "g2", np.linspace(0.0, math.ldexp(4.5, k), 7))
            return sweep_grid(sys, None, ax1, ax2, STATIC_BLOCK_WINDOW)

        unit = grid(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = grid(-540)
        assert not np.isnan(scaled["energy"]).any()
        assert np.array_equal(scaled["n_label"], unit["n_label"])
        assert np.array_equal(scaled["m_label"], unit["m_label"])
        assert np.array_equal(scaled["energy"], np.ldexp(unit["energy"], -540))

    def test_spread_below_subnormals_is_diagonal(self):
        # p2 = 2 h12^2 = 2^-1073 is nonzero, but p2 / 6 rounds to zero
        assert spectrum._lowest_eig_sym3(0.75, 0.75, 0.75, 2.0**-537, 0.0) == 0.75
        table = full_table((*STATIC_SAMPLE, 5.239601353002548e-163, 0.0), 8)
        dense, _ = dense_ground_table(*STATIC_SAMPLE, 5.239601353002548e-163, 0.0, 8)
        assert np.allclose(table, dense, rtol=1e-15, atol=0.0)
        point = ground_search(SystemParams(*STATIC_SAMPLE, 7.879418302766859e-163,
                                           1.5758836605533718e-162))
        assert (label(point), point["energy"], point["gap"]) == ((0, 0), -0.25, 1.0)

    def test_broadcast_inputs_give_the_bytes_of_float_arrays(self):
        # (cells, 1, 1) couplings against the (W+1, W+1) label grid with
        # float frequencies, and the other way round; some cells are
        # diagonal (no coupling) or have a spread whose cube underflows
        rng = np.random.default_rng(29)
        freqs = [float(x) for x in rng.uniform(0.1, 2.0, 4)]
        g1, g2 = rng.uniform(0.0, 3.0, (2, 60, 1, 1))
        g1[:10] = g2[:10] = 0.0
        g1[10:20] *= 1e-110
        g2[10:20] = 0.0
        cells = [rng.uniform(0.1, 2.0, (60, 1, 1)) for _ in range(4)]
        for model in ((*freqs, g1, g2), (*cells, 1.3, 0.0)):
            h = window_elements(model, 5)
            assert len({np.shape(x) for x in h}) == 2
            arrays = [np.array(x, dtype=np.float64) for x in np.broadcast_arrays(*h)]
            assert np.array_equal(spectrum._lowest_eig_sym3(*h),
                                  spectrum._lowest_eig_sym3(*arrays))

    def test_python_floats_give_the_bytes_of_one_element_arrays(self):
        rng = np.random.default_rng(31)
        blocks = [block_matrix(random_params(rng), int(rng.integers(0, 9)),
                               int(rng.integers(0, 9))) for _ in range(200)]
        blocks += [block_matrix(RESONANT.replace(g1=g1, g2=0.0), 3, 2)
                   for g1 in (0.0, 1e-110, 1e-200, 1e200)]
        for block in blocks:
            h = [float(block[i, j]) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))]
            one = spectrum._lowest_eig_sym3(*(np.array([x]) for x in h))
            assert np.array_equal(spectrum._lowest_eig_sym3(*h), one[0])
            assert block_ground_energy(block) == one[0]

    def test_homogeneous_near_resonance(self):
        # near-resonant blocks, whose spread is 1e-170 to 1e-1 of their
        # diagonal: scaling every element by 2^k scales the lowest
        # eigenvalue by exactly 2^k
        rng = np.random.default_rng(23)
        size = 20_000
        diag = rng.uniform(0.5, 2.0, size)
        eps = 10.0 ** rng.uniform(-170.0, -1.0, size)
        h = [diag, diag + eps * rng.uniform(-1.0, 1.0, size),
             diag + eps * rng.uniform(-1.0, 1.0, size),
             eps * rng.uniform(-1.0, 1.0, size), eps * rng.uniform(-1.0, 1.0, size)]
        unit = spectrum._lowest_eig_sym3(*h)
        assert np.isfinite(unit).all()
        for k in (-320, -200, 200, 320):
            scaled = spectrum._lowest_eig_sym3(*(np.ldexp(x, k) for x in h))
            assert np.array_equal(scaled, np.ldexp(unit, k)), k

    @pytest.mark.parametrize("k", [-320, -200, -100, 100, 320])
    def test_ground_search_is_unit_free(self, k):
        # hbar = 1, so writing every frequency in a unit 2^-k times as large
        # changes the label of no cell and scales its energy and gap exactly
        model = (*STATIC_SAMPLE, 4.703564751425735e-120, 3.573901020227392e-75)
        unit = ground_search(SystemParams(*model))
        scaled = ground_search(SystemParams(*(math.ldexp(x, k) for x in model)))
        assert label(scaled) == label(unit)
        assert scaled["energy"] == math.ldexp(unit["energy"], k)
        assert scaled["gap"] == math.ldexp(unit["gap"], k)

    def test_scaled_ground_search_label(self):
        sys = RESONANT.replace(g1=3.2, g2=3.0)
        assert label(ground_search(sys)) == (0, 1)
        tiny = SystemParams(**{f: math.ldexp(getattr(sys, f), -600) for f in MODEL_FIELDS})
        assert label(ground_search(tiny)) == (0, 1)


class TestGroundSearch:
    def test_weak_coupling_normal_phase(self):
        point = ground_search(RESONANT)
        assert label(point) == (0, 0)
        assert category(point) == "normal"
        assert point["energy"] == pytest.approx(-0.3, abs=1e-13)
        assert not point["window_capped"]

    def test_mode2_condensed(self):
        point = ground_search(RESONANT.replace(g1=0.0, g2=1.5))
        assert label(point) == (0, 1)
        assert category(point) == "y2"

    def test_mode1_condensed(self):
        point = ground_search(RESONANT.replace(g1=3.2, g2=0.05))
        assert label(point) == (1, 0)
        assert category(point) == "y1"

    def test_gap_is_distance_to_second_best(self):
        point = ground_search(RESONANT)
        table = full_table((0.5, 0.25, 1.25, 1.0, 0.05, 0.05), 8)
        flat = np.sort(table.ravel())
        assert point["gap"] == pytest.approx(flat[1] - flat[0], abs=1e-14)

    def test_lexicographic_tie_break(self):
        table = np.full((3, 3), 5.0)
        table[1, 0] = -1.0
        table[0, 1] = -1.0
        cells = _search_tables(table.reshape(1, -1), 2, False)
        assert (cells["n_label"][0], cells["m_label"][0]) == (0, 1)

    def test_edge_argmin_sets_flag(self):
        # strong mode-1 coupling pushes the minimum to the window edge
        point = ground_search(RESONANT.replace(g1=40.0), block_window=4)
        assert point["n_label"] == 4
        assert point["window_capped"]
        grid = sweep_grid(RESONANT, None, AxisSpec("g1", "g1", np.array([0.05, 40.0])),
                          AxisSpec("g2", "g2", np.array([0.05])), 4)
        assert grid_cell(grid, 1, 0) == point
        assert grid_cell(grid, 0, 0) == ground_search(RESONANT, block_window=4)


class TestCategorize:
    @pytest.mark.parametrize("label,expected", [
        ((0, 0), "normal"),
        ((3, 0), "y1"),
        ((0, 5), "y2"),
        ((1, 5), "mixed"),
    ])
    def test_mapping(self, label, expected):
        assert CATEGORIES[category_index(*label)] == expected
        index = category_index([label[0], 0], [label[1], 0])
        assert [CATEGORIES[k] for k in index] == [expected, "normal"]


class TestPhaseGrid:
    def test_first_mode2_boundary_near_unity(self):
        ratios = np.linspace(0.9, 1.1, 201)
        grid = sweep_grid(RESONANT.replace(g1=0.0), None,
                          AxisSpec("g1/Omega1", "g1", np.array([0.0])),
                          AxisSpec("g2/Omega2", "g2", ratios * RESONANT.Omega2),
                          STATIC_BLOCK_WINDOW)
        labels = list(zip(grid["n_label"][0], grid["m_label"][0]))
        flips = [j for j in range(1, len(labels)) if labels[j] != labels[j - 1]]
        assert len(flips) == 1
        crossing = 0.5 * (ratios[flips[0]] + ratios[flips[0] - 1])
        assert crossing == pytest.approx(1.0, abs=ratios[1] - ratios[0])

    def test_first_mode1_boundary(self):
        ratios = np.linspace(2.3, 2.5, 201)
        grid = sweep_grid(RESONANT.replace(g2=0.05), None,
                          AxisSpec("g1/Omega1", "g1", ratios * RESONANT.Omega1),
                          AxisSpec("g2/Omega2", "g2", np.array([0.05])),
                          STATIC_BLOCK_WINDOW)
        labels = list(zip(grid["n_label"][:, 0], grid["m_label"][:, 0]))
        flips = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
        assert len(flips) == 1
        crossing = 0.5 * (ratios[flips[0]] + ratios[flips[0] - 1])
        assert crossing == pytest.approx(1.0 / (math.sqrt(2.0) - 1.0),
                                         abs=ratios[1] - ratios[0])

    def test_single_cell_grid(self):
        grid = sweep_grid(RESONANT, None, AxisSpec("g1", "g1", np.array([0.125])),
                          AxisSpec("g2", "g2", np.array([0.1])), STATIC_BLOCK_WINDOW)
        assert grid["energy"].shape == (1, 1)
        assert (grid["n_label"][0, 0], grid["m_label"][0, 0]) == (0, 0)

    def test_rejects_empty_or_decreasing_axes(self):
        with pytest.raises(ValueError, match="at least one value"):
            AxisSpec("g1", "g1", np.array([]))
        with pytest.raises(ValueError, match="strictly increasing"):
            AxisSpec("g1", "g1", np.array([0.2, 0.1]))

    def test_rejects_drive_axis_without_drive(self):
        ax1 = AxisSpec("A_D", "A_D", np.array([0.1]))
        ax2 = AxisSpec("g2", "g2", np.array([0.1]))
        with pytest.raises(ValueError, match="'A_D' is not a field of the undriven model"):
            compute_grid_cells(RESONANT, None, ax1, ax2, 4, 0, 1)

    def test_energy_continuous_across_label_jumps(self):
        ratios = np.linspace(0.0, 4.6, 2000)
        grid = sweep_grid(RESONANT.replace(g2=0.5), None,
                          AxisSpec("g1/Omega1", "g1", ratios * RESONANT.Omega1),
                          AxisSpec("g2/Omega2", "g2", np.array([0.5])),
                          STATIC_BLOCK_WINDOW)
        energies = grid["energy"][:, 0]
        step = (ratios[1] - ratios[0]) * RESONANT.Omega1
        # |dE/dg1| <= sqrt(window+1); allow a generous Lipschitz margin
        assert np.max(np.abs(np.diff(energies))) <= 4.0 * step

    def test_row_validates_its_axis_values(self):
        # a slice is validated by its whole sweep, whichever rows it spans
        ax1 = AxisSpec("g1", "g1", np.array([0.5]))
        for values in ([-0.1, 0.2], [0.1, np.inf]):
            with pytest.raises(ValueError, match="g2"):
                compute_grid_cells(RESONANT, None, ax1, AxisSpec("g2", "g2", values),
                                   4, 0, 2)
        ax1 = AxisSpec("Omega1", "Omega1", np.array([0.0, 1.0]))
        ax2 = AxisSpec("g2", "g2", np.array([0.1, 0.2]))
        for start, stop in ((0, 2), (1, 3), (1, 2), (2, 4)):
            with pytest.raises(ValueError, match="Omega1 > 0 required"):
                compute_grid_cells(RESONANT, None, ax1, ax2, 4, start, stop)

    def test_rejects_axes_of_one_parameter(self):
        ax1 = AxisSpec("a", "g1", np.linspace(0.0, 4.0, 3))
        ax2 = AxisSpec("b", "g1", np.linspace(0.0, 1.0, 2))
        with pytest.raises(ValueError, match="g1.*twice"):
            sweep_grid(RESONANT, None, ax1, ax2, 6)

    def test_deterministic_under_chunked_evaluation(self, monkeypatch):
        # uneven slices that span rows, evaluated last first, and sweep_grid
        # under another slice size give the bytes of sweep_grid, static and
        # driven
        bounds = [0, 3, 4, 11, 19, 20, 35]
        for drive, ax1, ax2 in (
                (None, AxisSpec("g1", "g1", np.linspace(0.0, 4.0, 7)),
                 AxisSpec("g2", "g2", np.linspace(0.0, 3.0, 5))),
                (DriveParams(amplitude=0.0, frequency=0.49),
                 AxisSpec("A_D", "A_D", np.linspace(0.0, 1.2, 7)),
                 AxisSpec("Omega2", "Omega2", np.linspace(0.95, 1.0, 5)))):
            full = sweep_grid(RESONANT, drive, ax1, ax2, 6)
            parts = [compute_grid_cells(RESONANT, drive, ax1, ax2, 6, start, stop)
                     for start, stop in reversed(list(zip(bounds, bounds[1:])))]
            monkeypatch.setattr(spectrum, "CHUNK_CELLS", 8)
            sliced = sweep_grid(RESONANT, drive, ax1, ax2, 6)
            monkeypatch.undo()
            for key in parts[0]:
                joined = np.concatenate([p[key] for p in reversed(parts)]).reshape(7, 5)
                for grid in (joined, sliced[key]):
                    assert grid.dtype == full[key].dtype, key
                    assert grid.tobytes() == full[key].tobytes(), key


class TestLocateBoundary:
    def test_mode1_onset(self):
        sys = RESONANT.replace(g2=0.05)
        g1_star = locate_boundary(sys, "g1", (0, 0), (1, 0), 0.0, 6.0)
        assert g1_star / sys.Omega1 == pytest.approx(1.0 / (math.sqrt(2) - 1.0), abs=5e-4)

    def test_mode2_onset(self):
        sys = RESONANT.replace(g1=0.0)
        g2_star = locate_boundary(sys, "g2", (0, 0), (0, 1), 0.5, 2.0)
        assert g2_star / sys.Omega2 == pytest.approx(1.0, abs=5e-4)

    def test_rejects_a_parameter_not_of_the_model(self):
        with pytest.raises(ValueError, match="'A_D' is not a field of the undriven model"):
            locate_boundary(RESONANT, "A_D", (0, 0), (1, 0), 0.0, 1.0)

    def test_no_crossing_raises(self):
        with pytest.raises(ValueError):
            locate_boundary(RESONANT, "g1", (0, 0), (1, 0), 0.0, 0.5)

    @pytest.fixture
    def capped_energy(self, monkeypatch):
        # a cap on the energy evaluations stands in for a timeout, so that a
        # bisection that never ends fails instead of hanging
        energy = spectrum.block_ground_energy
        calls = []

        def counted(block):
            calls.append(block)
            assert len(calls) <= 1000, "bisection does not end"
            return energy(block)

        monkeypatch.setattr(spectrum, "block_ground_energy", counted)

    def test_rejects_tolerance_not_positive(self, capped_energy):
        sys = SystemParams(Omega1=1.0, g1=1.0, g2=0.0)
        for tol in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="tol"):
                locate_boundary(sys, "g1", (0, 0), (1, 0), 0.5, 5.0, tol=tol)

    @pytest.mark.parametrize("lo, hi", [(6.0, 0.0), (3.0, 3.0), (math.nan, 6.0)])
    def test_rejects_bracket_not_increasing(self, lo, hi):
        # reversed, the bracket would end the bisection at once and give its
        # midpoint, 3.0, where the crossing is at 3.0178
        sys = RESONANT.replace(g2=0.05)
        with pytest.raises(ValueError, match="lo < hi"):
            locate_boundary(sys, "g1", (0, 0), (1, 0), lo, hi)

    def test_tolerance_below_float_spacing_ends(self, capped_energy):
        # the bisection stops once its midpoint rounds to an endpoint
        sys = SystemParams(Omega1=1.0, g1=1.0, g2=0.0)
        g1_star = locate_boundary(sys, "g1", (0, 0), (1, 0), 0.5, 5.0, tol=1e-300)
        assert g1_star == pytest.approx(
            locate_boundary(sys, "g1", (0, 0), (1, 0), 0.5, 5.0), abs=1e-4)


class TestDrivenPhasePoint:
    def test_fast_drive_matches_static(self):
        drive = DriveParams(amplitude=0.0, frequency=6.0)
        driven = ground_search(RESONANT, drive, block_window=8)
        report = effective_point(RESONANT, drive)
        static = ground_search(RESONANT, block_window=8)
        assert label(driven) == label(static)
        assert driven["energy"] == pytest.approx(static["energy"], abs=1e-13)
        # at (n0, m0) = (0, 0) the residual counter term is the ordinary
        # counter-rotating correction g/Delta_0 = 0.02, above the 1e-2 rule
        assert report["gc1/Delta_n0"] == pytest.approx(0.02, abs=1e-14)
        assert not report["rwa_ok"]

    def test_slow_drive_is_window_capped(self):
        drive = DriveParams(amplitude=0.2 * 0.18, frequency=0.18)
        point = ground_search(RESONANT, drive, block_window=5)
        assert point["window_capped"]
        assert effective_point(RESONANT, drive)["hierarchy_ok"]

    def test_coupling_node_decouples_mode1(self):
        # drive ratio at the first zero of the zeroth-order weight
        drive = DriveParams.from_theta(2.404825557695773, 6.0)
        assert abs(effective_point(RESONANT, drive)["gr1"]) < 1e-5 * RESONANT.g1

    def test_tiny_couplings_still_condense(self):
        # two orders of magnitude below the static critical values, the
        # driven model still leaves the normal phase
        drive = DriveParams(amplitude=1e-4 * 0.18, frequency=0.18)
        sys = RESONANT.replace(g1=0.03, g2=0.03)
        point = ground_search(sys, drive, block_window=5)
        assert label(point) != (0, 0)

    def test_record_is_its_grid_cell(self):
        # a grid where some cells fail the counter-rotating rule, every cell
        # fails the hierarchy rule and every cell is window-capped: the
        # record of each point is its cell of the grid, audits included
        sys = RESONANT.replace(g1=0.2, g2=0.2)
        drive = DriveParams(amplitude=0.036, frequency=0.18)
        ax1 = AxisSpec("A_D", "A_D", np.linspace(0.0, 0.54, 13))
        ax2 = AxisSpec("Omega2", "Omega2", np.linspace(0.97, 1.0, 4))
        grid = sweep_grid(sys, drive, ax1, ax2, 5)
        cells = compute_grid_cells(sys, drive, ax1, ax2, 5, 0, grid["energy"].size)
        assert 0 < np.count_nonzero(~grid["rwa_ok"]) < grid["rwa_ok"].size
        assert not grid["hierarchy_ok"].any()
        assert grid["window_capped"].all()
        for i, amplitude in enumerate(ax1.values):
            for j, cavity in enumerate(ax2.values):
                point = ground_search(sys.replace(Omega2=float(cavity)),
                                      DriveParams(float(amplitude), drive.frequency))
                assert point == {k: v[i * ax2.values.size + j].item() for k, v in cells.items()}
                assert grid.keys() == point.keys()
                assert point == grid_cell(grid, i, j)
                assert all(type(v) in (int, float, bool) for v in point.values())


def test_driven_grid_shapes_and_validity_columns():
    drive = DriveParams(amplitude=0.09, frequency=0.18)
    grid = sweep_grid(RESONANT, drive,
                      AxisSpec("A_D", "A_D", np.linspace(0.35, 1.7, 4) * drive.frequency),
                      AxisSpec("Omega2", "Omega2", np.linspace(0.985, 1.0, 3)), 5)
    assert grid["energy"].shape == (4, 3)
    assert grid["rwa_ok"].shape == grid["hierarchy_ok"].shape == (4, 3)
    assert grid["window_capped"].any()
    assert deviation_lines(audit_counts(grid), grid["energy"].size, "cells", 5)


def test_driven_grid_mode1_detuning_axis():
    # each cell is the driven point at its drive amplitude and mode-1
    # cavity frequency, bit for bit, at the default driven window
    drive = DriveParams(amplitude=0.09, frequency=0.18)
    base = 2 * RESONANT.omega1 + RESONANT.omega2
    ax1 = AxisSpec("A_D", "A_D", np.linspace(0.2, 1.0, 3) * drive.frequency)
    ax2 = AxisSpec("Omega1", "Omega1", np.sort(base / (1 + np.linspace(0.0, 0.02, 4))))
    grid = sweep_grid(RESONANT, drive, ax1, ax2, 5)
    assert grid["energy"].shape == (3, 4)
    for i, amplitude in enumerate(ax1.values):
        for j, cavity in enumerate(ax2.values):
            sys = RESONANT.replace(Omega1=float(cavity))
            drive_i = DriveParams(float(amplitude), drive.frequency)
            point = ground_search(sys, drive_i)
            report = effective_point(sys, drive_i)
            assert grid_cell(grid, i, j) == point
            assert (grid["energy"][i, j], grid["gap"][i, j]) == (point["energy"], point["gap"])
            assert (grid["n_label"][i, j], grid["m_label"][i, j]) == label(point)
            assert grid["window_capped"][i, j] == point["window_capped"]
            assert grid["rwa_ok"][i, j] == report["rwa_ok"]
            assert grid["hierarchy_ok"][i, j] == report["hierarchy_ok"]


def test_label_sequence_collapses_duplicates():
    labels = [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0), (2, 0)]
    assert label_sequence(labels) == [(0, 0), (1, 0), (0, 0), (2, 0)]


def oracle_effective(cell):
    """Effective model of one driven cell from the brute-force sideband scan
    and the series Bessel values."""
    w1, w2, O1, O2, g1, g2 = (cell[k] for k in MODEL_FIELDS)
    wd = cell["omega_D"]
    theta = cell["A_D"] / wd
    d1, d2 = 2 * w1 + w2 - O1, 2 * w2 + w1 - O2
    n0, dn = brute_sideband(2 * w1 + w2 + O1, wd)
    m0, dm = brute_sideband(2 * w2 + w1 + O2, wd)
    eff = {
        "n0": n0, "m0": m0,
        "Omega1_eff": (dn - d1) / 2, "Omega2_eff": (dm - d2) / 2,
        "omega1_eff": ((2 * d1 - d2) + (2 * dn - dm)) / 6,
        "omega2_eff": ((2 * d2 - d1) + (2 * dm - dn)) / 6,
        "gr1": g1 * bessel_signed(0, theta), "gr2": g2 * bessel_signed(0, 2 * theta),
        "gc1": g1 * bessel_signed(n0, theta), "gc2": g2 * bessel_signed(m0, 2 * theta),
    }
    scales = (abs(d1), abs(d2), abs(dn), abs(dm), g1, g2)
    eff["hierarchy_ok"] = all(x / wd < HIERARCHY_RATIO_MAX for x in scales)
    eff["rwa_ok"] = all(delta != 0 and abs(gc / delta) < RWA_RATIO_MAX
                        for gc, delta in ((eff["gc1"], dn), (eff["gc2"], dm)))
    return eff


class TestRowEngineOracles:
    """Every cell of a row against a dense eigensolver over all blocks, the
    exhaustive sideband scan and the series Bessel values."""

    def check_row(self, sys, drive, axis1, axis2, window, i):
        n2 = axis2.values.size
        row = compute_grid_cells(sys, drive, axis1, axis2, window, i * n2, (i + 1) * n2)
        assert_pruned_matches_full(row_fields(sys, drive, axis1, axis2, i), window)
        base = {k: getattr(sys, k) for k in MODEL_FIELDS}
        if drive is not None:
            base.update(A_D=drive.amplitude, omega_D=drive.frequency)
        base[axis1.parameter] = float(axis1.values[i])
        cells = [{**base, axis2.parameter: float(v)} for v in axis2.values]
        if drive is not None:
            engine = effective_table(*([c[k] for c in cells] for k in
                                       (*MODEL_FIELDS, "A_D", "omega_D")))
        seen = {"capped": 0, "forced": 0}
        for j, cell in enumerate(cells):
            model = [cell[k] for k in MODEL_FIELDS]
            forced = False
            if drive is not None:
                eff = oracle_effective(cell)
                assert (engine["n0"][j], engine["m0"][j]) == (eff["n0"], eff["m0"])
                for key in ("gr1", "gr2", "gc1", "gc2"):
                    assert engine[key][j] == pytest.approx(eff[key], rel=1e-12, abs=1e-15)
                assert row["rwa_ok"][j] == eff["rwa_ok"]
                assert row["hierarchy_ok"][j] == eff["hierarchy_ok"]
                model = [eff[k] for k in ("omega1_eff", "omega2_eff", "Omega1_eff",
                                          "Omega2_eff", "gr1", "gr2")]
                forced = eff["Omega1_eff"] <= 0 or eff["Omega2_eff"] <= 0
            else:
                assert row["rwa_ok"][j] and row["hierarchy_ok"][j]
            table, scale = dense_ground_table(*model, window)
            flat = np.sort(table.ravel())
            tol = 1e-12 * scale
            # first label in lexicographic order that reaches the minimum
            ties = np.argwhere(table <= flat[0] + tol)
            label = tuple(int(x) for x in ties[0])
            assert (row["n_label"][j], row["m_label"][j]) == label, (i, j, cell)
            assert abs(row["energy"][j] - flat[0]) <= tol
            assert abs(row["gap"][j] - (flat[1] - flat[0])) <= tol
            on_edge = window in label
            assert row["window_capped"][j] == (on_edge or forced)
            seen["capped"] += on_edge
            seen["forced"] += forced
        return seen

    def test_zero_coupling_rows(self):
        # g1 = g2 = 0 is exactly diagonal; equal cavity frequencies make
        # blocks (n, m) and (m, n) tie exactly
        sys = SystemParams(omega1=0.3, omega2=0.3, Omega1=1.0, Omega2=1.0,
                           g1=0.0, g2=0.0)
        ax1 = AxisSpec("g1", "g1", np.array([0.0, 0.8, 2.6]))
        ax2 = AxisSpec("g2", "g2", np.array([0.0, 0.5, 1.0, 1.7, 3.0]))
        for i in range(3):
            self.check_row(sys, None, ax1, ax2, 6, i)
        self.check_row(RESONANT, None, ax2, ax1, 8, 0)

    def test_exact_ties_break_lexicographically(self):
        # omega_D = 0.5 gives Omega1_eff = 0 exactly; with g1 = 0 every
        # block (n, m) then has the same matrix for all n, so the minimum is
        # an exact tie across n and must resolve to n = 0.  At Omega2 = 1.03
        # only Omega1_eff <= 0 forces the cap: the label is off the edge.
        drive = DriveParams(amplitude=0.15, frequency=0.5)
        ax1 = AxisSpec("Omega2", "Omega2", np.array([1.0, 1.03]))
        ax2 = AxisSpec("g2", "g2", np.linspace(0.0, 0.4, 9))
        sys = RESONANT.replace(g1=0.0)
        for i in range(2):
            self.check_row(sys, drive, ax1, ax2, 5, i)
            row = compute_grid_cells(sys, drive, ax1, ax2, 5, 9 * i, 9 * (i + 1))
            assert np.all(row["n_label"] == 0)
            assert np.all(row["window_capped"])
        assert np.any(row["m_label"] < 5)

    def test_window_capped_edge(self):
        ax1 = AxisSpec("g1", "g1", np.array([3.0, 40.0]))
        ax2 = AxisSpec("g2", "g2", np.array([0.0, 2.0, 25.0]))
        seen = [self.check_row(RESONANT, None, ax1, ax2, 4, i) for i in range(2)]
        assert sum(s["capped"] for s in seen) > 0

    def test_negative_effective_frequency_forces_cap(self):
        # omega_D = 0.18 on the resonant defaults gives Omega1_eff = -0.01
        drive = DriveParams(amplitude=0.09, frequency=0.18)
        ax1 = AxisSpec("g1", "g1", np.array([0.03, 0.3]))
        ax2 = AxisSpec("Omega2", "Omega2", np.linspace(0.97, 1.0, 7))
        seen = [self.check_row(RESONANT, drive, ax1, ax2, 5, i) for i in range(2)]
        assert sum(s["forced"] for s in seen) > 0

    def test_subnormal_coupling_norm_row(self):
        # h12^2 + h13^2 is subnormal, and g1^2 underflows in the closed-form
        # bound: the smallest diagonal still bounds these blocks
        ax1 = AxisSpec("g2", "g2", np.array([0.0, 1e-162]))
        ax2 = AxisSpec("g1", "g1", np.geomspace(1e-164, 1e-160, 41))
        for i in range(2):
            self.check_row(SystemParams(*STATIC_SAMPLE), None, ax1, ax2, 8, i)
        point = ground_search(SystemParams(*STATIC_SAMPLE, 3.5556433873827877e-162, 0.0))
        assert point["gap"] == 1.0

    def test_driven_amplitude_on_axis2(self):
        # theta, hence every Bessel argument, changes from cell to cell
        drive = DriveParams(amplitude=0.0, frequency=0.49)
        ax1 = AxisSpec("Omega2", "Omega2", np.array([0.95, 1.0]))
        ax2 = AxisSpec("A_D", "A_D", np.linspace(0.0, 1.2, 13))
        for i in range(2):
            self.check_row(RESONANT.replace(g1=0.04, g2=0.06), drive, ax1, ax2, 5, i)

    def test_driven_frequency_on_axis2(self):
        # the sideband orders n0, m0 step along the row
        drive = DriveParams(amplitude=0.05, frequency=0.2)
        ax1 = AxisSpec("g2", "g2", np.array([0.02, 0.5]))
        ax2 = AxisSpec("omega_D", "omega_D", np.linspace(0.15, 6.0, 41))
        for i in range(2):
            self.check_row(RESONANT, drive, ax1, ax2, 5, i)
        assert len({brute_sideband(2.5, float(wd))[0] for wd in ax2.values}) > 5


def assert_pruned_matches_full(fields, window):
    """The pruned row core gives every key of every cell as the search over
    the full block table does, NaN for NaN."""
    cells = _ground_cells(fields, window)
    forced = False
    model = [fields[k] for k in MODEL_FIELDS]
    audits = {k: np.ones(len(model[0]), dtype=bool) for k in ("rwa_ok", "hierarchy_ok")}
    if "omega_D" in fields:
        eff = fields_effective(fields)
        model = [eff[k] for k in _EFFECTIVE_MODEL]
        forced = (eff["Omega1_eff"] <= 0.0) | (eff["Omega2_eff"] <= 0.0)
        audits = {k: eff[k] for k in audits}
    table = full_table([np.asarray(a)[:, None, None] for a in model], window)
    full = {**_search_tables(table.reshape(table.shape[0], -1), window, forced), **audits}
    assert cells.keys() == full.keys()
    for key in full:
        assert np.array_equal(cells[key], full[key], equal_nan=True), key


def fields_effective(fields):
    """The effective_table of driven field arrays."""
    return effective_table(*(fields[k] for k in MODEL_FIELDS), fields["A_D"],
                           fields["omega_D"])


def record_kernel_calls(monkeypatch) -> list[dict]:
    """One record per pruned block table the engine builds: its unit-scale
    model, the table, and the number of blocks of each kernel call."""
    calls = []
    kernel, pruned = spectrum._lowest_eig_sym3, spectrum._pruned_ground_table

    def counted(*h):
        calls[-1]["sizes"].append(np.size(h[0]))
        return kernel(*h)

    def recorded(model, window, finite):
        calls.append({"model": model, "sizes": []})
        calls[-1]["table"] = pruned(model, window, finite)
        return calls[-1]["table"]

    monkeypatch.setattr(spectrum, "_lowest_eig_sym3", counted)
    monkeypatch.setattr(spectrum, "_pruned_ground_table", recorded)
    return calls


def row_fields(sys, drive, axis1, axis2, i):
    """Field arrays of grid row i: axis1 at its i-th value, axis2 swept."""
    values = sweep_values(sys, drive)
    values[axis1.parameter] = axis1.values[i]
    values[axis2.parameter] = axis2.values
    return {k: np.broadcast_to(np.asarray(v, dtype=float), axis2.values.shape)
            for k, v in values.items()}


def static_fields(omega1, omega2, Omega1, Omega2, g1, g2):
    """Static row fields, each broadcast to the longest argument."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                   for a in (omega1, omega2, Omega1, Omega2, g1, g2)))
    return dict(zip(MODEL_FIELDS, (np.atleast_1d(a) for a in arrays)))


#: configs/static_phase.json: an exactly resonant model (h11 = h22 = h33)
STATIC_SAMPLE = (0.5, 0.25, 1.25, 1.0)


class TestPrunedGroundSearch:
    """The bound-and-prune search against the search over the full table,
    key by key and cell by cell."""

    @pytest.mark.parametrize("window", range(1, 10))
    def test_random_detuned_models(self, window):
        rng = np.random.default_rng(100 + window)
        for _ in range(12):
            cells = 40
            fields = static_fields(rng.uniform(-1.0, 2.0, cells),
                                   rng.uniform(-1.0, 2.0, cells),
                                   rng.uniform(0.05, 3.0, cells),
                                   rng.uniform(0.05, 3.0, cells),
                                   rng.uniform(0.0, 3.0, cells),
                                   rng.uniform(0.0, 3.0, cells))
            assert_pruned_matches_full(fields, window)

    def test_sign_flipped_and_non_positive_parameters(self):
        # effective parameters may take any sign; the bounds hold for any
        # real symmetric block
        rng = np.random.default_rng(17)
        for window in (1, 5, 8):
            for _ in range(10):
                fields = static_fields(*(rng.uniform(-3.0, 3.0, 60) for _ in range(6)))
                fields["Omega1"][::4] = 0.0
                fields["g2"][::3] = 0.0
                assert_pruned_matches_full(fields, window)

    @pytest.mark.parametrize("zero", ["g1", "g2"])
    def test_one_coupling_zero(self, zero):
        # the square root then grows along one photon index only
        rng = np.random.default_rng(31 if zero == "g1" else 37)
        for window in (1, 3, 8):
            for _ in range(6):
                fields = static_fields(rng.uniform(-1.0, 2.0, 40), rng.uniform(-1.0, 2.0, 40),
                                       rng.uniform(0.05, 3.0, 40), rng.uniform(0.05, 3.0, 40),
                                       rng.uniform(0.0, 3.0, 40), rng.uniform(0.0, 3.0, 40))
                fields[zero][:] = 0.0
                assert_pruned_matches_full(fields, window)

    def test_negative_couplings(self):
        # the spectrum depends on the couplings through their squares only
        rng = np.random.default_rng(41)
        for window in (1, 4, 8):
            model = [rng.uniform(-1.0, 2.0, 50), rng.uniform(-1.0, 2.0, 50),
                     rng.uniform(0.05, 3.0, 50), rng.uniform(0.05, 3.0, 50),
                     rng.uniform(0.0, 3.0, 50), rng.uniform(0.0, 3.0, 50)]
            flipped = model[:4] + [-model[4], -model[5]]
            assert_pruned_matches_full(static_fields(*flipped), window)
            assert_pruned_matches_full(static_fields(*model[:5], -model[5]), window)
            cells = _ground_cells(static_fields(*flipped), window)
            plain = _ground_cells(static_fields(*model), window)
            for key in plain:
                assert np.array_equal(cells[key], plain[key]), key

    def test_non_positive_effective_frequencies(self):
        # along omega_D the row holds cells with Omega1_eff <= 0 only,
        # Omega2_eff <= 0 only, both and neither
        drive = DriveParams(amplitude=0.03, frequency=0.2)
        ax1 = AxisSpec("g2", "g2", np.array([0.05, 0.6]))
        ax2 = AxisSpec("omega_D", "omega_D", np.linspace(0.1, 0.4, 61))
        for window in (2, 5):
            for i in range(2):
                fields = row_fields(RESONANT, drive, ax1, ax2, i)
                assert_pruned_matches_full(fields, window)
        eff = fields_effective(fields)
        one, two = eff["Omega1_eff"] <= 0.0, eff["Omega2_eff"] <= 0.0
        assert all(np.any(kind) for kind in (one & ~two, ~one & two, one & two, ~one & ~two))

    @pytest.mark.parametrize("window", [1, 2, 8])
    def test_detuned_model_with_inexact_bounds(self, window):
        # off resonance the Weyl bound lies below every coupled block's energy
        model = (0.9, 0.1, 0.7, 1.6)
        g1 = np.linspace(0.0, 4.0, 41)
        g2 = np.linspace(0.0, 5.0, 41)
        for i in range(41):
            assert_pruned_matches_full(static_fields(*model, g1[i], g2), window)
        fields = static_fields(*model, g1[20], g2)
        low = spectrum._lower_bounds([fields[k] for k in MODEL_FIELDS], window)
        table = full_table((*model, g1[20], g2[:, None, None]), window)
        assert np.all(low < table.reshape(low.shape))

    def test_forced_cap_rows(self):
        # Omega1_eff = -0.01 at omega_D = 0.18, and exactly 0 at 0.5
        for frequency in (0.18, 0.5):
            drive = DriveParams(amplitude=0.3 * frequency, frequency=frequency)
            for sys in (RESONANT, RESONANT.replace(g1=0.0)):
                ax1 = AxisSpec("g2", "g2", np.array([0.0, 0.05, 0.4]))
                ax2 = AxisSpec("A_D", "A_D", np.linspace(0.0, 1.0, 21))
                for i in range(3):
                    fields = row_fields(sys, drive, ax1, ax2, i)
                    assert_pruned_matches_full(fields, 5)
                cells = _ground_cells(fields, 5)
                assert cells["window_capped"].all()

    def test_resonant_sample_model_ties(self):
        # at resonance the lower bound is every block's energy, so the
        # threshold sits on the second-lowest energy itself
        g1 = np.linspace(0.0, 5.625, 301)
        g2 = np.linspace(0.0, 4.5, 301)
        for i in range(0, 301, 6):
            assert_pruned_matches_full(static_fields(*STATIC_SAMPLE, g1[i], g2), 8)
            assert_pruned_matches_full(static_fields(*STATIC_SAMPLE, g2, g1[i]), 8)

    @pytest.mark.parametrize("window, model", [
        (1, (1.5, 1.0, math.sqrt(2.0), 0.5)),
        (3, (1.0, 0.5, math.sqrt(2.0), 0.5)),
        (3, (1.75, 1.75, 1.5, 1.5)),
        (5, (0.875, 0.875, 0.75, 0.75)),
        (8, (0.125, 0.125, math.sqrt(2.0), 0.25)),
    ])
    def test_resonant_near_ties(self, window, model):
        # at resonance each bound is its block's energy, but the closed form
        # and the kernel round it apart by an ulp or so: in these cells the
        # margin keeps a block whose bound rounds above tau and whose energy
        # is the second-lowest
        O1, O2, g1, g2 = model
        fields = static_fields((2 * O1 - O2) / 3, (2 * O2 - O1) / 3, O1, O2, g1, g2)
        assert_pruned_matches_full(fields, window)

    def test_zero_coupling_ties(self):
        # g = 0: every block is diagonal; Omega1 = 0 as well makes every n
        # of a given m the same block, an exact tie across n
        axis = np.linspace(0.0, 2.0, 21)
        for window in (1, 4, 8):
            assert_pruned_matches_full(static_fields(*STATIC_SAMPLE, 0.0, 0.0), window)
            assert_pruned_matches_full(static_fields(0.3, 0.3, 1.0, 1.0, 0.0, axis), window)
            fields = static_fields(0.5, 0.25, 0.0, axis + 0.1, 0.0, 0.0)
            assert_pruned_matches_full(fields, window)
            cells = _ground_cells(fields, window)
            assert np.all(cells["n_label"] == 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cells_keep_their_bytes(self):
        g2 = np.linspace(0.0, 3.0, 12)
        for key, value in (("g2", np.nan), ("g1", np.inf), ("Omega1", np.inf),
                           ("omega1", -np.inf), ("Omega2", np.nan)):
            fields = static_fields(*STATIC_SAMPLE, 0.7, g2)
            fields[key] = fields[key].copy()
            fields[key][3::4] = value
            assert_pruned_matches_full(fields, 6)
        fields = static_fields(*STATIC_SAMPLE, 1e200, g2)
        assert_pruned_matches_full(fields, 6)

    @pytest.mark.parametrize("g1", [1e-110, 1e-200, 1e200, 3.5556433873827877e-162])
    def test_extreme_couplings_match_full_table(self, g1):
        fields = static_fields(*STATIC_SAMPLE, g1, 0.0)
        assert_pruned_matches_full(fields, 8)
        cells = _ground_cells(fields, 8)
        assert np.isfinite(cells["energy"]).all() and np.isfinite(cells["gap"]).all()

    def test_sample_model_evaluates_few_blocks(self, monkeypatch):
        # at exact resonance each bound is its block's energy: the two
        # blocks picked per cell hold its two lowest energies and no other
        # bound reaches tau, so a chunk makes one kernel call, on 2 blocks
        # per cell, and no empty second call
        calls = record_kernel_calls(monkeypatch)
        ax1 = AxisSpec("g1", "g1", np.linspace(0.0, 5.625, 301))
        ax2 = AxisSpec("g2", "g2", np.linspace(0.0, 4.5, 301))
        sweep_grid(SystemParams(*STATIC_SAMPLE), None, ax1, ax2, 8)
        chunks = spectrum.chunk_slices(301 * 301)
        assert [call["sizes"] for call in calls] == [[2 * (stop - start)]
                                                     for start, stop in chunks]

    def test_detuned_model_evaluates_the_blocks_within_reach(self, monkeypatch):
        # off resonance a chunk may need a second kernel call; it is made,
        # never empty, exactly when some block besides the two picked per
        # cell is within reach of tau, so the blocks evaluated are those of
        # the prune rule, here restated over the full table, at the library's
        # slicing and in one-cell chunks
        calls = record_kernel_calls(monkeypatch)
        window = 8
        sys = SystemParams(0.9, 0.1, 0.7, 1.6)
        ax1 = AxisSpec("g1", "g1", np.linspace(0.0, 4.0, 41))
        ax2 = AxisSpec("g2", "g2", np.linspace(0.0, 5.0, 41))
        sweep_grid(sys, None, ax1, ax2, window)
        assert len(calls) == len(spectrum.chunk_slices(41 * 41))
        for cell in range(0, 41 * 41, 7):
            compute_grid_cells(sys, None, ax1, ax2, window, cell, cell + 1)
        monkeypatch.undo()
        margin = 2 * spectrum.PRUNE_MARGIN * 2 * (window + 1)
        for call in calls:
            assert 1 <= len(call["sizes"]) <= 2 and min(call["sizes"]) > 0
            low = spectrum._lower_bounds(call["model"], window)
            full = full_table([a[:, None, None] for a in call["model"]],
                              window).reshape(low.shape)
            # the first minimum of the bounds, then the first of the rest
            picked = np.argsort(low, axis=1, kind="stable")[:, :2]
            tau = np.take_along_axis(full, picked, axis=1).max(axis=1)
            reach = low <= (tau + margin)[:, None]
            np.put_along_axis(reach, picked, True, axis=1)
            assert sum(call["sizes"]) == np.count_nonzero(reach)
            assert np.array_equal(np.isfinite(call["table"]), reach)
        seconds = [len(call["sizes"]) == 2 for call in calls]
        assert any(seconds) and not all(seconds)

    def test_window_below_one_raises_on_grid_path(self):
        ax1 = AxisSpec("g1", "g1", np.array([0.5]))
        ax2 = AxisSpec("g2", "g2", np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="block_window"):
            compute_grid_cells(RESONANT, None, ax1, ax2, 0, 0, 2)
        with pytest.raises(ValueError, match="block_window"):
            ground_search(RESONANT, block_window=0)
