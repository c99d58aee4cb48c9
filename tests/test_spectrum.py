import math
import warnings

import numpy as np
import pytest

from lambdajc.effective import HIERARCHY_RATIO_MAX, RWA_RATIO_MAX, effective_table
from lambdajc import spectrum
from lambdajc.params import DriveParams, SystemParams
from lambdajc.spectrum import (
    _EFFECTIVE_MODEL,
    STATIC_BLOCK_WINDOW,
    AxisSpec,
    PhaseCategory,
    _ground_cells,
    _row_fields,
    _search_tables,
    block_ground_energy,
    block_matrix,
    categorize,
    compute_grid_row,
    driven_phase_grid,
    driven_phase_point,
    ground_energy_table,
    ground_occupations,
    ground_search,
    label_sequence,
    locate_boundary,
    phase_grid,
    sweep_grid,
)

from oracles import (
    bessel_signed,
    brute_sideband,
    dense_block_ground,
    dense_ground_table,
    resonant_block_ground,
)

RESONANT = SystemParams()


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
        assert np.allclose(block.matrix, 0.75 * np.eye(3), atol=1e-15)

    def test_mode2_entry_vanishes_at_m_zero(self):
        block = block_matrix(RESONANT.replace(g2=7.7 / 9), 0, 0)
        assert block.matrix[0, 2] == 0.0
        assert block.matrix[2, 0] == 0.0

    def test_diagonal_differences_are_detunings(self):
        block = block_matrix(RESONANT.replace(Omega1=1.22), 2, 3)
        assert block.matrix[0, 0] - block.matrix[1, 1] == pytest.approx(0.03, abs=1e-14)
        assert block.matrix[0, 0] - block.matrix[2, 2] == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_differences_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            sys = random_params(rng)
            n, m = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            mat = block_matrix(sys, n, m).matrix
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
                float(np.min(np.diag(block.matrix))), abs=1e-13)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(8)
        for _ in range(3000):
            sys = random_params(rng)
            n, m = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            ours = block_ground_energy(block_matrix(sys, n, m))
            ref = dense_block_ground(sys, n, m)
            scale = max(np.abs(block_matrix(sys, n, m).matrix).max(), 1.0)
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
                    np.linalg.eigvalsh(block.matrix)[0], rel=1e-12, abs=0.0), (n, m)

    @pytest.mark.parametrize("g1", [1e-110, 1e-200, 1e200])
    def test_ground_search_is_finite(self, g1):
        sys = RESONANT.replace(g1=g1, g2=0.0)
        point = ground_search(sys)
        dense = {(n, m): dense_block_ground(sys, n, m)
                 for n in range(STATIC_BLOCK_WINDOW + 1)
                 for m in range(STATIC_BLOCK_WINDOW + 1)}
        lowest, second = sorted(dense.values())[:2]
        assert point.label == min(dense, key=dense.get)
        assert point.energy == pytest.approx(lowest, rel=1e-12, abs=0.0)
        # at g1 = 1e200 the m labels of n = 8 agree to all digits
        assert point.gap == pytest.approx(second - lowest, abs=1e-12 * abs(lowest))

    @pytest.mark.parametrize("k", [340, 530, 600, 1000])
    def test_scale_invariance(self, k):
        # the spectrum is homogeneous in the block elements: scaling every
        # element by 2^-k scales the lowest eigenvalue by exactly 2^-k.
        # Elements are multiples of 2^-20, so the scaled inputs stay normal.
        rng = np.random.default_rng(17)
        params = [rng.uniform(lo, hi, (300, 1, 1)) for lo, hi in
                  ((-1.0, 2.0), (-1.0, 2.0), (0.1, 3.0), (0.1, 3.0), (0.0, 3.0), (0.0, 3.0))]
        h = [np.round(x * 2.0**20) / 2.0**20
             for x in spectrum._window_elements(params, 4)]
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
        assert not np.isnan(scaled.energy).any()
        assert np.array_equal(scaled.n_label, unit.n_label)
        assert np.array_equal(scaled.m_label, unit.m_label)
        assert np.array_equal(scaled.energy, np.ldexp(unit.energy, -540))

    def test_spread_below_subnormals_is_diagonal(self):
        # p2 = 2 h12^2 = 2^-1073 is nonzero, but p2 / 6 rounds to zero
        assert spectrum._lowest_eig_sym3(0.75, 0.75, 0.75, 2.0**-537, 0.0) == 0.75
        table = ground_energy_table(*STATIC_SAMPLE, 5.239601353002548e-163, 0.0, 8)
        dense, _ = dense_ground_table(*STATIC_SAMPLE, 5.239601353002548e-163, 0.0, 8)
        assert np.allclose(table, dense, rtol=1e-15, atol=0.0)
        point = ground_search(SystemParams(*STATIC_SAMPLE, 7.879418302766859e-163,
                                           1.5758836605533718e-162))
        assert (point.label, point.energy, point.gap) == ((0, 0), -0.25, 1.0)

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
        assert scaled.label == unit.label
        assert scaled.energy == math.ldexp(unit.energy, k)
        assert scaled.gap == math.ldexp(unit.gap, k)

    def test_scaled_ground_search_label(self):
        sys = RESONANT.replace(g1=3.2, g2=3.0)
        assert ground_search(sys).label == (0, 1)
        tiny = SystemParams(**{f: math.ldexp(getattr(sys, f), -600) for f in MODEL_FIELDS})
        assert ground_search(tiny).label == (0, 1)


class TestGroundSearch:
    def test_weak_coupling_normal_phase(self):
        point = ground_search(RESONANT)
        assert point.label == (0, 0)
        assert point.category is PhaseCategory.NORMAL
        assert point.energy == pytest.approx(-0.3, abs=1e-13)
        assert not point.window_capped

    def test_mode2_condensed(self):
        point = ground_search(RESONANT.replace(g1=0.0, g2=1.5))
        assert point.label == (0, 1)
        assert point.category is PhaseCategory.Y2

    def test_mode1_condensed(self):
        point = ground_search(RESONANT.replace(g1=3.2, g2=0.05))
        assert point.label == (1, 0)
        assert point.category is PhaseCategory.Y1

    def test_gap_is_distance_to_second_best(self):
        point = ground_search(RESONANT)
        table = ground_energy_table(0.5, 0.25, 1.25, 1.0, 0.05, 0.05, 8)
        flat = np.sort(table.ravel())
        assert point.gap == pytest.approx(flat[1] - flat[0], abs=1e-14)

    def test_lexicographic_tie_break(self):
        table = np.full((3, 3), 5.0)
        table[1, 0] = -1.0
        table[0, 1] = -1.0
        cells = _search_tables(table[None], 2)
        assert (cells["n_label"][0], cells["m_label"][0]) == (0, 1)

    def test_edge_argmin_sets_flag(self):
        # strong mode-1 coupling pushes the minimum to the window edge
        point = ground_search(RESONANT.replace(g1=40.0), block_window=4)
        assert point.label[0] == 4
        assert point.window_capped

    def test_ground_occupations_diagnostic(self):
        # at resonance the diagonals are degenerate, so the ground vector
        # splits half-and-half between the upper state and the coupled
        # pair; equal couplings on block (2,3) give weights (1/2, 1/4, 1/4)
        # and occupations (n + 1/4, m - 3/4) regardless of g magnitude
        occ = ground_occupations(block_matrix(RESONANT, 2, 3))
        assert occ[0] == pytest.approx(2.25, abs=1e-12)
        assert occ[1] == pytest.approx(2.25, abs=1e-12)
        # dominant mode-1 coupling pushes the mode-1 weight toward 1/2
        strong = ground_occupations(block_matrix(RESONANT.replace(g1=50.0), 2, 3))
        assert strong[0] == pytest.approx(2.5, abs=1e-6)
        assert strong[1] == pytest.approx(2.0, abs=1e-6)


class TestCategorize:
    @pytest.mark.parametrize("label,expected", [
        ((0, 0), PhaseCategory.NORMAL),
        ((3, 0), PhaseCategory.Y1),
        ((0, 5), PhaseCategory.Y2),
        ((1, 5), PhaseCategory.MIXED),
    ])
    def test_mapping(self, label, expected):
        assert categorize(*label) is expected


class TestPhaseGrid:
    def test_first_mode2_boundary_near_unity(self):
        ratios = np.linspace(0.9, 1.1, 201)
        grid = phase_grid(RESONANT.replace(g1=0.0), np.array([0.0]), ratios)
        labels = [grid.cell(0, j).label for j in range(ratios.size)]
        flips = [j for j in range(1, len(labels)) if labels[j] != labels[j - 1]]
        assert len(flips) == 1
        crossing = 0.5 * (ratios[flips[0]] + ratios[flips[0] - 1])
        assert crossing == pytest.approx(1.0, abs=ratios[1] - ratios[0])

    def test_first_mode1_boundary(self):
        ratios = np.linspace(2.3, 2.5, 201)
        grid = phase_grid(RESONANT.replace(g2=0.05), ratios, np.array([0.05 / 1.0]))
        labels = [grid.cell(i, 0).label for i in range(ratios.size)]
        flips = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
        assert len(flips) == 1
        crossing = 0.5 * (ratios[flips[0]] + ratios[flips[0] - 1])
        assert crossing == pytest.approx(1.0 / (math.sqrt(2.0) - 1.0),
                                         abs=ratios[1] - ratios[0])

    def test_single_cell_grid(self):
        grid = phase_grid(RESONANT, np.array([0.1]), np.array([0.1]))
        assert grid.energy.shape == (1, 1)
        assert grid.cell(0, 0).label == (0, 0)

    def test_rejects_empty_or_decreasing_axes(self):
        with pytest.raises(ValueError):
            phase_grid(RESONANT, np.array([]), np.array([0.1]))
        with pytest.raises(ValueError):
            phase_grid(RESONANT, np.array([0.2, 0.1]), np.array([0.1]))

    def test_energy_continuous_across_label_jumps(self):
        ratios = np.linspace(0.0, 4.6, 2000)
        grid = phase_grid(RESONANT.replace(g2=0.5), ratios, np.array([0.5]))
        energies = grid.energy[:, 0]
        step = (ratios[1] - ratios[0]) * RESONANT.Omega1
        # |dE/dg1| <= sqrt(window+1); allow a generous Lipschitz margin
        assert np.max(np.abs(np.diff(energies))) <= 4.0 * step

    def test_row_validates_its_axis_values(self):
        ax1 = AxisSpec("g1", "g1", np.array([0.5]))
        for values in ([-0.1, 0.2], [0.1, np.inf]):
            with pytest.raises(ValueError, match="g2"):
                compute_grid_row(RESONANT, None, ax1, AxisSpec("g2", "g2", values), 4, 0)
        ax1 = AxisSpec("Omega1", "Omega1", np.array([0.0, 1.0]))
        ax2 = AxisSpec("g2", "g2", np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="Omega1 > 0 required"):
            compute_grid_row(RESONANT, None, ax1, ax2, 4, 0)
        compute_grid_row(RESONANT, None, ax1, ax2, 4, 1)

    def test_rejects_axes_of_one_parameter(self):
        ax1 = AxisSpec("a", "g1", np.linspace(0.0, 4.0, 3))
        ax2 = AxisSpec("b", "g1", np.linspace(0.0, 1.0, 2))
        with pytest.raises(ValueError, match="g1.*twice"):
            sweep_grid(RESONANT, None, ax1, ax2, 6)

    def test_deterministic_under_chunked_evaluation(self):
        ax1 = AxisSpec("g1", "g1", np.linspace(0.0, 4.0, 7))
        ax2 = AxisSpec("g2", "g2", np.linspace(0.0, 3.0, 5))
        full = sweep_grid(RESONANT, None, ax1, ax2, 6)
        rows = [compute_grid_row(RESONANT, None, ax1, ax2, 6, i)
                for i in reversed(range(7))]
        stacked = np.stack([rows[6 - i]["energy"] for i in range(7)])
        assert np.array_equal(full.energy, stacked)


class TestLocateBoundary:
    def test_mode1_onset(self):
        sys = RESONANT.replace(g2=0.05)
        g1_star = locate_boundary(sys, "g1", (0, 0), (1, 0), 0.0, 6.0)
        assert g1_star / sys.Omega1 == pytest.approx(1.0 / (math.sqrt(2) - 1.0), abs=5e-4)

    def test_mode2_onset(self):
        sys = RESONANT.replace(g1=0.0)
        g2_star = locate_boundary(sys, "g2", (0, 0), (0, 1), 0.5, 2.0)
        assert g2_star / sys.Omega2 == pytest.approx(1.0, abs=5e-4)

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

    def test_tolerance_below_float_spacing_ends(self, capped_energy):
        # the bisection stops once its midpoint rounds to an endpoint
        sys = SystemParams(Omega1=1.0, g1=1.0, g2=0.0)
        g1_star = locate_boundary(sys, "g1", (0, 0), (1, 0), 0.5, 5.0, tol=1e-300)
        assert g1_star == pytest.approx(
            locate_boundary(sys, "g1", (0, 0), (1, 0), 0.5, 5.0), abs=1e-4)


class TestDrivenPhasePoint:
    def test_fast_drive_matches_static(self):
        drive = DriveParams(amplitude=0.0, frequency=6.0)
        driven, report = driven_phase_point(RESONANT, drive, block_window=8)
        static = ground_search(RESONANT, block_window=8)
        assert driven.label == static.label
        assert driven.energy == pytest.approx(static.energy, abs=1e-13)
        # at (n0, m0) = (0, 0) the residual counter term is the ordinary
        # counter-rotating correction g/Delta_0 = 0.02, above the 1e-2 rule
        assert report.ratios["gc1/Delta_n0"] == pytest.approx(0.02, abs=1e-14)
        assert not report.rwa_ok

    def test_slow_drive_is_window_capped(self):
        drive = DriveParams(amplitude=0.2 * 0.18, frequency=0.18)
        point, report = driven_phase_point(RESONANT, drive, block_window=5)
        assert point.window_capped
        assert report.hierarchy_ok

    def test_coupling_node_decouples_mode1(self):
        # drive ratio at the first zero of the zeroth-order weight
        drive = DriveParams.from_theta(2.404825557695773, 6.0)
        from lambdajc.effective import effective_for_drive
        _, eff = effective_for_drive(RESONANT, drive)
        assert abs(eff.gr1) < 1e-5 * RESONANT.g1

    def test_tiny_couplings_still_condense(self):
        # two orders of magnitude below the static critical values, the
        # driven model still leaves the normal phase
        drive = DriveParams(amplitude=1e-4 * 0.18, frequency=0.18)
        sys = RESONANT.replace(g1=0.03, g2=0.03)
        point, _ = driven_phase_point(sys, drive, block_window=5)
        assert point.label != (0, 0)


def test_driven_grid_shapes_and_validity_columns():
    drive = DriveParams(amplitude=0.09, frequency=0.18)
    grid = driven_phase_grid(RESONANT, drive,
                             theta_axis=np.linspace(0.35, 1.7, 4),
                             detuning_ratio_axis=np.linspace(0.0, 0.015, 3),
                             block_window=5)
    assert grid.energy.shape == (4, 3)
    assert grid.rwa_ok.shape == (4, 3)
    assert grid.axis2.values[0] == 0.0
    assert grid.window_capped.any()
    assert grid.deviations


def test_driven_grid_mode1_detuning_axis():
    drive = DriveParams(amplitude=0.09, frequency=0.18)
    ratios = np.linspace(0.0, 0.02, 4)
    grid = driven_phase_grid(RESONANT, drive,
                             theta_axis=np.linspace(0.2, 1.0, 3),
                             detuning_ratio_axis=ratios,
                             block_window=5, detuning_mode=1)
    assert grid.axis2.name == "delta1/Omega1"
    assert grid.energy.shape == (3, 4)
    # the realized cavity frequency reproduces the requested ratio
    base = 2 * RESONANT.omega1 + RESONANT.omega2
    for r in ratios:
        Omega1 = base / (1 + r)
        assert (base - Omega1) / Omega1 == pytest.approx(r, abs=1e-14)
    with pytest.raises(ValueError, match="detuning_mode"):
        driven_phase_grid(RESONANT, drive, np.array([0.1]), ratios,
                          detuning_mode=3)


def test_label_sequence_collapses_duplicates():
    labels = [(0, 0), (0, 0), (1, 0), (1, 0), (0, 0), (2, 0)]
    assert label_sequence(labels) == [(0, 0), (1, 0), (0, 0), (2, 0)]


MODEL_FIELDS = ("omega1", "omega2", "Omega1", "Omega2", "g1", "g2")


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
        row = compute_grid_row(sys, drive, axis1, axis2, window, i)
        assert_pruned_matches_full(_row_fields(sys, drive, axis1, axis2, i), window)
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
            row = compute_grid_row(sys, drive, ax1, ax2, 5, i)
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
        # h12^2 + h13^2 is subnormal: the Rayleigh quotient cannot bound
        # these blocks, the smallest diagonal still does
        ax1 = AxisSpec("g2", "g2", np.array([0.0, 1e-162]))
        ax2 = AxisSpec("g1", "g1", np.geomspace(1e-164, 1e-160, 41))
        for i in range(2):
            self.check_row(SystemParams(*STATIC_SAMPLE), None, ax1, ax2, 8, i)
        point = ground_search(SystemParams(*STATIC_SAMPLE, 3.5556433873827877e-162, 0.0))
        assert point.gap == 1.0

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
    cells, eff = _ground_cells(fields, window)
    forced = False
    model = [fields[k] for k in MODEL_FIELDS]
    if eff is not None:
        model = [eff[k] for k in _EFFECTIVE_MODEL]
        forced = (eff["Omega1_eff"] <= 0.0) | (eff["Omega2_eff"] <= 0.0)
    table = ground_energy_table(*(np.asarray(a)[:, None, None] for a in model), window)
    full = _search_tables(table, window, forced)
    assert cells.keys() == full.keys()
    for key in full:
        assert np.array_equal(cells[key], full[key], equal_nan=True), key


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

    def test_forced_cap_rows(self):
        # Omega1_eff = -0.01 at omega_D = 0.18, and exactly 0 at 0.5
        for frequency in (0.18, 0.5):
            drive = DriveParams(amplitude=0.3 * frequency, frequency=frequency)
            for sys in (RESONANT, RESONANT.replace(g1=0.0)):
                ax1 = AxisSpec("g2", "g2", np.array([0.0, 0.05, 0.4]))
                ax2 = AxisSpec("A_D", "A_D", np.linspace(0.0, 1.0, 21))
                for i in range(3):
                    fields = _row_fields(sys, drive, ax1, ax2, i)
                    assert_pruned_matches_full(fields, 5)
                cells, _ = _ground_cells(fields, 5)
                assert cells["window_capped"].all()

    def test_resonant_sample_model_ties(self):
        # at resonance both bounds equal every block's energy, so the
        # threshold sits on the second-lowest energy itself
        g1 = np.linspace(0.0, 5.625, 301)
        g2 = np.linspace(0.0, 4.5, 301)
        for i in range(0, 301, 6):
            assert_pruned_matches_full(static_fields(*STATIC_SAMPLE, g1[i], g2), 8)
            assert_pruned_matches_full(static_fields(*STATIC_SAMPLE, g2, g1[i]), 8)

    def test_zero_coupling_ties(self):
        # g = 0: every block is diagonal; Omega1 = 0 as well makes every n
        # of a given m the same block, an exact tie across n
        axis = np.linspace(0.0, 2.0, 21)
        for window in (1, 4, 8):
            assert_pruned_matches_full(static_fields(*STATIC_SAMPLE, 0.0, 0.0), window)
            assert_pruned_matches_full(static_fields(0.3, 0.3, 1.0, 1.0, 0.0, axis), window)
            fields = static_fields(0.5, 0.25, 0.0, axis + 0.1, 0.0, 0.0)
            assert_pruned_matches_full(fields, window)
            cells, _ = _ground_cells(fields, window)
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
        cells, _ = _ground_cells(fields, 8)
        assert np.isfinite(cells["energy"]).all() and np.isfinite(cells["gap"]).all()

    def test_sample_model_evaluates_few_blocks(self, monkeypatch):
        evaluated = []
        kernel = spectrum._lowest_eig_sym3

        def counted(*h):
            evaluated.append(np.size(h[0]))
            return kernel(*h)

        monkeypatch.setattr(spectrum, "_lowest_eig_sym3", counted)
        g1 = np.linspace(0.0, 5.625, 301)
        g2 = np.linspace(0.0, 4.5, 301)
        rows = range(0, 301, 10)
        for i in rows:
            _ground_cells(static_fields(*STATIC_SAMPLE, g1[i], g2), 8)
        # one kernel call per row, on at most 4 of the 81 blocks per cell
        assert len(evaluated) == len(rows)
        assert sum(evaluated) <= 4 * len(rows) * g2.size

    def test_window_below_one_raises_on_grid_path(self):
        ax1 = AxisSpec("g1", "g1", np.array([0.5]))
        ax2 = AxisSpec("g2", "g2", np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="block_window"):
            compute_grid_row(RESONANT, None, ax1, ax2, 0, 0)
        with pytest.raises(ValueError, match="block_window"):
            ground_search(RESONANT, block_window=0)
