import warnings

import numpy as np
import pytest

from lambdajc.effective import _bessel_each, effective_point, effective_table
from lambdajc.params import MODEL_FIELDS, DriveParams, SystemParams
from lambdajc.specfun import MAX_ORDER, bessel_j

from oracles import bessel_series, brute_sideband

RESONANT = SystemParams()


def drive_for(theta: float, omega_d: float) -> DriveParams:
    return DriveParams(amplitude=theta * omega_d, frequency=omega_d)


class TestDetunings:
    # delta1 = 2 omega1 + omega2 - Omega1, delta2 = 2 omega2 + omega1 - Omega2
    def _detunings(self, sys):
        rec = effective_point(sys, drive_for(0.1, 0.18))
        return rec["delta1"], rec["delta2"]

    def test_resonant_defaults(self):
        assert self._detunings(RESONANT) == (0.0, 0.0)

    def test_detuned_mode2(self):
        d1, d2 = self._detunings(RESONANT.replace(Omega2=0.97))
        assert d1 == 0.0
        assert d2 == pytest.approx(0.03, abs=1e-15)

    def test_detuned_mode1(self):
        d1, d2 = self._detunings(RESONANT.replace(Omega1=1.22))
        assert d1 == pytest.approx(0.03, abs=1e-15)
        assert d2 == 0.0


class TestFindSidebands:
    @pytest.mark.parametrize("omega_d,expected", [
        (0.18, (-14, -11)),
        (0.49, (-5, -4)),
    ])
    def test_published_orders(self, omega_d, expected):
        rec = effective_point(RESONANT, drive_for(0.5, omega_d))
        assert (rec["n0"], rec["m0"]) == expected

    def test_high_frequency_limit(self):
        rec = effective_point(RESONANT, drive_for(0.1, 6.0))
        assert (rec["n0"], rec["m0"]) == (0, 0)
        assert rec["Delta_n0"] == pytest.approx(2.5, abs=1e-15)
        assert rec["Delta_m0"] == pytest.approx(2.0, abs=1e-15)

    def test_matches_brute_argmin(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            omega_d = float(rng.uniform(0.03, 8.0))
            rec = effective_point(RESONANT, drive_for(0.1, omega_d))
            n_ref, dn_ref = brute_sideband(2.5, omega_d)
            m_ref, dm_ref = brute_sideband(2.0, omega_d)
            assert (rec["n0"], rec["m0"]) == (n_ref, m_ref)
            assert rec["Delta_n0"] == dn_ref
            assert rec["Delta_m0"] == dm_ref

    def test_exact_tie_prefers_more_negative(self):
        # base1 = 2.5 exactly, omega_d = 1: |2.5 - 2| = |2.5 - 3| = 0.5
        rec = effective_point(RESONANT, drive_for(0.0, 1.0))
        assert rec["n0"] == -3
        assert rec["Delta_n0"] == -0.5
        # base2 = 2.0: minimized exactly at -2
        assert rec["m0"] == -2
        assert rec["Delta_m0"] == 0.0

    def test_signed_storage(self):
        rec = effective_point(RESONANT, drive_for(0.5, 0.18))
        assert rec["Delta_n0"] == pytest.approx(-0.02, abs=1e-15)
        assert rec["Delta_m0"] == pytest.approx(0.02, abs=1e-15)


class TestEffectiveParameters:
    def test_drive_free_limit_recovers_bare(self):
        rec = effective_point(RESONANT, drive_for(0.0, 6.0))
        assert rec["Omega1_eff"] == pytest.approx(RESONANT.Omega1, abs=1e-15)
        assert rec["Omega2_eff"] == pytest.approx(RESONANT.Omega2, abs=1e-15)
        assert rec["omega1_eff"] == pytest.approx(RESONANT.omega1, abs=1e-15)
        assert rec["omega2_eff"] == pytest.approx(RESONANT.omega2, abs=1e-15)
        assert (rec["gr1"], rec["gr2"]) == (RESONANT.g1, RESONANT.g2)
        # at (n0, m0) = (0, 0) the counter weights reduce to J_0(0) = 1
        assert (rec["gc1"], rec["gc2"]) == (RESONANT.g1, RESONANT.g2)

    def test_mode1_zero_at_matching_drive(self):
        rec = effective_point(RESONANT, drive_for(0.3, 0.5))
        assert rec["n0"] == -5
        assert rec["Omega1_eff"] == 0.0

    def test_slow_drive_values(self):
        rec = effective_point(RESONANT, drive_for(0.5, 0.18))
        assert rec["Omega1_eff"] == pytest.approx(-0.01, abs=1e-15)
        assert rec["Omega2_eff"] == pytest.approx(0.01, abs=1e-15)
        assert rec["omega1_eff"] == pytest.approx(-0.01, abs=1e-15)
        assert rec["omega2_eff"] == pytest.approx(0.01, abs=1e-15)

    def test_zero_amplitude_couplings(self):
        rec = effective_point(RESONANT, DriveParams(amplitude=0.0, frequency=0.18))
        assert rec["n0"] == -14
        assert (rec["gr1"], rec["gr2"]) == (RESONANT.g1, RESONANT.g2)
        assert rec["gc1"] == 0.0 and rec["gc2"] == 0.0

    def test_signed_coupling_orders(self):
        # gc uses the signed order: J_{-5}(x) = -J_5(x)
        rec = effective_point(RESONANT, drive_for(0.5, 0.49))
        assert rec["gc1"] == pytest.approx(
            RESONANT.g1 * (-1) ** 5 * bessel_series(5, 0.5), rel=1e-12)
        assert rec["gc2"] == pytest.approx(
            RESONANT.g2 * bessel_series(4, 1.0), rel=1e-12)

    def test_bessel_each_matches_per_cell_calls(self):
        # one evaluation per distinct (order, x) pair, scattered back to the
        # cells, has the bits of one bessel_j call per cell: mixed orders,
        # repeated arguments and both signed zeros, per-cell and scalar orders
        x = np.array([[0.0, -0.0, 1.3, 1.3, 0.2],
                      [-0.0, 2.5, 0.0, 1.3, 0.2],
                      [2.5, 0.7, -1.3, 0.0, -0.0]])
        orders = np.array([[0, -1, -14, 3, 1],
                           [-1, -14, 0, -14, 1],
                           [2, 0, -14, 1, 1]])
        for n in (orders, 0, -11):
            cells = np.broadcast_to(n, x.shape)
            want = np.array([bessel_j(int(k), float(z))
                             for k, z in zip(cells.ravel(), x.ravel())])
            got = _bessel_each(n, x)
            assert got.shape == x.shape
            assert got.tobytes() == want.tobytes()

    def test_frame_cancellation_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            sys = SystemParams(
                omega1=float(rng.uniform(0.05, 2.0)),
                omega2=float(rng.uniform(0.05, 2.0)),
                Omega1=float(rng.uniform(0.1, 3.0)),
                Omega2=float(rng.uniform(0.1, 3.0)),
                g1=float(rng.uniform(0.0, 1.0)),
                g2=float(rng.uniform(0.0, 1.0)),
            )
            drive = DriveParams(amplitude=float(rng.uniform(0.0, 5.0)),
                                frequency=float(rng.uniform(0.05, 10.0)))
            rec = effective_point(sys, drive)
            lhs = 2.0 * rec["omega1_eff"] + rec["omega2_eff"]
            assert abs(rec["delta1"] + rec["Omega1_eff"] - lhs) <= 1e-12
            assert abs(rec["Delta_n0"] - rec["Omega1_eff"] - lhs) <= 1e-12
            rhs = rec["omega1_eff"] + 2.0 * rec["omega2_eff"]
            assert abs(rec["delta2"] + rec["Omega2_eff"] - rhs) <= 1e-12
            assert abs(rec["Delta_m0"] - rec["Omega2_eff"] - rhs) <= 1e-12


class TestZeroFrequencies:
    def test_zeros_annihilate_effective_frequency(self):
        # Omega1_eff vanishes at omega_D = 2 Omega1/|n|, Omega2_eff at 2 Omega2/|n|
        for order in range(-18, 0):
            for cavity in ("Omega1", "Omega2"):
                drive = drive_for(0.1, 2.0 * getattr(RESONANT, cavity) / abs(order))
                assert abs(effective_point(RESONANT, drive)[f"{cavity}_eff"]) <= 1e-12


class TestValidityReport:
    def _report(self, theta, omega_d, sys=RESONANT):
        return effective_point(sys, drive_for(theta, omega_d))

    def test_zero_amplitude_is_valid(self):
        report = self._report(0.0, 0.18)
        assert report["rwa_ok"]

    def test_published_operating_point(self):
        report = self._report(0.5, 0.49)
        # counter-rotating weight from the series oracle: J_5(0.5)/Delta
        ratio = RESONANT.g1 * abs(bessel_series(5, 0.5)) / 0.05
        assert ratio < 0.01
        assert report["gc1/Delta_n0"] == pytest.approx(ratio, rel=1e-10)
        assert report["rwa_ok"]
        assert report["hierarchy_ok"]

    def test_large_theta_breaks_rwa(self):
        report = self._report(5.0, 0.18)
        assert not report["rwa_ok"]

    def test_vanishing_sideband_phase_is_flagged_infinite(self):
        # omega_d = 0.5 puts the mode-1 sideband phase exactly at zero
        report = self._report(0.3, 0.5)
        assert report["gc1/Delta_n0"] == np.inf
        assert not report["rwa_ok"]

    def test_threshold_crossing_in_theta(self):
        # the audit must flip exactly once from valid to invalid as the
        # drive ratio grows at fixed frequency
        thetas = np.linspace(0.05, 4.0, 200)
        flags = [self._report(float(t), 0.49)["rwa_ok"] for t in thetas]
        assert flags[0] and not flags[-1]
        flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert flips == 1

    def test_hierarchy_flags_slow_drive(self):
        report = self._report(0.1, 0.06)
        # g/omega_D = 0.83 breaks the scale hierarchy
        assert not report["hierarchy_ok"]


class TestValleyStructure:
    def test_piecewise_linear_segments_and_saturation(self):
        omegas = np.linspace(0.05, 6.0, 10_000)
        orders = np.empty(omegas.size, dtype=int)
        values = np.empty(omegas.size)
        for i, wd in enumerate(omegas):
            rec = effective_point(RESONANT, drive_for(0.1, float(wd)))
            orders[i] = rec["n0"]
            values[i] = rec["Omega1_eff"]
        # argmin order is a step function, non-decreasing with frequency
        assert np.all(np.diff(orders) >= 0)
        # within each constant-order segment the curve is exactly linear:
        # Omega1_eff = (2.5 + n0*omega_d)/2
        for i in range(omegas.size):
            expected = (2.5 + orders[i] * omegas[i]) / 2.0
            assert values[i] == pytest.approx(expected, abs=1e-12)
        # saturation: once the zeroth order wins, the bare frequency returns
        sat = omegas > 2.0 * 2.5
        assert np.all(orders[sat] == 0)
        assert np.all(values[sat] == RESONANT.Omega1)

    def test_order_constant_across_each_zero(self):
        # the mode-1 zero of order n sits at omega_D = 2 Omega1/|n|
        for order in range(-18, 0):
            for shift in (-1e-3, 1e-3):
                omega_d = 2.0 * RESONANT.Omega1 / abs(order) + shift
                assert effective_point(RESONANT, drive_for(0.1, omega_d))["n0"] == order


class TestEffectiveTableValidation:
    @pytest.mark.parametrize("frequency", [0.0, -0.18, float("inf"), float("nan")])
    def test_rejects_frequency_not_finite_and_positive(self, frequency):
        # inf used to warn and return nan couplings; nan used to fail
        # inside the Bessel evaluator with a misleading message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="drive frequency"):
                effective_table(*(getattr(RESONANT, k) for k in MODEL_FIELDS),
                                0.036, [0.18, frequency])


class TestOnePointForms:
    def test_match_effective_table_bit_for_bit(self):
        rng = np.random.default_rng(41)
        points = []
        for i in range(300):
            sys = SystemParams(
                omega1=float(rng.uniform(-1.0, 2.0)),
                omega2=float(rng.uniform(-1.0, 2.0)),
                Omega1=float(rng.uniform(0.1, 3.0)),
                Omega2=float(rng.uniform(0.1, 3.0)),
                g1=float(rng.uniform(0.0, 3.0)),
                g2=0.0 if i % 10 == 0 else float(rng.uniform(0.0, 3.0)),
            )
            # one draw in three is a slow drive, whose sideband orders lie
            # beyond MAX_ORDER
            slow = i % 3 == 0
            frequency = float(rng.uniform(0.025, 0.035) if slow else rng.uniform(0.05, 6.0))
            points.append((sys, drive_for(float(rng.uniform(0.0, 3.0)), frequency)))
        # omega_D = 0.5 puts the mode-1 sideband phase exactly at zero
        points.append((RESONANT, drive_for(0.3, 0.5)))
        table = effective_table(*([getattr(p, k) for p, _ in points] for k in MODEL_FIELDS),
                                [d.amplitude for _, d in points],
                                [d.frequency for _, d in points])
        for i, (sys, drive) in enumerate(points):
            rec = effective_point(sys, drive)
            assert list(rec) == list(table)
            for name, value in rec.items():
                assert type(value) in (int, float, bool), (i, name)
                assert value == table[name][i], (i, name)
        assert np.abs(table["n0"]).max() > MAX_ORDER
        assert np.isinf(table["gc1/Delta_n0"][-1])
