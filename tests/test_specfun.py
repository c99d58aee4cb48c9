import hashlib

import numpy as np
import pytest

from lambdajc.specfun import bessel_j

from oracles import bessel_series, bessel_signed, bisect_root

# First positive root of J_0, located by the series + bisection oracle.
J0_FIRST_ROOT = 2.404825557695773


def test_value_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    for n in range(1, 10):
        assert bessel_j(n, 0.0) == 0.0


def test_reflection_identity():
    assert bessel_j(-3, 1.7) == pytest.approx(-bessel_j(3, 1.7), abs=1e-14)
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(0, 65))
        x = float(rng.uniform(-50, 50))
        expected = (-1.0) ** n * bessel_j(n, x)
        assert bessel_j(-n, x) == pytest.approx(expected, abs=1e-14)


def test_first_root_of_j0():
    root = bisect_root(lambda x: bessel_series(0, x), 2.0, 3.0)
    assert root == pytest.approx(J0_FIRST_ROOT, abs=1e-12)
    assert abs(bessel_j(0, 2.404826)) < 1e-6


def test_deep_order_small_argument():
    # the slow-sideband coupling weight at small drive ratios
    value = bessel_j(-14, 1.0)
    assert abs(value) < 1e-13
    assert value == pytest.approx(bessel_signed(-14, 1.0), abs=1e-15)


def test_against_series_oracle():
    for x in (0.05, 0.3, 0.9, 1.7, 3.2, 5.0):
        for n in range(0, 65, 4):
            assert bessel_j(n, x) == pytest.approx(bessel_series(n, x), abs=2e-14)


def test_normalization_identity():
    # J_0^2 + 2 sum_{n>=1} J_n^2 = 1
    for x in np.linspace(0.1, 20.0, 23):
        row = np.array([bessel_j(n, float(x)) for n in range(65)])
        total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_three_term_recurrence():
    for x in np.linspace(0.5, 20.0, 14):
        row = [bessel_j(n, float(x)) for n in range(33)]
        for n in range(1, 31):
            lhs = row[n - 1] + row[n + 1]
            rhs = (2.0 * n / x) * row[n]
            scale = max(abs(lhs), abs(rhs), 1e-280)
            assert abs(lhs - rhs) <= 1e-9 * scale


def test_magnitude_bound():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(-64, 65))
        x = float(rng.uniform(-1000, 1000))
        assert abs(bessel_j(n, x)) <= 1.0 + 1e-14


def test_large_argument_against_recurrence_consistency():
    # at x = 1000 the orders should still satisfy the defining recurrence
    row = [bessel_j(n, 1000.0) for n in range(65)]
    for n in range(1, 63):
        lhs = row[n - 1] + row[n + 1]
        rhs = (2.0 * n / 1000.0) * row[n]
        assert abs(lhs - rhs) <= 1e-12


# blake2b of the repr of every bessel_j value over _pinned_sample(): any
# changed bit of a weight, the sign of a zero included, changes it
BESSEL_DIGEST = "7b8e20cb7d504c99dcc34601eaf89fc4"


def _pinned_sample():
    """20,000 seeded (n, x) pairs across the recurrence's range, then every
    order in [-130, 130] at zero, signed zero and the branch edges."""
    rng = np.random.default_rng(19)
    orders = rng.integers(-400, 401, size=20000)
    args = rng.uniform(-60.0, 60.0, size=20000)
    pairs = [(int(n), float(x)) for n, x in zip(orders, args)]
    edges = (0.0, -0.0, 0.2, -0.2, 0.999, 1.0, -1.0, 1e3, -1e3)
    return pairs + [(n, x) for x in edges for n in range(-130, 131)]


def test_pinned_bits():
    digest = hashlib.blake2b(digest_size=16)
    for n, x in _pinned_sample():
        digest.update(repr(bessel_j(n, x)).encode() + b"\n")
    assert digest.hexdigest() == BESSEL_DIGEST


def test_invalid_arguments():
    with pytest.raises(ValueError):
        bessel_j(0, float("nan"))
    with pytest.raises(ValueError):
        bessel_j(0, float("inf"))
    with pytest.raises(ValueError):
        bessel_j(0, 1.5e3)


class TestDeepOrders:
    def test_underflow_shortcut(self):
        # far past the turning point the weight is below the double floor
        assert bessel_j(200, 1.0) == 0.0
        assert bessel_j(300, 0.2) == 0.0
        # still representable values are computed, not zeroed: the deep
        # order at small argument lands near 1e-261
        tiny = bessel_j(-101, 0.2)
        assert tiny < 0  # odd-order reflection sign
        assert 0 < abs(tiny) < 1e-250

    def test_moderate_deep_order_value(self):
        # beyond MAX_ORDER but above the underflow floor: pin against
        # the leading series term, which dominates at small argument
        value = bessel_j(70, 2.0)
        import math
        leading = 1.0 / math.factorial(70)
        assert value == pytest.approx(leading, rel=1e-1)
        assert bessel_j(-70, 2.0) == value  # even-order reflection

    @pytest.mark.parametrize("n, x", [(150, 1.5), (120, 1.0), (-121, 1.0)])
    def test_rescaled_recurrence_matches_series(self, n, x):
        # the trial values of these recurrences pass the rescale limit once
        # on the way down; -121 checks the odd-order reflection sign
        assert bessel_j(n, x) == pytest.approx(bessel_signed(n, x), rel=1e-14)

    def test_argument_cap_still_applies(self):
        with pytest.raises(ValueError):
            bessel_j(100, 2.0e3)
