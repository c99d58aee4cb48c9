"""Integer-order Bessel functions of the first kind.

The drive enters the effective couplings only through J_n(theta) and
J_m(2 theta) weights, so a self-contained, high-accuracy evaluator for
integer orders is the one special function this package needs.  bessel_j
is that evaluator, for every integer order; each call evaluates the one
order it is asked for.

Evaluation scheme
-----------------
* x == 0: J_n(0) = delta_{n,0}.
* small |x| (< 1.0): the ascending power series of order n.  Its terms
  shrink fast and alternate with ratio < (x/2)^2, so there is no
  cancellation to speak of.
* otherwise: Miller's downward recurrence with normalisation.  A trial
  solution is recursed down from a start order well above max(n, x) to
  order 0; the trial value at order n is kept, and the normalisation sum
  J_0 + 2 J_2 + 2 J_4 + ... = 1 fixes the overall scale.  The recurrence
  is run with periodic rescaling so the trial values cannot overflow.  This
  is the stable direction for orders above the turning point |n| ~ x, which
  is exactly the regime the deep negative sidebands (orders down to -18 and
  below) live in.

Reflection identities J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x)
reduce every call to n >= 0, x >= 0.
"""

from __future__ import annotations

import math

#: Orders up to this run the recurrence with no underflow screen; deeper
#: orders are screened first (see bessel_j).
MAX_ORDER = 64
MAX_ARGUMENT = 1.0e3
_SERIES_CUTOFF = 1.0
_RESCALE_LIMIT = 1.0e250


def _series(n: int, x: float) -> float:
    """J_n(x) by the ascending series; reliable for small x."""
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term
    k = 0
    while True:
        k += 1
        term *= -(half * half) / (k * (n + k))
        total += term
        if abs(term) <= 1e-20 * max(abs(total), 1e-300) and k >= 4:
            return total


def _miller(n: int, x: float) -> float:
    """J_n(x) by downward recurrence with normalisation, x > 0."""
    start = max(n, int(math.ceil(x)))
    # Generous start-order margin: the trial solution gains ~1 digit of
    # accuracy per extra order above the turning point.
    top = start + 40 + int(10.0 * math.sqrt(start + 1.0))
    value = 0.0  # the trial J_n, once the recurrence has reached order n
    f_up = 0.0
    f = 1e-300
    even_sum = 0.0
    for k in range(top, 0, -1):
        f_down = (2.0 * k / x) * f - f_up
        f_up, f = f, f_down
        if k - 1 == n:
            value = f
        if (k - 1) % 2 == 0 and (k - 1) > 0:
            even_sum += 2.0 * f
        if abs(f) > _RESCALE_LIMIT:
            f *= 1.0 / _RESCALE_LIMIT
            f_up *= 1.0 / _RESCALE_LIMIT
            even_sum *= 1.0 / _RESCALE_LIMIT
            value *= 1.0 / _RESCALE_LIMIT
    norm = even_sum + f  # f now holds the trial J_0
    return value / norm


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for any integer order n and |x| <= 1e3.

    Absolute accuracy is comfortably below 1e-12 across the supported
    domain; the property suite pins normalisation, recurrence and
    reflection identities.  Only order n is evaluated: the series branch
    sums one series, and the recurrence, which must run down to order 0 for
    its normalisation, keeps one trial value.  Slow drives resolve sideband
    orders far beyond MAX_ORDER whose weights underflow to zero: there,
    x == 0 gives an unsigned 0.0, and orders in the decayed region n > |x|
    are first screened with the rigorous bound |J_n(x)| <= (x/2)^n / n!;
    anything below the double-precision floor returns 0.0 without running
    the recurrence.
    """
    n = int(n)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"bessel argument must be finite, got {x!r}")
    if abs(x) > MAX_ARGUMENT:
        raise ValueError(f"|x| <= {MAX_ARGUMENT:g} supported, got {x}")
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2 == 1:
            sign = -sign
    if x < 0:
        x = -x
        if n % 2 == 1:
            sign = -sign
    if n > MAX_ORDER:
        if x == 0.0:
            return 0.0
        if n > x:
            log_bound = n * math.log(x * math.e / (2.0 * n)) - 0.5 * math.log(2.0 * math.pi * n)
            if log_bound < -745.0:
                return 0.0
    if x == 0.0:
        return sign * (1.0 if n == 0 else 0.0)
    if x < _SERIES_CUTOFF:
        return sign * _series(n, x)
    return sign * _miller(n, x)
