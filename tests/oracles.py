"""Independent reference implementations used to pin expected values.

Everything here is deliberately brute force and shares no code with the
package: ascending power series for Bessel values, bisection for roots,
exhaustive integer scans for sideband minima, dense eigensolvers, dense
matrix exponentials and dense Kronecker-product operators for dynamics.
"""

import math

import numpy as np
import scipy.linalg


def bessel_series(n: int, x: float) -> float:
    """J_n(x) by the ascending power series (n >= 0)."""
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term
    k = 0
    while True:
        k += 1
        term *= -(half * half) / (k * (n + k))
        total += term
        if abs(term) <= 1e-22 * max(abs(total), 1e-300) and k >= 6:
            return total


def bessel_signed(n: int, x: float) -> float:
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0:
        x = -x
        if n % 2:
            sign = -sign
    return sign * bessel_series(n, x)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-14) -> float:
    f_lo = fn(lo)
    assert f_lo * fn(hi) < 0, "bracket does not straddle a root"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f_lo * fn(mid) <= 0:
            hi = mid
        else:
            lo, f_lo = mid, fn(mid)
    return 0.5 * (lo + hi)


def brute_sideband(base: float, omega_d: float, span: int = 2_000_000):
    """Exhaustive argmin of |base + n*omega_d| near the continuous optimum."""
    center = int(round(-base / omega_d))
    best_n, best_v = None, math.inf
    for n in range(center - 40, center + 41):
        v = base + n * omega_d
        if abs(v) < best_v or (abs(v) == best_v and n < best_n):
            best_n, best_v = n, abs(v)
    return best_n, base + best_n * omega_d


def resonant_block_ground(n: int, m: int, g1: float, g2: float,
                          omega1=0.5, omega2=0.25, Omega1=1.25, Omega2=1.0):
    """Closed form at zero detuning: common diagonal minus the coupling norm."""
    diag = omega1 + omega2 + Omega1 * n + Omega2 * (m - 1)
    return diag - math.sqrt(g1 * g1 * (n + 1) + g2 * g2 * m)


def dense_block_ground(sys, n: int, m: int) -> float:
    h11 = sys.omega1 + sys.omega2 + sys.Omega1 * n + sys.Omega2 * (m - 1)
    h22 = -sys.omega1 + sys.Omega1 * (n + 1) + sys.Omega2 * (m - 1)
    h33 = -sys.omega2 + sys.Omega1 * n + sys.Omega2 * m
    h12 = sys.g1 * math.sqrt(n + 1)
    h13 = sys.g2 * math.sqrt(m)
    mat = np.array([[h11, h12, h13], [h12, h22, 0.0], [h13, 0.0, h33]])
    return float(np.linalg.eigvalsh(mat)[0])


def dense_ground_table(omega1, omega2, Omega1, Omega2, g1, g2, window: int):
    """Lowest eigenvalue of every block with labels in [0, window]^2 by a
    dense eigensolver, and the largest block-element magnitude (>= 1).

    Takes raw floats so effective parameters of any sign can be fed in.
    """
    n, m = np.mgrid[0:window + 1, 0:window + 1].astype(float)
    mats = np.zeros((window + 1, window + 1, 3, 3))
    mats[..., 0, 0] = omega1 + omega2 + Omega1 * n + Omega2 * (m - 1)
    mats[..., 1, 1] = -omega1 + Omega1 * (n + 1) + Omega2 * (m - 1)
    mats[..., 2, 2] = -omega2 + Omega1 * n + Omega2 * m
    mats[..., 0, 1] = mats[..., 1, 0] = g1 * np.sqrt(n + 1)
    mats[..., 0, 2] = mats[..., 2, 0] = g2 * np.sqrt(m)
    return np.linalg.eigvalsh(mats)[..., 0], max(float(np.abs(mats).max()), 1.0)


def expm_propagate(H: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """Dense matrix-exponential propagation for a constant Hamiltonian."""
    out = np.empty((len(times), psi0.size), dtype=complex)
    for i, t in enumerate(times):
        out[i] = scipy.linalg.expm(-1j * H * t) @ psi0
    return out


def dense(op, dim: int) -> np.ndarray:
    """An operator given as the (rows, cols, values) of its entries, dense;
    repeated entries add up."""
    rows, cols, values = op
    out = np.zeros((dim, dim))
    np.add.at(out, (rows, cols), values)
    return out


def kron_sigma(k: int, j: int, n_c1: int, n_c2: int) -> np.ndarray:
    """|k><j| (x) 1 (x) 1 on the atom (x) mode-1 (x) mode-2 space, dense."""
    at = np.zeros((3, 3))
    at[k - 1, j - 1] = 1.0
    return np.kron(np.kron(at, np.eye(n_c1 + 1)), np.eye(n_c2 + 1))


def kron_lower(mode: int, n_c1: int, n_c2: int) -> np.ndarray:
    """The lowering operator of one mode on the product space, dense."""
    factors = [np.eye(3), np.eye(n_c1 + 1), np.eye(n_c2 + 1)]
    cutoff = (n_c1, n_c2)[mode - 1]
    factors[mode] = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def kron_number(mode: int, n_c1: int, n_c2: int) -> np.ndarray:
    """a'a of one mode on the product space, dense."""
    a = kron_lower(mode, n_c1, n_c2)
    return a.T @ a
