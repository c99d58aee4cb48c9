"""Truncated product space, Hamiltonian assembly, and echo evolution.

State space
-----------
Three atomic levels tensor two truncated Fock ladders.  Basis order is
lexicographic with the atom outermost and mode 2 innermost, so |k, n1, n2>
is basis state

    ((k-1)*(n_c1+1) + n1)*(n_c2+1) + n2,   k in {1,2,3}.

Hamiltonian variants
--------------------
Every variant is a list of (constant real operator, scalar coefficient)
terms: each operator written from the basis index arrays, each
coefficient A * exp(i*(phi*t + z*sin(w_D*t))), z = 0 except in the drive
frame.  Each physical term is constructed once and its exact Hermitian
conjugate is added alongside, so the instantaneous sum is Hermitian by
construction and no conjugate phase can ever be entered with the wrong sign.

    JC_STATIC         excitation-conserving lab-frame model.
    DRIVE_ROTATED     drive frame: all Bessel-weighted sidebands of both the
                      co-rotating and counter-rotating couplings, summed in
                      closed form by Jacobi-Anger (z = theta, 2*theta).
    DOMINANT_SIDEBAND drive frame keeping only the zeroth co-rotating and
                      the slowest counter-rotating sideband of each mode.
    EFFECTIVE_FULL    time-independent effective model including the
                      residual counter-rotating couplings gc1, gc2.
    EFFECTIVE_JC      final effective excitation-conserving model (gc terms
                      dropped).

Echoes compare two branches evolved from one initial state, on its space;
branches must live in the same frame (DRIVE_ROTATED vs DOMINANT_SIDEBAND,
or EFFECTIVE_FULL vs EFFECTIVE_JC) because cross-frame overlaps are not
frame-invariant and would silently measure the wrong thing.  An echo
keeps its fidelity and each branch's record as evolve returns it.

Propagation
-----------
A variant whose every coefficient is a pure phase A*exp(i*phi*t) is
stationary in a diagonal frame: for one real diagonal K = alpha*n1 +
beta*n2 + e_atom with K_r - K_c = phi on every entry (r, c) of every term
(TermList.frame; K = 0 for the time-independent variants), H(t) =
exp(iKt) H(0) exp(-iKt), so psi(t) = exp(iKt) exp(-i(H(0) + K)t) psi(0)
is sampled exactly from one diagonalization.  Their amplitudes are real,
so H(0) + K is real symmetric (a complex one is refused) and takes one
real eigh; with eigenpairs (E, V) and c = V^T psi(0), each block of at
most CF4_BLOCK_EXPONENTIALS samples is one matrix product
(exp(-iEt) * c) @ V^T, t down the rows, times exp(iKt), the outer
product of a small table per term of K.
DRIVE_ROTATED has no such frame, since its z*sin(w_D*t) phases are not
linear in t; it uses a fourth-order commutator-free exponential
integrator (CF4: two Gauss-node exponentials per substep).  A TermList
stores its entries once, on one fixed pattern laid out as transposed
padded rows.  The weights of the exponentials are evaluated, already
scaled by -ih, at most CF4_BLOCK_EXPONENTIALS exponentials (or one
sample interval) at a time.  Each exponential rewrites its exponent A's
values from them, writes each Taylor power A^k psi in place as one
multiply and one sum of the padded rows in pattern order (no einsum), and
ends in one sum of the powers weighted by 1/k!.  The run's error budget,
STEP_TOL (1e-7) in the sampled amplitudes, goes 0.9 to the step and 0.1
to the Taylor remainders.  The substep, chosen once per run, is the
longest within dt_max and the sampling bound 2*pi/(20*phi_max) whose
error, estimated by a Richardson pair on the first substep and added up
over the run, is at most 0.9*STEP_TOL.  The Taylor degree, fixed once per
run from a norm bound, is the smallest whose remainders, added up over
the run, are at most 0.1*STEP_TOL (never past the unit-roundoff degree);
that share bounds the norm drift too: 1e-8, NORM_DRIFT_MAX.  phi_max is
the peak instantaneous frequency max(|phi| + |z|*w_D) over the terms;
dt_max is checked against that bound for every variant, but it sets only
the CF4 substep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .effective import _sideband_bases, effective_point
from .params import DriveParams, SystemParams

DEFAULT_T_MAX = 200.0
DEFAULT_SAMPLES = 2000
COHERENT_LEAKAGE_MAX = 1e-12
LEAKAGE_WARN = 1e-6
NORM_DRIFT_MAX = 1e-8

_SQRT3 = math.sqrt(3.0)


class TruncationError(ValueError):
    """Raised when a requested state cannot be represented at the cutoff."""


class PropagationError(RuntimeError):
    """Raised when the Hamiltonian cannot be propagated: its norm bound is
    past what the eigensolver of a framed variant takes, or so large that
    no Taylor degree keeps the remainders within their share of STEP_TOL,
    or a framed variant's H(0) + K is not real."""


class Variant(str, Enum):
    JC_STATIC = "jc-static"
    DRIVE_ROTATED = "drive-rotated"
    DOMINANT_SIDEBAND = "dominant-sideband"
    EFFECTIVE_FULL = "effective-full"
    EFFECTIVE_JC = "effective-jc"


_FRAME = {
    Variant.JC_STATIC: "lab",
    Variant.DRIVE_ROTATED: "drive-rotated",
    Variant.DOMINANT_SIDEBAND: "drive-rotated",
    Variant.EFFECTIVE_FULL: "effective",
    Variant.EFFECTIVE_JC: "effective",
}

#: The two branches of each echo pair the CLI runs, by config name.
ECHO_PAIRS = {
    "rotated": (Variant.DRIVE_ROTATED, Variant.DOMINANT_SIDEBAND),
    "effective": (Variant.EFFECTIVE_FULL, Variant.EFFECTIVE_JC),
}


#: An operator as the (rows, cols, values) arrays of its entries.
Entries = tuple[np.ndarray, np.ndarray, np.ndarray]


class HilbertSpace:
    """Truncated atom (x) mode-1 (x) mode-2 product space."""

    def __init__(self, n_c1: int, n_c2: int):
        if n_c1 < 1 or n_c2 < 1:
            raise ValueError(f"Fock cutoffs must be >= 1, got ({n_c1}, {n_c2})")
        self.n_c1 = int(n_c1)
        self.n_c2 = int(n_c2)
        self.d1 = self.n_c1 + 1
        self.d2 = self.n_c2 + 1
        self.dim = 3 * self.d1 * self.d2
        idx = np.arange(self.dim)
        self._n2 = idx % self.d2
        self._n1 = (idx // self.d2) % self.d1
        self._atom = idx // (self.d1 * self.d2) + 1
        self.top1_mask = self._n1 == self.n_c1
        self.top2_mask = self._n2 == self.n_c2

    # -- the model's operators, written from the index arrays as the
    # (rows, cols, values) of their entries; every operator is real --

    def diagonal(self, entries: np.ndarray) -> Entries:
        """The diagonal operator with these entries; zeros are left out."""
        keep = np.flatnonzero(entries)
        return keep, keep, entries[keep]

    def jump(self, k: int, create: bool) -> Entries:
        """|3><k| a_k, or |3><k| a_k' if create: column (k, n1, n2) goes to row
        (3, n1 -+ 1, n2) for k = 1 or (3, n1, n2 -+ 1) for k = 2, weighted by
        the square root of the larger photon number."""
        n, top = (self._n1, self.n_c1) if k == 1 else (self._n2, self.n_c2)
        step = 1 if create else -1
        cols = np.flatnonzero((self._atom == k) & (0 <= n + step) & (n + step <= top))
        rows = cols + (3 - k) * self.d1 * self.d2 + step * (self.d2 if k == 1 else 1)
        return rows, cols, np.sqrt(np.maximum(n[cols], n[cols] + step))


def build_space(n_c1: int, n_c2: int) -> HilbertSpace:
    return HilbertSpace(n_c1, n_c2)


@dataclass
class StateVector:
    amplitudes: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, "
                             f"expected ({self.space.dim},)")
        norm = np.linalg.norm(amps)
        # written so that a NaN norm is rejected too
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
        self.amplitudes = amps


#: Atomic-part presets for the bundled initial states: the bare second
#: lower level and the three equal-weight two-level superpositions.
ATOMIC_PRESETS = {
    "2": np.array([0.0, 1.0, 0.0]),
    "1-2": np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0),
    "1+3": np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0),
    "2+3": np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0),
}


_CUTOFF_SEARCH_MAX = 100000   # the largest cutoff _required_cutoff names


def _mean_photons(alpha: complex) -> float:
    """|alpha|^2, or inf where it overflows a float."""
    try:
        return abs(alpha) ** 2
    except OverflowError:
        return math.inf


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    alpha = complex(alpha)
    out = np.zeros(cutoff + 1, dtype=complex)
    out[0] = 1.0
    # where alpha^n overflows the amplitudes are not finite, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cutoff + 1):
            out[n] = out[n - 1] * alpha / math.sqrt(n)
        return out * math.exp(-0.5 * _mean_photons(alpha))


def _required_cutoff(alpha: complex, tol: float) -> int:
    """Smallest cutoff, up to _CUTOFF_SEARCH_MAX (one more when past it),
    whose Poisson tail weight drops below tol.  Each weight is taken from
    its logarithm, so none underflows.  The weights run until, past the
    mean lam, the rest is far below tol, and the tail is summed from a
    bound on that rest: 1 minus the kept weight rounds too coarsely."""
    lam = _mean_photons(alpha)
    if not lam < _CUTOFF_SEARCH_MAX:
        # a cutoff at or below the mean leaves about half the weight
        return _CUTOFF_SEARCH_MAX + 1
    weights = []
    for n in range(_CUTOFF_SEARCH_MAX + 1):
        weights.append(math.exp(n * math.log(lam) - lam - math.lgamma(n + 1)))
        if n > lam and weights[-1] * lam < 1e-16 * tol * (n + 1 - lam):
            break
    # past the mean, weight n + 1 is at most lam / (n + 1) times weight n
    tail = weights[-1] * lam / (len(weights) - lam)
    for n in range(len(weights) - 1, -1, -1):
        if tail >= tol:
            return n + 1
        tail += weights[n]
    return 0


def coherent_state(space: HilbertSpace, alpha1: complex, alpha2: complex,
                   atom: str) -> StateVector:
    """Normalized product state: atomic part (x) coherent (x) coherent.

    atom is one of the ATOMIC_PRESETS keys; any other state is a
    StateVector.  The truncated weight each coherent factor loses must
    stay below 1e-12, otherwise a TruncationError reports the cutoff that
    would suffice.
    """
    # a list is no dict key: test the type first
    if not isinstance(atom, str) or atom not in ATOMIC_PRESETS:
        raise ValueError(f"unknown atomic preset {atom!r}; "
                         f"choose from {sorted(ATOMIC_PRESETS)}")
    at = ATOMIC_PRESETS[atom].astype(complex)
    parts = []
    for alpha, cutoff, label in ((alpha1, space.n_c1, "mode 1"),
                                 (alpha2, space.n_c2, "mode 2")):
        if not cmath.isfinite(alpha):
            raise ValueError(f"{label} coherent amplitude {alpha!r} is not finite")
        c = _coherent_amplitudes(alpha, cutoff)
        kept = float(np.sum(np.abs(c) ** 2))
        # a weight that overflowed keeps nothing
        leak = max(1.0 - kept, 0.0) if math.isfinite(kept) else 1.0
        if leak >= COHERENT_LEAKAGE_MAX:
            need = _required_cutoff(alpha, COHERENT_LEAKAGE_MAX)
            advice = (f"at least {need}" if need <= _CUTOFF_SEARCH_MAX
                      else f"more than {_CUTOFF_SEARCH_MAX}")
            raise TruncationError(
                f"{label} coherent amplitude {alpha!r} leaks {leak:.3e} past "
                f"cutoff {cutoff}; a cutoff of {advice} is required")
        parts.append(c)
    amps = np.kron(np.kron(at, parts[0]), parts[1])
    amps = amps / np.linalg.norm(amps)
    return StateVector(amplitudes=amps, space=space)


# ---------------------------------------------------------------------------
# Hamiltonian assembly


@dataclass(frozen=True)
class HamiltonianSpec:
    variant: Variant
    sys: SystemParams
    drive: DriveParams | None = None

    def __post_init__(self):
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        # every frame but the lab frame is the drive's or derived from it
        if _FRAME[variant] != "lab" and self.drive is None:
            raise ValueError(f"variant {variant.value} requires drive parameters")

    @property
    def frame(self) -> str:
        return _FRAME[self.variant]


def _coefficient(amplitude, phase, depth, rate, t):
    """amplitude * exp(i*(phase*t + depth*sin(rate*t))), elementwise."""
    return amplitude * np.exp(1j * (phase * t + depth * np.sin(rate * t)))


@dataclass(frozen=True)
class Term:
    op: Entries
    amplitude: complex
    phase: float
    depth: float = 0.0
    rate: float = 0.0


@dataclass
class TermList:
    """The term list of one variant and its one operator representation: a
    fixed pattern, the sorted union of the term operators' entries, with
    the (nnz, terms) map from term coefficients to the values on it, so the
    instantaneous Hamiltonian's values are one product data_map @ c(t).
    The pattern is kept as transposed padded rows (ELL): column i of
    columns and slots, shape (width, dim), holds the column and pattern
    index of each entry of row i in order, padded with column 0 and slot
    nnz (a zero value).

    frame is (alpha, beta, e_atom) of the real diagonal K = alpha*n1 +
    beta*n2 + e_atom[atom - 1] with K_r - K_c = phase on every entry (r, c)
    of every term, so H(t) = exp(iKt) H(0) exp(-iKt); None if there is none."""

    terms: list[Term]
    space: HilbertSpace
    frame: tuple[float, float, np.ndarray] | None = None

    def __post_init__(self):
        dim = self.space.dim
        ops = [term.op for term in self.terms]
        # row-major position of every entry; the pattern is their sorted union
        keys = np.concatenate([r.astype(np.int64) * dim + c for r, c, _ in ops])
        pattern, slot = np.unique(keys, return_inverse=True)
        self._rows, self._cols = np.divmod(pattern, dim)
        which = np.repeat(np.arange(len(ops)), [v.size for *_, v in ops])
        self.data_map = np.zeros((pattern.size, len(ops)), dtype=complex)
        # duplicate entries of one operator add up, as in the operator itself
        np.add.at(self.data_map, (slot, which), np.concatenate([v for *_, v in ops]))
        # each entry's place in its row: its slot less its row's first slot
        place = np.arange(pattern.size) - np.searchsorted(self._rows, self._rows)
        width = int(place.max()) + 1
        self.slots = np.full((width, dim), pattern.size)
        self.slots[place, self._rows] = np.arange(pattern.size)
        self.columns = np.append(self._cols, 0)[self.slots]
        self._params = [np.array([getattr(t, k) for t in self.terms])
                        for k in ("amplitude", "phase", "depth", "rate")]

    @property
    def phi_max(self) -> float:
        return max((abs(t.phase) + abs(t.depth) * t.rate for t in self.terms),
                   default=0.0)

    @property
    def norm_bound(self) -> float:
        """The 1-norm of sum_k |a_k| |O_k| (entrywise moduli), a bound on
        ||H(t)||_1 at every t since |c_k(t)| = |a_k|; H(t) is Hermitian, so
        it bounds ||H(t)||_2 too."""
        moduli = np.abs(self.data_map) @ np.abs(self._params[0])
        return float(np.bincount(self._cols, moduli, self.space.dim).max())

    def coefficients(self, t) -> np.ndarray:
        """Every term's coefficient at times t, shape (terms, *t.shape)."""
        t = np.asarray(t, dtype=float)
        shape = (-1,) + (1,) * t.ndim
        return _coefficient(*(p.reshape(shape) for p in self._params), t)

    def matrix_at(self, t: float) -> np.ndarray:
        """Instantaneous Hamiltonian H(t), dense."""
        dim = self.space.dim
        H = np.zeros((dim, dim), dtype=complex)
        H[self._rows, self._cols] = self.data_map @ self.coefficients(t)
        return H


def _pair(terms: list[Term], op: Entries, amplitude: float, phase: float,
          depth: float = 0.0, rate: float = 0.0):
    """Append a physical term together with its exact Hermitian conjugate;
    op is real, so its adjoint swaps rows and columns."""
    rows, cols, values = op
    terms.append(Term(op=op, amplitude=complex(amplitude), phase=float(phase),
                      depth=float(depth), rate=float(rate)))
    terms.append(Term(op=(cols, rows, values), amplitude=complex(np.conj(amplitude)),
                      phase=-float(phase), depth=-float(depth), rate=float(rate)))


def _self_adjoint(terms: list[Term], op: Entries, amplitude: float):
    terms.append(Term(op=op, amplitude=complex(amplitude), phase=0.0))


def assemble_terms(spec: HamiltonianSpec, space: HilbertSpace) -> TermList:
    """Build the term list of the requested variant on the given space."""
    sys = spec.sys
    terms: list[Term] = []
    s31a1, s31a1d = space.jump(1, False), space.jump(1, True)
    s32a2, s32a2d = space.jump(2, False), space.jump(2, True)
    level = np.eye(3)[space._atom - 1].T          # level[k-1]: diagonal of |k><k|
    s33_s11, s33_s22 = (space.diagonal(level[2] - level[k]) for k in (0, 1))
    # sqrt(n) * sqrt(n), not n: the value of the product a'a (2.0000000000000004
    # at n = 2), on which the effective pair's echo CSV bytes depend
    n1, n2 = (space.diagonal(np.sqrt(n) * np.sqrt(n)) for n in (space._n1, space._n2))

    if spec.variant is Variant.JC_STATIC:
        _self_adjoint(terms, s33_s11, sys.omega1)
        _self_adjoint(terms, s33_s22, sys.omega2)
        _self_adjoint(terms, n1, sys.Omega1)
        _self_adjoint(terms, n2, sys.Omega2)
        _pair(terms, s31a1, sys.g1, 0.0)
        _pair(terms, s32a2, sys.g2, 0.0)
        return TermList(terms=terms, space=space, frame=(0.0, 0.0, np.zeros(3)))

    drive = spec.drive
    rec = effective_point(sys, drive)

    if spec.variant is Variant.DRIVE_ROTATED:
        # sum_p g J_p(z) exp(i(phi + p wd)t) = g exp(i(phi t + z sin(wd t)))
        theta, wd = drive.theta, drive.frequency
        base1, base2 = _sideband_bases(sys.omega1, sys.omega2, sys.Omega1, sys.Omega2)
        _pair(terms, s31a1, sys.g1, rec["delta1"], theta, wd)
        _pair(terms, s31a1d, sys.g1, base1, theta, wd)
        _pair(terms, s32a2, sys.g2, rec["delta2"], 2.0 * theta, wd)
        _pair(terms, s32a2d, sys.g2, base2, 2.0 * theta, wd)
        return TermList(terms=terms, space=space)

    if spec.variant is Variant.DOMINANT_SIDEBAND:
        _pair(terms, s31a1, rec["gr1"], rec["delta1"])
        _pair(terms, s31a1d, rec["gc1"], rec["Delta_n0"])
        _pair(terms, s32a2, rec["gr2"], rec["delta2"])
        _pair(terms, s32a2d, rec["gc2"], rec["Delta_m0"])
        return TermList(terms=terms, space=space, frame=_dominant_frame(rec))

    # time-independent effective variants
    _self_adjoint(terms, s33_s22, rec["omega2_eff"])
    _self_adjoint(terms, s33_s11, rec["omega1_eff"])
    _self_adjoint(terms, n2, rec["Omega2_eff"])
    _self_adjoint(terms, n1, rec["Omega1_eff"])
    _pair(terms, s31a1, rec["gr1"], 0.0)
    _pair(terms, s32a2, rec["gr2"], 0.0)
    if spec.variant is Variant.EFFECTIVE_FULL:
        _pair(terms, s31a1d, rec["gc1"], 0.0)
        _pair(terms, s32a2d, rec["gc2"], 0.0)
    return TermList(terms=terms, space=space, frame=(0.0, 0.0, np.zeros(3)))


def _dominant_frame(rec: dict) -> tuple[float, float, np.ndarray]:
    """(alpha, beta, e_atom) of K = alpha*n1 + beta*n2 + e_atom, the frame
    of DOMINANT_SIDEBAND, from the effective-parameter record rec.

    |3><1| a1 (phase delta1) and |3><1| a1' (phase Delta_n0) ask for
    e3 - e1 - alpha = delta1 and e3 - e1 + alpha = Delta_n0, and mode 2
    likewise with beta, e2, delta2 and Delta_m0; e3 = 0 fixes the offset.
    So alpha = (Delta_n0 - delta1)/2 is Omega1_eff, and beta is Omega2_eff.
    """
    alpha, beta = rec["Omega1_eff"], rec["Omega2_eff"]
    e_atom = np.array([-(rec["Delta_n0"] + rec["delta1"]) / 2.0,
                       -(rec["Delta_m0"] + rec["delta2"]) / 2.0, 0.0])
    return alpha, beta, e_atom


# ---------------------------------------------------------------------------
# propagation


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray            # (samples, dim) complex
    norms: np.ndarray
    leakage_series: np.ndarray
    norm_drift: float
    leakage: float
    warnings: list[str] = field(default_factory=list)
    # what the CF4 integrator did: substeps per sample interval, the Taylor
    # degree and the exponentials of the run; None on the framed path
    substeps: int | None = None
    taylor_degree: int | None = None
    exponentials: int | None = None


#: Largest error a drive-rotated run may leave in the sampled amplitudes
#: (max |delta psi| over a run): _substeps spends 1 - _TAYLOR_SHARE of it
#: on the step error, _taylor_degree _TAYLOR_SHARE on the Taylor remainders.
STEP_TOL = 1e-7
_TAYLOR_SHARE = 0.1
_MAX_TAYLOR_DEGREE = 63
# 1/k! for k up to _MAX_TAYLOR_DEGREE, the weights of the Taylor powers
_INVERSE_FACTORIALS = np.array(
    [1.0 / math.factorial(k) for k in range(_MAX_TAYLOR_DEGREE + 1)], dtype=complex)
# Largest norm bound of H(0) + K the framed path diagonalizes: past it the
# squares of entries overflow, and near the float limit the eigensolver has
# aborted the interpreter
_EIGH_NORM_MAX = math.sqrt(np.finfo(float).max)
_UNIT_ROUNDOFF = 2.0 ** -53
# Gauss-Legendre nodes of a substep and the fourth-order commutator-free
# weights: a substep from t applies exp(-ih(X_HI H_early + X_LO H_late)),
# then exp(-ih(X_LO H_early + X_HI H_late)), H_early/late = H(t + node*h)
_CF4_NODES = np.array([0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0])
_X_HI, _X_LO = 0.25 + _SQRT3 / 6.0, 0.25 - _SQRT3 / 6.0
#: Most exponentials whose weights evolve holds at once, unless one sample
#: interval takes more, and most samples of a framed variant taken from one
#: matrix product: either way the memory stays bounded whatever t_max.
CF4_BLOCK_EXPONENTIALS = 4096


def _taylor_degree(terms: TermList, h: float, exponentials: float) -> int:
    """Taylor degree for every exponential of a run of this many CF4
    exponentials of substep h: the smallest m whose remainder bounds, added
    up over the run, are at most _TAYLOR_SHARE * STEP_TOL, and never more
    than the degree whose remainder is below unit roundoff (exponentials =
    inf asks for that one).

    An exponent is h * sum_k w_k O_k with w_k = X_HI c_k(t1) + X_LO c_k(t2),
    or the nodes swapped, and |c_k| = |a_k|.  The nodes are h/sqrt(3) apart,
    so the phases of c_k(t1) and c_k(t2) differ by at most delta =
    phi_max*h/sqrt(3), and |w_k| <= |a_k| |X_HI + X_LO e^(i delta)|, which
    grows with delta up to 1/sqrt(3) at pi.  So theta = h * norm_bound *
    |X_HI + X_LO e^(i delta)| bounds the exponent's norm and
    theta^(m+1)/(m+1)! * e^theta the remainder degree m drops (a norm-bound
    degree choice as in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488,
    2011).
    """
    delta = min(terms.phi_max * h / _SQRT3, math.pi)
    mix = abs(_X_HI + _X_LO * cmath.exp(1j * delta))
    theta = float(h * terms.norm_bound * mix)   # overflows to inf silently
    try:
        growth = math.exp(theta)
    except OverflowError:
        growth = math.inf
    share = max(_UNIT_ROUNDOFF, _TAYLOR_SHARE * STEP_TOL / exponentials)
    power = 1.0
    for m in range(_MAX_TAYLOR_DEGREE + 1):
        power *= theta / (m + 1)          # theta^(m+1) / (m+1)!
        if power * growth <= share:
            return m
    raise PropagationError(
        f"propagator Taylor series failed to converge: norm bound "
        f"{terms.norm_bound:.3g} is too large for the substep {h:.3g}")


def _expm_apply(columns: np.ndarray, values: np.ndarray, powers: np.ndarray,
                products: np.ndarray) -> np.ndarray:
    """exp(A) @ powers[0] by the Taylor polynomial of degree len(powers) - 1,
    for the A with values on the transposed padded rows of TermList.columns:
    each power A^k psi is one multiply of the values by the gathered entries
    of A^(k-1) psi into products and one sum of its rows, in pattern order,
    into powers[k]; the polynomial is their sum weighted by 1/k!."""
    for k in range(1, len(powers)):
        np.multiply(values, powers[k - 1][columns], out=products)
        np.add.reduce(products, axis=0, out=powers[k])
    return np.dot(_INVERSE_FACTORIALS[:len(powers)], powers)


def _cf4_weights(terms: TermList, starts: np.ndarray, h: float,
                 nsub: int) -> np.ndarray:
    """The term weights of every exponential of nsub CF4 substeps of length
    h from each start time, scaled by -ih so that data_map @ weight is the
    exponent's values, shape (starts, 2*nsub, terms) in the order the
    exponentials apply; the coefficients at all their Gauss nodes come from
    one call."""
    nodes = starts[:, None, None] + h * (np.arange(nsub)[:, None] + _CF4_NODES)
    early, late = np.moveaxis(terms.coefficients(nodes), -1, 0)
    mixed = np.stack([_X_HI * early + _X_LO * late,
                      _X_LO * early + _X_HI * late], axis=-1)
    mixed *= -1j * h
    return np.moveaxis(mixed, 0, -1).reshape(starts.size, 2 * nsub, -1)


def _cf4_steps(terms: TermList, psi: np.ndarray, weights: np.ndarray,
               degree: int) -> np.ndarray:
    """psi advanced by one exponential per row of weights, in order (the
    rows of one start time of _cf4_weights)."""
    # the pattern's values, then the zero that pads the rows
    data = np.zeros(terms.data_map.shape[0] + 1, dtype=complex)
    powers = np.empty((degree + 1, psi.size), dtype=complex)
    products = np.empty(terms.slots.shape, dtype=complex)
    for row in weights:
        np.dot(terms.data_map, row, out=data[:-1])
        powers[0] = psi
        psi = _expm_apply(terms.columns, data[terms.slots], powers, products)
    return psi


def _substeps(terms: TermList, psi: np.ndarray, t0: float,
              interval: float, n_min: int, intervals: int) -> int:
    """CF4 substeps per sample interval: the fewest, n_min or more, whose
    estimated error in the sampled amplitudes over the run is at most
    (1 - _TAYLOR_SHARE) * STEP_TOL.

    A Richardson pair on the first substep (one step of interval/n_min
    against two of half that) estimates the local error of the coarse step
    as 16/15 of their largest amplitude difference.  The run's local errors
    are taken to add up, and each scales as h^5, so n substeps per interval
    leave about n_min * intervals * error * (n_min/n)^4.  The pair takes
    the unit-roundoff Taylor degree, so that its difference is step error
    alone.
    """
    h = interval / n_min
    degree = _taylor_degree(terms, h, math.inf)
    start = np.array([t0])
    coarse = _cf4_steps(terms, psi, _cf4_weights(terms, start, h, 1)[0], degree)
    fine = _cf4_steps(terms, psi, _cf4_weights(terms, start, h / 2, 2)[0], degree)
    error = n_min * intervals * 16.0 / 15.0 * float(np.max(np.abs(coarse - fine)))
    budget = (1.0 - _TAYLOR_SHARE) * STEP_TOL
    return max(n_min, math.ceil(n_min * (error / budget) ** 0.25))


def step_limit(terms: TermList, dt_max: float | None) -> float:
    """The longest substep evolve may take for terms: dt_max (inf if None)
    within the sampling bound 2*pi/(20*phi_max).  A dt_max that is not
    positive or exceeds the bound raises ValueError."""
    phi_max = terms.phi_max
    bound = 2.0 * math.pi / (20.0 * phi_max) if phi_max > 0 else math.inf
    if dt_max is None:
        return bound
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    if dt_max > bound * (1 + 1e-12):
        raise ValueError(
            f"dt_max={dt_max:g} exceeds the sampling bound {bound:g} "
            f"(20 steps per fastest oscillation)")
    return min(dt_max, bound)


def _sample_grid(t_max: float, samples: int) -> np.ndarray:
    if samples < 2:
        raise ValueError(f"at least 2 samples required, got {samples}")
    if not (t_max > 0):
        raise ValueError(f"t_max > 0 required, got {t_max}")
    return np.linspace(0.0, t_max, samples)


def evolve(spec: HamiltonianSpec, psi0: StateVector, *,
           t_max: float = DEFAULT_T_MAX, samples: int = DEFAULT_SAMPLES,
           dt_max: float | None = None) -> EvolutionResult:
    """Propagate psi0 on its space, sampled at samples times over [0, t_max].

    dt_max must respect the sampling bound 2*pi/(20*phi_max), where phi_max
    is the peak instantaneous frequency max(|phi| + |z|*w_D) of any
    coefficient; step_limit checks it for every variant.  A variant with a
    TermList.frame is sampled exactly, so dt_max changes nothing there.
    Otherwise the CF4 substep is the longest one within dt_max and that
    bound whose estimated error in the sampled amplitudes over the run is
    at most 0.9*STEP_TOL (see _substeps), and the Taylor degree leaves the
    other 0.1 (see _taylor_degree), so halving dt_max perturbs sampled
    amplitudes far below 1e-6.  The result records the substeps per
    interval, the degree and the exponentials taken.
    """
    space = psi0.space
    terms = assemble_terms(spec, space)
    times = _sample_grid(t_max, samples)
    h_max = step_limit(terms, dt_max)

    states = np.empty((times.size, space.dim), dtype=complex)
    psi = psi0.amplitudes.astype(complex).copy()
    states[0] = psi
    nsub = degree = exponentials = None

    if terms.frame is not None:
        # psi(t) = exp(iKt) exp(-i(H(0) + K)t) psi(0)
        alpha, beta, e_atom = terms.frame
        K = alpha * space._n1 + beta * space._n2 + e_atom[space._atom - 1]
        norm = terms.norm_bound + float(np.max(np.abs(K)))
        if not norm <= _EIGH_NORM_MAX:
            raise PropagationError(
                f"propagator cannot diagonalize the Hamiltonian: norm bound "
                f"{norm:.3g} exceeds {_EIGH_NORM_MAX:.3g}")
        H = terms.matrix_at(0.0)
        H[np.diag_indices_from(H)] += K
        if H.imag.any():
            raise PropagationError(
                f"propagator cannot diagonalize the {spec.variant.value} "
                f"Hamiltonian: H(0) + K of its diagonal frame is not real")
        evals, vecs = np.linalg.eigh(H.real)
        coeff = vecs.T @ psi
        # each block of samples is one matrix product into the states, times
        # exp(iKt): the outer product of a table per term of K (atom, n1, n2)
        factors = np.concatenate([e_atom, alpha * np.arange(space.d1),
                                  beta * np.arange(space.d2)])
        for first in range(1, times.size, CF4_BLOCK_EXPONENTIALS):
            t = times[first:first + CF4_BLOCK_EXPONENTIALS, None]
            block = states[first:first + CF4_BLOCK_EXPONENTIALS]
            phases = np.multiply(-1j * evals, t)
            np.exp(phases, out=phases)
            phases *= coeff
            np.matmul(phases, vecs.T, out=block)
            atom, mode1, mode2 = np.split(np.exp(1j * factors * t), [3, 3 + space.d1], 1)
            np.multiply((atom[:, :, None] * mode1[:, None]).reshape(t.size, -1, 1),
                        mode2[:, None], out=phases.reshape(t.size, -1, space.d2))
            block *= phases
    else:
        interval = times[1] - times[0]
        nsub = _substeps(terms, psi, times[0], interval,
                         max(1, math.ceil(interval / h_max)), times.size - 1)
        h = interval / nsub
        exponentials = 2 * nsub * (times.size - 1)
        degree = _taylor_degree(terms, h, exponentials)
        starts = times[:-1]
        block = max(1, CF4_BLOCK_EXPONENTIALS // (2 * nsub))
        for first in range(0, starts.size, block):
            weights = _cf4_weights(terms, starts[first:first + block], h, nsub)
            for i, interval_weights in enumerate(weights, start=first + 1):
                psi = states[i] = _cf4_steps(terms, psi, interval_weights, degree)

    norms = np.linalg.norm(states, axis=1)
    pop = np.abs(states) ** 2
    leak = np.maximum(pop[:, space.top1_mask].sum(axis=1),
                      pop[:, space.top2_mask].sum(axis=1))
    result = EvolutionResult(
        times=times, states=states, norms=norms, leakage_series=leak,
        norm_drift=float(np.max(np.abs(norms - 1.0))),
        leakage=float(leak.max()),
        substeps=nsub, taylor_degree=degree, exponentials=exponentials,
    )
    # NaN states must warn as well, hence the negated comparisons
    if not result.norm_drift <= NORM_DRIFT_MAX:
        result.warnings.append(
            f"norm drift {result.norm_drift:.3e} exceeds {NORM_DRIFT_MAX:g}")
    if not result.leakage <= LEAKAGE_WARN:
        result.warnings.append(
            f"truncation: top Fock level population {result.leakage:.3e} "
            f"exceeds {LEAKAGE_WARN:g}; raise the cutoffs")
    return result


@dataclass
class EchoResult:
    """An echo's fidelity |<psi_a(t)|psi_b(t)>|^2 on the branches' common
    time grid, and the branches' records a and b as evolve returns them."""
    fidelity: np.ndarray
    a: EvolutionResult
    b: EvolutionResult


def loschmidt_echo(spec_a: HamiltonianSpec, spec_b: HamiltonianSpec,
                   psi0: StateVector, *, t_max: float = DEFAULT_T_MAX,
                   samples: int = DEFAULT_SAMPLES,
                   dt_max: float | None = None) -> EchoResult:
    """Squared overlap of the two branches evolved from a common state, each
    by evolve with these arguments.

    Both branches must live in the same frame; comparing across frames
    would require the explicit frame-change unitary and is rejected.
    """
    if spec_a.frame != spec_b.frame:
        raise ValueError(
            f"echo branches must share a frame: got {spec_a.frame!r} vs "
            f"{spec_b.frame!r}")
    a, b = (evolve(spec, psi0, t_max=t_max, samples=samples, dt_max=dt_max)
            for spec in (spec_a, spec_b))
    overlap = np.einsum("ij,ij->i", a.states.conj(), b.states)
    return EchoResult(fidelity=np.abs(overlap) ** 2, a=a, b=b)
