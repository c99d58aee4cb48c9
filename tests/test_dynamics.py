import cmath
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lambdajc.config import parse_config
from lambdajc.dynamics import (
    NORM_DRIFT_MAX,
    STEP_TOL,
    HamiltonianSpec,
    StateVector,
    TruncationError,
    Variant,
    assemble_terms,
    build_space,
    coherent_state,
    evolve,
    loschmidt_echo,
)
from lambdajc.dynamics import (
    _cf4_steps, _cf4_weights, _coherent_factor, _expm_apply, _taylor_degree, step_limit)
from lambdajc.params import DriveParams, SystemParams
from lambdajc.spectrum import block_ground_energy, block_matrix

from oracles import dense, expm_propagate, kron_lower, kron_number, kron_sigma

SAMPLES = Path(__file__).parent.parent / "configs"

RESONANT = SystemParams()
DRIVE = DriveParams(amplitude=0.036, frequency=0.18)  # theta = 0.2


def random_params(rng):
    return SystemParams(
        omega1=float(rng.uniform(-1.0, 1.5)),
        omega2=float(rng.uniform(-1.0, 1.5)),
        Omega1=float(rng.uniform(0.2, 2.5)),
        Omega2=float(rng.uniform(0.2, 2.5)),
        g1=float(rng.uniform(0.0, 0.6)),
        g2=float(rng.uniform(0.0, 0.6)),
    )


def index(space, atom: int, n1: int, n2: int) -> int:
    """Flat index of basis state |atom, n1, n2> in space."""
    if atom not in (1, 2, 3):
        raise ValueError(f"atom level must be 1, 2 or 3, got {atom}")
    if not (0 <= n1 <= space.n_c1) or not (0 <= n2 <= space.n_c2):
        raise ValueError(f"photon numbers ({n1}, {n2}) outside cutoffs")
    return ((atom - 1) * space.d1 + n1) * space.d2 + n2


def sector_states(space, n_ph: int, m_ph: int) -> list[int]:
    """Flat indices of the excitation sector containing block (n_ph, m_ph).

    The sector is the joint eigenspace of a1'a1 - |1><1| and a2'a2 - |2><2|
    with eigenvalues (n_ph, m_ph - 1); for m_ph >= 1 and n_ph + 1 within
    the cutoff it is spanned by exactly the three block basis states.
    """
    if m_ph < 1:
        raise ValueError("sector correspondence requires m_ph >= 1")
    if n_ph + 1 > space.n_c1 or m_ph > space.n_c2:
        raise ValueError("sector extends past the Fock cutoffs")
    return [
        index(space, 3, n_ph, m_ph - 1),
        index(space, 1, n_ph + 1, m_ph - 1),
        index(space, 2, n_ph, m_ph),
    ]


class TestHilbertSpace:
    def test_dimension(self):
        assert build_space(2, 2).dim == 27

    def test_index_round_trip(self):
        # index(k, n1, n2) = ((k-1)*(n_c1+1) + n1)*(n_c2+1) + n2, decoded back
        space = build_space(2, 3)
        seen = set()
        for atom in (1, 2, 3):
            for n1 in range(3):
                for n2 in range(4):
                    i = index(space, atom, n1, n2)
                    assert i == ((atom - 1) * 3 + n1) * 4 + n2
                    assert (i // 12 + 1, i // 4 % 3, i % 4) == (atom, n1, n2)
                    seen.add(i)
        assert seen == set(range(space.dim))

    def test_lowering_matrix_element(self):
        space = build_space(2, 2)
        a1 = kron_lower(1, 2, 2)
        src = index(space, 1, 1, 0)
        dst = index(space, 1, 0, 0)
        assert a1[dst, src] == pytest.approx(1.0)
        src2 = index(space, 1, 2, 0)
        assert a1[index(space, 1, 1, 0), src2] == pytest.approx(math.sqrt(2.0))

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(ValueError):
            build_space(0, 2)
        with pytest.raises(ValueError):
            build_space(2, -1)

    def test_index_rejects_out_of_range(self):
        space = build_space(2, 3)
        with pytest.raises(ValueError, match="atom level"):
            index(space, 4, 0, 0)
        for n1, n2 in ((3, 0), (0, 4), (-1, 0)):
            with pytest.raises(ValueError, match="outside cutoffs"):
                index(space, 1, n1, n2)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        space = build_space(3, 3)
        psi = coherent_state(space, 0.0, 0.0, "2")
        expected = np.zeros(space.dim, complex)
        expected[index(space, 2, 0, 0)] = 1.0
        assert np.allclose(psi.amplitudes, expected, atol=1e-15)

    def test_mean_occupation(self):
        space = build_space(6, 6)
        psi = coherent_state(space, 0.01, 0.01, "2")
        n1 = kron_number(1, 6, 6)
        occ = np.vdot(psi.amplitudes, n1 @ psi.amplitudes).real
        assert occ == pytest.approx(1e-4, abs=1e-12)

    def test_superposition_populations(self):
        space = build_space(4, 4)
        psi = coherent_state(space, 0.01, 0.01, "1-2")
        pop = np.abs(psi.amplitudes) ** 2
        atom_pop = [pop[space._atom == k].sum() for k in (1, 2, 3)]
        assert atom_pop[0] == pytest.approx(0.5, abs=1e-12)
        assert atom_pop[1] == pytest.approx(0.5, abs=1e-12)
        assert atom_pop[2] == pytest.approx(0.0, abs=1e-15)

    def test_truncation_error_names_required_cutoff(self):
        space = build_space(1, 1)
        with pytest.raises(TruncationError, match="cutoff"):
            coherent_state(space, 2.0, 0.0, "2")

    @pytest.mark.parametrize("alpha", [2.0, 5.0, 30.0, 5.173070175438597, 40.0])
    def test_required_cutoff_is_the_least_accepted(self, alpha):
        # past |alpha|^2 ~ 745 exp(-|alpha|^2) underflows; the named cutoff
        # is the least whose Poisson tail is below 1e-12, which coherent_state
        # accepts, and one below it is refused (the tail past 70 is 1.001e-12
        # at 5.173070175438597; 40 needs 1889)
        from scipy.stats import poisson
        with pytest.raises(TruncationError) as info:
            coherent_state(build_space(6, 1), alpha, 0.0, "2")
        need = int(str(info.value).rsplit("at least ", 1)[1].split()[0])
        photons = np.arange(int(alpha * alpha + 20 * alpha + 200))
        assert need == np.argmax(poisson.sf(photons, alpha * alpha) < 1e-12)
        coherent_state(build_space(need, 1), alpha, 0.0, "2")
        with pytest.raises(TruncationError, match=f"cutoff {need - 1}; a cutoff of "
                                                  f"at least {need} is required"):
            coherent_state(build_space(need - 1, 1), alpha, 0.0, "2")

    @pytest.mark.parametrize("alpha", [
        *(float(r) for r in np.linspace(0.0, 60.0, 13)),
        *(cmath.rect(float(r), phase) for r, phase in
          zip(np.linspace(2.5, 57.5, 12), [0.7, 2.0, -1.3, math.pi] * 3)),
        -7.5, 1e-3j])
    def test_advised_cutoff_matches_the_poisson_tail(self, alpha):
        # the least accepted cutoff is the least whose Poisson tail of
        # |alpha|^2 is below 1e-12; one below it is refused with that tail
        # and that cutoff named (the space takes cutoffs from 1)
        from scipy.stats import poisson
        lam = abs(alpha) ** 2
        tail = poisson.sf(np.arange(int(lam + 20 * abs(alpha) + 200)), lam)
        need = int(np.argmax(tail < 1e-12))
        coherent_state(build_space(max(need, 1), 1), alpha, 0.0, "2")
        if need > 1:
            with pytest.raises(TruncationError, match=f"cutoff {need - 1}; a cutoff "
                                                      f"of at least {need} is") as info:
                coherent_state(build_space(need - 1, 1), alpha, 0.0, "2")
            leak = float(re.search(r"leaks (\S+) past", str(info.value))[1])
            assert leak == pytest.approx(tail[need - 1], rel=1e-3)

    def test_overflowing_amplitude_is_a_truncation_error(self):
        # |alpha|^2 is past the 100000 search, and past |alpha| ~ 1.3e154 it
        # overflows: no Poisson weight is kept, a full leak, with no
        # RuntimeWarning on the way, and the cutoff it needs is past the search
        for alpha in (1e100, 1e155, 1e200):
            with pytest.raises(TruncationError, match=r"leaks 1\.000e\+00 past cutoff 6; "
                                                      r"a cutoff of more than 100000 is"):
                coherent_state(build_space(6, 6), alpha, 0.0, "2")

    @pytest.mark.parametrize("alpha", [315.0, 316.3])
    def test_cutoff_past_the_search_is_more_than_it(self, alpha):
        # |alpha|^2 is just below and just above the 100000 search, and the
        # Poisson tail past 100000 is far above 1e-12 for both
        with pytest.raises(TruncationError, match="a cutoff of more than 100000 is"):
            coherent_state(build_space(6, 1), alpha, 0.0, "2")

    def test_cutoff_past_a_mean_past_the_search_is_judged_by_its_tail(self):
        # |316.3|^2 = 100045.69 is past the 100000 search, but a cutoff past
        # it keeps the Poisson weights: 103000 leaks far below 1e-12, and
        # 101000 is refused with its own leak, not a full one
        from scipy.stats import poisson
        amps = _coherent_factor(316.3, 103000, "mode 1")
        assert np.allclose(np.abs(amps) ** 2, poisson.pmf(np.arange(103001), 316.3 ** 2),
                           rtol=1e-8, atol=1e-15)
        with pytest.raises(TruncationError, match=r"leaks 1\.287e-03 past cutoff 101000; "
                                                  r"a cutoff of more than 100000 is"):
            _coherent_factor(316.3, 101000, "mode 1")

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_non_finite_amplitude_is_named(self, alpha):
        with pytest.raises(ValueError, match=re.escape(
                f"mode 2 coherent amplitude {alpha!r} is not finite")) as info:
            coherent_state(build_space(6, 6), 0.0, alpha, "2")
        assert not isinstance(info.value, TruncationError)

    def test_unknown_preset(self):
        space = build_space(1, 1)
        for atom in ("nope", [1.0, 0.0, 1.0]):
            with pytest.raises(ValueError, match="preset"):
                coherent_state(space, 0.0, 0.0, atom)

    def test_rejects_nan_amplitudes(self):
        space = build_space(2, 2)
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.full(space.dim, np.nan), space)

    def test_rejects_wrong_shape(self):
        space = build_space(2, 2)
        with pytest.raises(ValueError, match="shape"):
            StateVector(np.eye(1, space.dim + 1)[0], space)

    def test_explicit_atomic_vector(self):
        space = build_space(2, 2)
        psi = coherent_state(space, 0.0, 0.0, "1+3")
        pop = np.abs(psi.amplitudes) ** 2
        assert pop[index(space, 1, 0, 0)] == pytest.approx(0.5)
        assert pop[index(space, 3, 0, 0)] == pytest.approx(0.5)


def exponent_values(terms, t, factor):
    """The values of A = factor*H(t) on the pattern, from the coefficients
    pre-scaled by factor, as _cf4_weights pre-scales its weights."""
    return terms.data_map @ (factor * terms.coefficients(t))


def taylor_apply(terms, values, psi, degree):
    """_expm_apply's exp(A) @ psi at this degree, for the A with these
    values on the pattern, given on the transposed padded rows of
    terms.columns with the zero the padding slot points at."""
    powers = np.empty((degree + 1, psi.size), dtype=complex)
    powers[0] = psi
    padded = np.append(values, 0.0)[terms.slots]
    return _expm_apply(terms.columns, padded, powers, np.empty_like(padded))


def frame_diagonal(terms):
    """The diagonal of K for terms.frame = (alpha, beta, e_atom): alpha per
    mode-1 photon, beta per mode-2 photon and e_atom[k - 1] for level k."""
    alpha, beta, e_atom = terms.frame
    space = terms.space
    return alpha * space._n1 + beta * space._n2 + e_atom[space._atom - 1]


def _spec(variant, sys=RESONANT, drive=DRIVE):
    needs_drive = variant is not Variant.JC_STATIC
    return HamiltonianSpec(variant=variant, sys=sys,
                           drive=drive if needs_drive else None)


class TestAssembly:
    def test_term_counts(self):
        space = build_space(2, 2)
        assert len(assemble_terms(_spec(Variant.JC_STATIC), space).terms) == 8
        assert len(assemble_terms(_spec(Variant.DOMINANT_SIDEBAND), space).terms) == 8
        assert len(assemble_terms(_spec(Variant.EFFECTIVE_FULL), space).terms) == 12
        assert len(assemble_terms(_spec(Variant.EFFECTIVE_JC), space).terms) == 8
        for theta, wd in ((0.2, 0.18), (0.8, 0.33), (2.5, 0.18)):
            spec = _spec(Variant.DRIVE_ROTATED,
                         drive=DriveParams.from_theta(theta, wd))
            assert len(assemble_terms(spec, space).terms) == 8

    @pytest.mark.parametrize("cutoffs", [(2, 3), (3, 1)])
    def test_term_operators_are_kronecker_products(self, cutoffs):
        # exact equality: unequal cutoffs catch a swapped mode stride, and
        # the number operators must hold a'a's sqrt(n) * sqrt(n), not n
        s = {kj: kron_sigma(*kj, *cutoffs) for kj in ((1, 1), (2, 2), (3, 3),
                                                     (3, 1), (3, 2))}
        a1, a2 = kron_lower(1, *cutoffs), kron_lower(2, *cutoffs)
        n1, n2 = kron_number(1, *cutoffs), kron_number(2, *cutoffs)

        def pairs(*ops):
            return [x for op in ops for x in (op, op.T)]

        s31a1, s31a1d = s[3, 1] @ a1, s[3, 1] @ a1.T
        s32a2, s32a2d = s[3, 2] @ a2, s[3, 2] @ a2.T
        rotated = pairs(s31a1, s31a1d, s32a2, s32a2d)
        # the static and effective models share one JC term list
        jc = [s[3, 3] - s[2, 2], s[3, 3] - s[1, 1], n2, n1, *pairs(s31a1, s32a2)]
        expected = {
            Variant.JC_STATIC: jc,
            Variant.DRIVE_ROTATED: rotated,
            Variant.DOMINANT_SIDEBAND: rotated,
            Variant.EFFECTIVE_FULL: jc + pairs(s31a1d, s32a2d),
            Variant.EFFECTIVE_JC: jc,
        }
        space = build_space(*cutoffs)
        for variant in Variant:
            terms = assemble_terms(_spec(variant), space).terms
            assert len(terms) == len(expected[variant])
            for term, op in zip(terms, expected[variant]):
                assert np.array_equal(dense(term.op, space.dim), op), variant

    def test_rotated_collapses_at_zero_amplitude(self):
        space = build_space(2, 2)
        spec = _spec(Variant.DRIVE_ROTATED,
                     drive=DriveParams(amplitude=0.0, frequency=0.18))
        terms = assemble_terms(spec, space)
        assert len(terms.terms) == 8

    def test_effective_jc_decoupled_is_diagonal(self):
        space = build_space(2, 2)
        spec = _spec(Variant.EFFECTIVE_JC, sys=RESONANT.replace(g1=0.0, g2=0.0))
        H = assemble_terms(spec, space).matrix_at(0.3)
        assert np.allclose(H, np.diag(np.diag(H)), atol=1e-15)

    def test_conjugate_partner_present(self):
        def is_adjoint(a, b):
            a, b = dense(a, space.dim), dense(b, space.dim)
            return (abs(a - b.conj().T)).max() < 1e-15

        space = build_space(2, 2)
        for variant in Variant:
            terms = assemble_terms(_spec(variant), space).terms
            pending = dict(enumerate(terms))
            while pending:
                k, term = pending.popitem()
                if term.phase == 0.0 and is_adjoint(term.op, term.op):
                    assert abs(term.amplitude.imag) < 1e-15
                    continue
                partner_key = None
                for other_k, other in pending.items():
                    if (other.phase == -term.phase
                            and other.depth == -term.depth
                            and other.rate == term.rate
                            and abs(other.amplitude - np.conj(term.amplitude)) < 1e-15
                            and is_adjoint(other.op, term.op)):
                        partner_key = other_k
                        break
                assert partner_key is not None, f"{variant}: unpaired term"
                del pending[partner_key]

    def test_instantaneous_hermiticity(self):
        space = build_space(2, 2)
        rng = np.random.default_rng(12)
        for variant in Variant:
            terms = assemble_terms(_spec(variant), space)
            for t in rng.uniform(0.0, 300.0, 100):
                H = terms.matrix_at(float(t))
                assert np.abs(H - H.conj().T).max() < 1e-12

    def test_matrix_at_matches_per_term_sum(self):
        space = build_space(2, 2)
        rng = np.random.default_rng(21)
        drive = DriveParams.from_theta(0.8, 0.33)
        for variant in Variant:
            terms = assemble_terms(_spec(variant, drive=drive), space)
            for t in rng.uniform(0.0, 300.0, 20):
                expected = sum(
                    dense(term.op, space.dim) * term.amplitude
                    * np.exp(1j * (term.phase * t + term.depth * np.sin(term.rate * t)))
                    for term in terms.terms)
                H = terms.matrix_at(float(t))
                assert np.abs(H - expected).max() < 1e-13
                assert np.linalg.norm(H, 2) <= terms.norm_bound * (1 + 1e-12)

    def test_frame_rotates_the_initial_hamiltonian(self):
        # H(t) = exp(iKt) H(0) exp(-iKt) for every variant with a frame
        space = build_space(2, 3)
        rng = np.random.default_rng(31)
        framed = 0
        for drive in (DRIVE, DriveParams.from_theta(0.8, 0.33),
                      DriveParams.from_theta(1.3, 0.61)):
            for variant in Variant:
                terms = assemble_terms(_spec(variant, sys=random_params(rng),
                                             drive=drive), space)
                if terms.frame is None:
                    continue
                framed += 1
                K = frame_diagonal(terms)
                H0 = terms.matrix_at(0.0)
                for t in rng.uniform(0.0, 300.0, 10):
                    phase = np.exp(1j * K * t)
                    rotated = phase[:, None] * H0 * phase.conj()[None, :]
                    H = terms.matrix_at(float(t))
                    assert np.abs(H - rotated).max() < 1e-13
        assert framed == 12

    def test_drive_rotated_has_no_frame(self):
        space = build_space(2, 2)
        assert assemble_terms(_spec(Variant.DRIVE_ROTATED), space).frame is None

    def test_effective_variants_are_time_independent(self):
        space = build_space(2, 2)
        assert assemble_terms(_spec(Variant.EFFECTIVE_FULL), space).phi_max == 0.0
        assert assemble_terms(_spec(Variant.EFFECTIVE_JC), space).phi_max == 0.0

    def test_variant_requires_drive(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(variant=Variant.DRIVE_ROTATED, sys=RESONANT)

    def test_excitation_conservation_jc_forms(self):
        space = build_space(3, 3)
        n_ops = (
            kron_number(1, 3, 3) - kron_sigma(1, 1, 3, 3),
            kron_number(2, 3, 3) - kron_sigma(2, 2, 3, 3),
        )
        rng = np.random.default_rng(13)
        for variant in (Variant.JC_STATIC, Variant.EFFECTIVE_JC):
            for _ in range(5):
                spec = _spec(variant, sys=random_params(rng))
                H = assemble_terms(spec, space).matrix_at(0.0)
                for N in n_ops:
                    comm = H @ N - N @ H
                    assert np.abs(comm).max() < 1e-12

    def test_counter_terms_break_conservation(self):
        space = build_space(3, 3)
        N1 = kron_number(1, 3, 3) - kron_sigma(1, 1, 3, 3)
        spec = _spec(Variant.EFFECTIVE_FULL,
                     drive=DriveParams.from_theta(1.2, 0.49))
        H = assemble_terms(spec, space).matrix_at(0.0)
        comm = H @ N1 - N1 @ H
        assert np.abs(comm).max() > 1e-8


class TestSectorEquivalence:
    def test_block_spectrum_matches_full_model(self):
        space = build_space(6, 6)
        rng = np.random.default_rng(14)
        for _ in range(8):
            sys = random_params(rng)
            H = assemble_terms(_spec(Variant.JC_STATIC, sys=sys), space)
            dense = H.matrix_at(0.0).real
            for n in range(0, 6):
                for m in range(1, 7):
                    idx = sector_states(space, n, m)
                    sub = dense[np.ix_(idx, idx)]
                    block = block_matrix(sys, n, m)
                    assert np.allclose(sub, block, atol=1e-14)
                    ours = float(np.linalg.eigvalsh(sub)[0])
                    assert ours == pytest.approx(
                        block_ground_energy(block_matrix(sys, n, m)), abs=1e-10)


class TestSectorStates:
    def test_rejects_empty_mode2_label(self):
        with pytest.raises(ValueError, match="m_ph >= 1"):
            sector_states(build_space(3, 3), 1, 0)

    @pytest.mark.parametrize("n_ph, m_ph", [(3, 1), (0, 4)])
    def test_rejects_sector_past_cutoffs(self, n_ph, m_ph):
        with pytest.raises(ValueError, match="past the Fock cutoffs"):
            sector_states(build_space(3, 3), n_ph, m_ph)


@pytest.fixture(scope="module")
def sample_rotated_run():
    """configs/echo.json's drive-rotated branch over the sample horizon."""
    cfg = parse_config((SAMPLES / "echo.json").read_text())
    space = build_space(cfg.truncation.n_c1, cfg.truncation.n_c2)
    psi0 = coherent_state(space, 0.01, 0.01, cfg.dynamics.initial_state)
    spec = HamiltonianSpec(variant=Variant.DRIVE_ROTATED, sys=cfg.model,
                           drive=cfg.drive)
    return evolve(spec, psi0, t_max=cfg.dynamics.t_max,
                  samples=cfg.dynamics.samples)


class TestEvolve:
    def test_zero_hamiltonian_freezes_state(self):
        space = build_space(2, 2)
        sys = SystemParams(omega1=0.0, omega2=0.0, Omega1=1.0, Omega2=1.0,
                           g1=0.0, g2=0.0)
        # vacuum annihilates every surviving term, so H|psi0> = 0 exactly
        psi0 = coherent_state(space, 0.0, 0.0, "2")
        res = evolve(_spec(Variant.JC_STATIC, sys=sys), psi0,
                     t_max=7.0, samples=8)
        assert np.max(np.abs(res.states - psi0.amplitudes)) < 1e-12

    def test_eigenvector_acquires_phase_only(self):
        space = build_space(2, 2)
        spec = _spec(Variant.JC_STATIC)
        H = assemble_terms(spec, space).matrix_at(0.0)
        evals, vecs = np.linalg.eigh(H)
        psi0 = StateVector(amplitudes=vecs[:, 3].astype(complex), space=space)
        res = evolve(spec, psi0, t_max=11.0, samples=23)
        overlap = np.abs(res.states @ psi0.amplitudes.conj())
        assert np.max(np.abs(overlap - 1.0)) < 1e-12

    def test_matches_dense_expm_oracle_time_independent(self):
        space = build_space(2, 2)
        spec = _spec(Variant.EFFECTIVE_JC)
        psi0 = coherent_state(space, 0.01, 0.01, "2")
        res = evolve(spec, psi0, t_max=50.0, samples=26)
        H = assemble_terms(spec, space).matrix_at(0.0)
        ref = expm_propagate(H, psi0.amplitudes, res.times)
        assert np.max(np.abs(res.states - ref)) < 1e-8

    @pytest.mark.parametrize("block", [None, 7])
    def test_framed_variants_match_dense_expm(self, monkeypatch, block):
        # each framed variant, from one real diagonalization and one product
        # per block of samples (the default block, and blocks of 7 that
        # leave a remainder), against a dense exponential per sample:
        # psi(t) = exp(iKt) expm(-i(H(0) + K)t) psi(0)
        import scipy.linalg
        from lambdajc import dynamics
        if block is not None:
            monkeypatch.setattr(dynamics, "CF4_BLOCK_EXPONENTIALS", block)
        space = build_space(2, 3)
        sys = SystemParams(omega1=0.6, omega2=0.3, Omega1=1.1, Omega2=0.9,
                           g1=0.3, g2=0.2)
        drive = DriveParams.from_theta(0.8, 0.33)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi0 = StateVector(amplitudes=amps / np.linalg.norm(amps), space=space)
        for variant in (Variant.JC_STATIC, Variant.DOMINANT_SIDEBAND,
                        Variant.EFFECTIVE_FULL, Variant.EFFECTIVE_JC):
            spec = _spec(variant, sys=sys, drive=drive)
            terms = assemble_terms(spec, space)
            K = frame_diagonal(terms)
            H = terms.matrix_at(0.0)
            H[np.diag_indices_from(H)] += K
            assert not H.imag.any(), variant
            res = evolve(spec, psi0, t_max=30.0, samples=24)
            for t, state in zip(res.times, res.states):
                ref = np.exp(1j * K * t) * (
                    scipy.linalg.expm(-1j * H * t) @ psi0.amplitudes)
                assert np.max(np.abs(state - ref)) < 1e-10, (variant, t)
            # only the dominant-sideband frame rotates
            assert np.any(K) == (variant is Variant.DOMINANT_SIDEBAND)
            assert np.max(np.abs(res.states[-1] - psi0.amplitudes)) > 0.1

    def test_framed_hamiltonian_must_be_real(self, monkeypatch):
        # every amplitude assemble_terms writes is real; a Hermitian but
        # complex H(0) + K is refused, not diagonalized
        from dataclasses import replace
        from lambdajc import dynamics
        space = build_space(2, 2)
        spec = _spec(Variant.JC_STATIC)
        terms = assemble_terms(spec, space).terms
        # the g1 pair, its amplitudes i*g1 and -i*g1
        terms[4:6] = [replace(terms[4], amplitude=1j * terms[4].amplitude),
                      replace(terms[5], amplitude=-1j * terms[5].amplitude)]
        complex_terms = dynamics.TermList(terms=terms, space=space,
                                          frame=(0.0, 0.0, np.zeros(3)))
        H = complex_terms.matrix_at(0.0)
        assert np.array_equal(H, H.conj().T) and H.imag.any()
        monkeypatch.setattr(dynamics, "assemble_terms", lambda *_: complex_terms)
        psi0 = coherent_state(space, 0.0, 0.0, "1+3")
        with pytest.raises(dynamics.PropagationError, match="not real"):
            evolve(spec, psi0, t_max=1.0, samples=3)

    def test_matches_reference_integrator_time_dependent(self):
        from scipy.integrate import solve_ivp
        from scipy.special import jv
        space = build_space(1, 1)
        theta, wd = 0.8, 0.33
        spec = _spec(Variant.DRIVE_ROTATED,
                     drive=DriveParams.from_theta(theta, wd))
        psi0 = coherent_state(space, 0.0, 0.0, "2+3")
        res = evolve(spec, psi0, t_max=20.0, samples=5)

        # the drive-rotated Hamiltonian as the explicit sideband series
        # sum_{|p| <= 40} g J_p(z) exp(i(phi + p wd)t) of each coupling
        s = RESONANT
        a1, a2 = kron_lower(1, 1, 1), kron_lower(2, 1, 1)
        s31, s32 = kron_sigma(3, 1, 1, 1), kron_sigma(3, 2, 1, 1)
        families = [
            (s31 @ a1, s.g1, 2 * s.omega1 + s.omega2 - s.Omega1, theta),
            (s31 @ a1.T, s.g1, 2 * s.omega1 + s.omega2 + s.Omega1, theta),
            (s32 @ a2, s.g2, 2 * s.omega2 + s.omega1 - s.Omega2, 2 * theta),
            (s32 @ a2.T, s.g2, 2 * s.omega2 + s.omega1 + s.Omega2, 2 * theta),
        ]
        orders = np.arange(-40, 41)
        series = [(op, g * jv(orders, z), phi + orders * wd)
                  for op, g, phi, z in families]

        def rhs(t, y):
            H = np.zeros((space.dim, space.dim), complex)
            for op, weights, rates in series:
                c = np.sum(weights * np.exp(1j * rates * t))
                H += c * op + np.conj(c) * op.T
            return -1j * (H @ y)

        ref = solve_ivp(rhs, (0.0, 20.0), psi0.amplitudes, method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=res.times)
        assert np.max(np.abs(res.states.T - ref.y)) < 1e-8

    def test_cf4_weights_come_in_bounded_blocks(self, monkeypatch):
        # a drive-rotated run holds the CF4 weights of at most
        # CF4_BLOCK_EXPONENTIALS exponentials at once, or of one substep
        # when the bound is below two, and the blocking moves no bit of the
        # states
        from lambdajc import dynamics
        space = build_space(1, 1)
        spec = _spec(Variant.DRIVE_ROTATED)
        psi0 = coherent_state(space, 0.0, 0.0, "2+3")
        shapes = []
        weights = dynamics._cf4_weights

        def spy(*args):
            out = weights(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(dynamics, "_cf4_weights", spy)
        blocked = evolve(spec, psi0, t_max=200.0, samples=2000)
        # the first two calls are the Richardson pair of _substeps
        (intervals, per_interval, _), *_ = shapes[2:]
        assert len(shapes) > 3 and intervals > 1
        assert max(a * b for a, b, _ in shapes) <= dynamics.CF4_BLOCK_EXPONENTIALS
        # bounds below one interval's exponentials split its substeps into
        # blocks: of one substep, and of all but one, then the last one
        assert per_interval >= 4
        for bound, most in ((1, 1), (per_interval - 2, 1), (2 ** 62, 1999)):
            monkeypatch.setattr(dynamics, "CF4_BLOCK_EXPONENTIALS", bound)
            shapes.clear()
            res = evolve(spec, psi0, t_max=200.0, samples=2000)
            assert max(a for a, _, _ in shapes[2:]) == most
            assert max(a * b for a, b, _ in shapes[2:]) <= max(2, bound)
            assert np.array_equal(res.states, blocked.states)

    def test_dominant_sideband_matches_reference_integrator(self):
        from scipy.integrate import solve_ivp
        space = build_space(2, 2)
        # detuned, so that every term phase and alpha, beta, e1 and e2 of
        # the frame differ from zero
        sys = SystemParams(omega1=0.6, omega2=0.3, Omega1=1.1, Omega2=0.9,
                           g1=0.3, g2=0.2)
        spec = _spec(Variant.DOMINANT_SIDEBAND, sys=sys,
                     drive=DriveParams.from_theta(0.8, 0.33))
        psi0 = coherent_state(space, 0.0, 0.0, "2+3")
        res = evolve(spec, psi0, t_max=20.0, samples=5)

        # H(t) summed term by term from each term's own phase
        terms = [(dense(term.op, space.dim) * term.amplitude, term.phase)
                 for term in assemble_terms(spec, space).terms]

        def rhs(t, y):
            H = sum(op * np.exp(1j * phase * t) for op, phase in terms)
            return -1j * (H @ y)

        ref = solve_ivp(rhs, (0.0, 20.0), psi0.amplitudes, method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=res.times)
        assert np.max(np.abs(psi0.amplitudes - res.states[-1])) > 0.1
        assert np.max(np.abs(res.states.T - ref.y)) < 1e-10

    def test_norm_preservation(self):
        space = build_space(3, 3)
        spec = _spec(Variant.DRIVE_ROTATED)
        psi0 = coherent_state(space, 0.01, 0.01, "2")
        res = evolve(spec, psi0, t_max=60.0, samples=40)
        assert res.norm_drift < 1e-10

    def test_step_bound_enforced(self):
        space = build_space(2, 2)
        spec = _spec(Variant.DOMINANT_SIDEBAND,
                     drive=DriveParams.from_theta(0.2, 0.49))
        psi0 = coherent_state(space, 0.0, 0.0, "2")
        terms = assemble_terms(spec, space)
        bound = 2.0 * math.pi / (20.0 * terms.phi_max)
        with pytest.raises(ValueError, match="dt_max"):
            evolve(spec, psi0, t_max=10.0, samples=5, dt_max=2.0 * bound)

    @pytest.mark.parametrize("variant", [Variant.DRIVE_ROTATED, Variant.EFFECTIVE_JC])
    @pytest.mark.parametrize("dt_max", [math.nan, 0.0, -1.0])
    def test_dt_max_not_positive_rejected(self, variant, dt_max):
        # the CF4 path, and a framed variant, which never uses dt_max
        space = build_space(2, 2)
        psi0 = coherent_state(space, 0.0, 0.0, "2")
        with pytest.raises(ValueError, match="dt_max must be positive"):
            evolve(_spec(variant), psi0, t_max=10.0, samples=5, dt_max=dt_max)

    def test_dt_halving_converges(self):
        space = build_space(3, 3)
        spec = _spec(Variant.DRIVE_ROTATED)
        psi0 = coherent_state(space, 0.01, 0.01, "2")
        terms = assemble_terms(spec, space)
        bound = 2.0 * math.pi / (20.0 * terms.phi_max)
        r1 = evolve(spec, psi0, t_max=40.0, samples=11, dt_max=bound / 4)
        r2 = evolve(spec, psi0, t_max=40.0, samples=11, dt_max=bound / 8)
        assert np.max(np.abs(r1.states - r2.states)) < 1e-6

    def test_taylor_degree_reaches_roundoff(self):
        # one exponential at the degree of a run so long that each
        # exponential's share of STEP_TOL/10 is below unit roundoff, so the
        # roundoff cap sets it, against the dense oracle, up to steps far
        # longer than the integrator takes
        space = build_space(2, 2)
        terms = assemble_terms(_spec(Variant.DRIVE_ROTATED,
                                     drive=DriveParams.from_theta(0.8, 0.33)), space)
        rng = np.random.default_rng(8)
        psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi0 /= np.linalg.norm(psi0)
        H = terms.matrix_at(1.7)
        for h in (0.05, 0.5, 2.0):
            degree = _taylor_degree(terms, h, 10 ** 12)
            ours = taylor_apply(terms, exponent_values(terms, 1.7, -1j * h),
                                psi0, degree)
            ref = expm_propagate(H, psi0, [h])[0]
            assert np.max(np.abs(ours - ref)) < 1e-14

    def test_budget_degree_meets_its_share_of_the_tolerance(self):
        # 2000 CF4 exponentials at the sampling bound, chained at the degree
        # the run's budget asks for, against dense exponentials: the dropped
        # remainders add up to at most STEP_TOL/10
        import scipy.linalg
        cfg = parse_config((SAMPLES / "echo.json").read_text())
        space = build_space(3, 3)
        terms = assemble_terms(HamiltonianSpec(
            variant=Variant.DRIVE_ROTATED, sys=cfg.model,
            drive=cfg.drive), space)
        h = step_limit(terms, None)
        weights = _cf4_weights(terms, h * np.arange(1000), h, np.arange(1))
        weights = weights.reshape(-1, len(terms.terms))
        degree = _taylor_degree(terms, h, len(weights))
        assert degree < _taylor_degree(terms, h, math.inf)
        rng = np.random.default_rng(8)
        psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi0 /= np.linalg.norm(psi0)
        # the reference takes its own CF4 weights, unscaled, from the
        # coefficients at each substep's two Gauss nodes
        nodes = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
        hi, lo = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
        ref = psi0
        for start in h * np.arange(1000):
            early, late = (terms.coefficients(float(start + h * x)) for x in nodes)
            for mix in (hi * early + lo * late, lo * early + hi * late):
                H = np.zeros((space.dim, space.dim), dtype=complex)
                H[terms._rows, terms._cols] = terms.data_map @ mix
                ref = scipy.linalg.expm(-1j * h * H) @ ref
        ours = _cf4_steps(terms, psi0, weights, degree)
        assert np.max(np.abs(ours - ref)) <= STEP_TOL / 10

    @pytest.mark.parametrize("cutoffs", [(2, 3), (3, 1)])
    def test_product_adds_in_csr_order(self, cutoffs):
        # the padded-row product adds each row's entries in CSR order, one
        # product at a time, on which the drive-rotated echo bytes depend:
        # the Taylor polynomial is the same, bit for bit, with each power
        # summed that way from scipy's CSR entries of the pre-scaled values
        # and the same 1/k!-weighted sum of powers; and it is the dense
        # polynomial within rounding
        import scipy.sparse
        space = build_space(*cutoffs)
        rng = np.random.default_rng(41)
        drive = DriveParams.from_theta(0.8, 0.33)
        inverse_factorials = np.array([1.0 / math.factorial(k) for k in range(7)],
                                      dtype=complex)

        def ordered_product(A, x):
            # acc = v[0]*x[c[0]], then acc = acc + v[j]*x[c[j]] along each
            # row, position j of every row at once: numpy's array multiply
            # may round otherwise than its scalar one
            lengths = np.diff(A.indptr)
            out = np.zeros(A.shape[0], dtype=complex)
            for j in range(lengths.max()):
                rows = np.flatnonzero(lengths > j)
                at = A.indptr[rows] + j
                products = A.data[at] * x[A.indices[at]]
                out[rows] = products if j == 0 else out[rows] + products
            return out

        for variant in Variant:
            terms = assemble_terms(_spec(variant, sys=random_params(rng),
                                         drive=drive), space)
            for t in rng.uniform(0.0, 300.0, 5):
                values = exponent_values(terms, float(t), -0.5j)
                A = np.zeros((space.dim, space.dim), dtype=complex)
                A[terms._rows, terms._cols] = values
                csr = scipy.sparse.csr_matrix(A)
                assert csr.has_sorted_indices
                x = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
                ours = taylor_apply(terms, values, x, 6)
                ordered, dense = [x], [x]
                for _ in range(6):
                    ordered.append(ordered_product(csr, ordered[-1]))
                    dense.append(A @ dense[-1])
                ref = np.dot(inverse_factorials, np.array(ordered))
                assert np.array_equal(ours, ref), variant
                dense = np.dot(inverse_factorials, np.array(dense))
                assert np.max(np.abs(ours - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_default_step_meets_tolerance(self):
        # configs/echo.json's model and drive over the default horizon
        cfg = parse_config((SAMPLES / "echo.json").read_text())
        space = build_space(cfg.truncation.n_c1, cfg.truncation.n_c2)
        psi0 = coherent_state(space, 0.01, 0.01, cfg.dynamics.initial_state)
        interval = 200.0 / 1999
        for variant in (Variant.DRIVE_ROTATED, Variant.DOMINANT_SIDEBAND):
            spec = HamiltonianSpec(variant=variant, sys=cfg.model,
                                   drive=cfg.drive)
            res = evolve(spec, psi0, t_max=200.0, samples=2000)
            ref = evolve(spec, psi0, t_max=200.0, samples=2000,
                         dt_max=interval / 16)
            assert np.max(np.abs(res.states - ref.states)) <= STEP_TOL

    def test_sample_run_counts(self, sample_rotated_run):
        # configs/echo.json's drive-rotated branch: 3 substeps per interval
        # and the budget degree 4 (6 under unit roundoff) over 2*3*1999
        # exponentials
        res = sample_rotated_run
        assert (res.substeps, res.taylor_degree, res.exponentials) == (3, 4, 11994)

    def test_sample_run_keeps_the_norm(self, sample_rotated_run):
        # the budget degree's truncation breaks unitarity by at most its
        # share of STEP_TOL over the sample's whole horizon
        assert sample_rotated_run.norm_drift <= NORM_DRIFT_MAX
        assert not sample_rotated_run.warnings

    def test_framed_run_reports_no_integrator_counts(self):
        space = build_space(2, 2)
        psi0 = coherent_state(space, 0.0, 0.0, "2")
        res = evolve(_spec(Variant.DOMINANT_SIDEBAND), psi0,
                     t_max=1.0, samples=3)
        assert (res.substeps, res.taylor_degree, res.exponentials) == (None,) * 3

    def test_nan_state_warns(self):
        space = build_space(2, 2)
        psi0 = coherent_state(space, 0.0, 0.0, "2")
        psi0.amplitudes[index(space, 1, 0, 0)] = np.nan
        res = evolve(_spec(Variant.JC_STATIC), psi0, t_max=1.0, samples=3)
        assert math.isnan(res.norm_drift) and math.isnan(res.leakage)
        assert [w.split()[0] for w in res.warnings] == ["norm", "truncation:"]

    def test_leakage_warning_on_tight_cutoff(self):
        space = build_space(1, 1)
        sys = RESONANT.replace(g1=0.5, g2=0.5)
        psi0 = coherent_state(space, 0.0, 0.0, "2+3")
        res = evolve(_spec(Variant.JC_STATIC, sys=sys), psi0,
                     t_max=40.0, samples=60)
        assert res.leakage > 1e-6
        assert any("truncation" in w for w in res.warnings)

    @pytest.mark.parametrize("t_max, samples, message", [
        (1.0, 1, "at least 2 samples"), (0.0, 3, "t_max > 0")])
    def test_sample_grid_rejected(self, t_max, samples, message):
        space = build_space(1, 1)
        psi0 = coherent_state(space, 0.0, 0.0, "2")
        with pytest.raises(ValueError, match=message):
            evolve(_spec(Variant.JC_STATIC), psi0, t_max=t_max, samples=samples)


class TestEcho:
    def test_identical_specs_give_unit_fidelity(self):
        space = build_space(2, 2)
        spec = _spec(Variant.DOMINANT_SIDEBAND)
        psi0 = coherent_state(space, 0.01, 0.01, "2")
        echo = loschmidt_echo(spec, spec, psi0, t_max=30.0, samples=31)
        assert np.max(np.abs(echo.fidelity - 1.0)) < 1e-10

    def test_initial_sample_and_range(self):
        space = build_space(2, 2)
        echo = loschmidt_echo(_spec(Variant.DRIVE_ROTATED),
                              _spec(Variant.DOMINANT_SIDEBAND),
                              coherent_state(space, 0.01, 0.01, "2"),
                              t_max=30.0, samples=31)
        assert abs(echo.fidelity[0] - 1.0) < 1e-12
        assert np.all(echo.fidelity >= 0.0)
        assert np.all(echo.fidelity <= 1.0 + 1e-12)

    def test_branches_are_the_evolve_records(self):
        # the echo keeps each branch's record as evolve returns it, the
        # integrator's counts included (None on the framed path)
        space = build_space(2, 2)
        psi0 = coherent_state(space, 0.01, 0.01, "1-2")
        specs = _spec(Variant.DRIVE_ROTATED), _spec(Variant.DOMINANT_SIDEBAND)
        echo = loschmidt_echo(*specs, psi0, t_max=30.0, samples=31)
        for branch, spec in zip((echo.a, echo.b), specs):
            ref = evolve(spec, psi0, t_max=30.0, samples=31)
            assert np.array_equal(branch.states, ref.states)
            assert np.array_equal(branch.norms, ref.norms)
            assert ((branch.substeps, branch.taylor_degree, branch.exponentials)
                    == (ref.substeps, ref.taylor_degree, ref.exponentials))
        assert echo.a.substeps is not None and echo.b.substeps is None
        overlap = np.einsum("ij,ij->i", echo.a.states.conj(), echo.b.states)
        assert np.array_equal(echo.fidelity, np.abs(overlap) ** 2)

    def test_run_arguments_are_keyword_only(self):
        # the space is the state's, and the run's arguments take no position
        for function in (evolve, loschmidt_echo):
            params = inspect.signature(function).parameters
            assert "space" not in params
            for name in ("t_max", "samples", "dt_max"):
                assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
        assert next(iter(inspect.signature(evolve).parameters)) == "spec"

    def test_symmetry_in_branch_order(self):
        space = build_space(2, 2)
        a = _spec(Variant.DRIVE_ROTATED)
        b = _spec(Variant.DOMINANT_SIDEBAND)
        psi0 = coherent_state(space, 0.01, 0.01, "1-2")
        e_ab = loschmidt_echo(a, b, psi0, t_max=25.0, samples=26)
        e_ba = loschmidt_echo(b, a, psi0, t_max=25.0, samples=26)
        assert np.max(np.abs(e_ab.fidelity - e_ba.fidelity)) < 1e-12

    def test_cross_frame_comparison_rejected(self):
        space = build_space(2, 2)
        psi0 = coherent_state(space, 0.01, 0.01, "2")
        with pytest.raises(ValueError, match="frame"):
            loschmidt_echo(_spec(Variant.DRIVE_ROTATED),
                           _spec(Variant.EFFECTIVE_JC),
                           psi0, t_max=10.0, samples=5)
