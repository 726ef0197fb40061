import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import interior_window_transform, mp_window_density, wavefunction_at
from tunneltimes import stationary
from tunneltimes.model import BarrierSpec
from tunneltimes.spectral import _BLOCK, MAX_K_NODES, _phase_table, barrier_k_spectrum

U0 = 12.0
EPS = 11.8
CHI = math.sqrt(U0 - EPS)


def quad_complex(f, a, b):
    re, _ = quad(lambda x: f(x).real, a, b, epsabs=1e-13, limit=300)
    im, _ = quad(lambda x: f(x).imag, a, b, epsabs=1e-13, limit=300)
    return re + 1j * im


class TestWindowTransform:
    def test_against_quadrature(self):
        sol = stationary.solve(BarrierSpec(U0, 3.0), EPS)
        rng = np.random.default_rng(31)
        spectrum = barrier_k_spectrum(sol, k_max=40.0, n_k=101)  # not used here
        for k in rng.uniform(-25.0, 25.0, 20):
            exact = quad_complex(
                lambda x: wavefunction_at(sol, x) * np.exp(-1j * k * x),
                0.0, 3.0)
            direct, _ = interior_window_transform(sol.C_l, sol.D, CHI, 3.0, float(k))
            assert abs(sol.N * direct - exact) < 1e-10
        assert spectrum.w_plus > 0.0

    def test_real_field_is_direction_symmetric(self):
        # cosh(chi x) = 0.5 e^{chi x} + 0.5 e^{-chi x}: real interior field,
        # so |phi(-k)| = |phi(k)| and the directional weights coincide
        k = np.linspace(0.0, 30.0, 2001)
        c_l = 0.5 * math.exp(CHI * 2.0)
        phi_p, phi_m = interior_window_transform(c_l, 0.5, CHI, 2.0, k)
        assert np.max(np.abs(np.abs(phi_p) - np.abs(phi_m))) < 1e-14
        w_plus = np.trapezoid(np.abs(phi_p) ** 2, k)
        w_minus = np.trapezoid(np.abs(phi_m) ** 2, k)
        assert abs(w_plus - w_minus) <= 1e-12 * w_plus


class TestDirectionalSpectrum:
    def test_right_movers_dominate(self):
        sol = stationary.solve(BarrierSpec(U0, 3.0), EPS)
        spec = barrier_k_spectrum(sol, k_max=80.0, n_k=4001)
        assert spec.w_plus > spec.w_minus > 0.0
        assert 0.0 < spec.ratio < 1.0

    def test_right_movers_dominate_across_grid(self):
        for eps in np.linspace(0.1 * U0, 0.97 * U0, 5):
            for l in (0.5, 2.0, 8.0):
                sol = stationary.solve(BarrierSpec(U0, l), float(eps))
                spec = barrier_k_spectrum(sol, k_max=90.0, n_k=4001)
                assert spec.w_plus > spec.w_minus

    def test_parseval_with_ample_window(self):
        sol = stationary.solve(BarrierSpec(U0, 3.0), EPS)
        spec = barrier_k_spectrum(sol, k_max=400.0, n_k=20001)
        assert not spec.k_max_too_small
        assert spec.parseval_rel_err < 0.005

    def test_small_window_flagged(self):
        sol = stationary.solve(BarrierSpec(U0, 3.0), EPS)
        spec = barrier_k_spectrum(sol, k_max=2.0, n_k=401)
        assert spec.k_max_too_small

    def test_requires_positive_width(self):
        with pytest.raises(ValueError):
            barrier_k_spectrum(stationary.solve(BarrierSpec(U0, 0.0), EPS), 10.0)

    def test_weight_rounding_to_zero_is_named(self):
        # below l ~ 1e-162 both weights, ~1.85 l^2 here, underflow to 0, and
        # the ratio W_-/W_+ divided by zero
        sol = stationary.solve(BarrierSpec(U0, 1e-300), EPS)
        with pytest.raises(ValueError, match=r"^W_\+ = 0 at l = 1e-300, eps = "):
            barrier_k_spectrum(sol, k_max=80.0, n_k=4001)

    def test_vanishing_window_limit(self):
        sol = stationary.solve(BarrierSpec(U0, 1e-3), EPS)
        spec = barrier_k_spectrum(sol, k_max=80.0, n_k=4001)
        assert spec.w_plus < 1e-4
        assert spec.w_minus < 1e-4
        assert 0.0 < spec.ratio <= 1.0 + 1e-12


def share_ratios(widths, k_max, n_k):
    """W_minus / W_plus of the barrier-region spectrum at each width."""
    return [barrier_k_spectrum(stationary.solve(BarrierSpec(U0, l), EPS),
                               k_max, n_k).ratio for l in widths]


class TestShareSweep:
    def test_reflected_share_grows_and_saturates(self):
        ratios = share_ratios((0.5, 1.0, 2.0, 4.0, 8.0), k_max=80.0, n_k=4001)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        r16, r24 = share_ratios((16.0, 24.0), k_max=80.0, n_k=4001)
        assert abs(r16 - r24) < 1e-3


def one_sided_transform(C_l, D, chi, l, k):
    """Reference: phi(k) for either sign of k, with its own e^{-ikl}."""
    e = math.exp(-chi * l)
    phase = np.exp(-1j * k * l)
    grow = (C_l * phase - e * C_l) / (chi - 1j * k)
    decay = (D - D * e * phase) / (chi + 1j * k)
    return grow + decay


def one_sided_density(sol, k, phase):
    """Reference: |N phi(k)|^2 in the u/v form for either sign of k, with the given e^{-ikl}.

    |N (C_l u (chi + ik) + D v (chi - ik))|^2 / (chi^2 + k^2)^2 with
    u = p - e = (p - 1) + (1 - e) and v = 1 - e p = (1 - e) p - (p - 1),
    over whole arrays.
    """
    chi, one_minus_e = sol.chi, -math.expm1(-sol.chi * sol.barrier.l)
    z = chi + 1j * k
    u = (phase - 1.0) + one_minus_e
    v = phase * one_minus_e - (phase - 1.0)
    a = u * z * (sol.N * sol.C_l) + v * np.conj(z) * (sol.N * sol.D)
    return (a.real ** 2 + a.imag ** 2) / (k * k + chi * chi) ** 2


def table_phases(n_k, k_max, l):
    """e^{-ikl} on np.linspace(0, k_max, n_k): the whole product of the phase
    table, and its own exponential at k_max."""
    hi, lo = _phase_table(n_k, k_max / (n_k - 1), l)
    phase = np.einsum("i,j->ij", hi, lo).ravel()[:n_k]
    phase[-1] = np.exp(-1j * (k_max * l))
    return phase


def whole_array_spectrum(sol, k_max, n_k):
    """Reference: the spectrum from whole-grid arrays, as one expression each."""
    kp = np.linspace(0.0, k_max, n_k)
    phase = table_phases(n_k, k_max, sol.barrier.l)
    dens_p = one_sided_density(sol, kp, phase)
    dens_m = one_sided_density(sol, -kp, np.conj(phase))
    w = np.ones(n_k)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (kp[1] - kp[0]) / 3.0
    k = np.concatenate([-kp[::-1][:-1], kp])
    density = np.concatenate([dens_m[::-1][:-1], dens_p])
    return k, density, float(np.dot(w, dens_p)), float(np.dot(w, dens_m))


class TestPairedTransform:
    @pytest.mark.parametrize("l", [0.5, 8.0, 40.0])
    def test_both_halves_equal_one_sided_evaluation(self, l):
        # e^{+ikl} taken as the conjugate of e^{-ikl} changes no bit
        sol = stationary.solve(BarrierSpec(U0, l), EPS)
        k = np.linspace(0.0, 400.0, 12001)
        phi_p, phi_m = interior_window_transform(sol.C_l, sol.D, CHI, l, k)
        assert np.array_equal(phi_p, one_sided_transform(sol.C_l, sol.D, CHI, l, k))
        assert np.array_equal(phi_m, one_sided_transform(sol.C_l, sol.D, CHI, l, -k))

    @pytest.mark.parametrize("l", [0.5, 8.0, 40.0])
    def test_kernel_halves_equal_one_sided_evaluation(self, l):
        # the -k half, built from conj(N C_l) and conj(N D) on the +k half's
        # u (chi + ik) and v (chi - ik), changes no bit of a one-sided
        # evaluation at -k with phase conj(p)
        sol = stationary.solve(BarrierSpec(U0, l), EPS)
        spec = barrier_k_spectrum(sol, k_max=400.0, n_k=12001)
        k = np.linspace(0.0, 400.0, 12001)
        phase = table_phases(12001, 400.0, l)
        assert np.array_equal(spec.density[12000:], one_sided_density(sol, k, phase))
        assert np.array_equal(spec.density[12000::-1],
                              one_sided_density(sol, -k, np.conj(phase)))


class TestPhaseTable:
    @pytest.mark.parametrize("n_k", [3, 4097, 12001, MAX_K_NODES + 1])
    def test_about_two_sqrt_n_exponentials(self, n_k):
        hi, lo = _phase_table(n_k, 400.0 / (n_k - 1), 3.0)
        assert len(hi) == -(-n_k // len(lo))
        assert math.sqrt(n_k) <= len(lo) <= 2.0 * math.sqrt(n_k)
        assert _BLOCK % len(lo) == 0
        assert len(hi) + len(lo) <= 2.5 * math.sqrt(n_k) + 1

    @pytest.mark.parametrize("l", [1e-3, 0.5, 8.0, 40.0])
    def test_matches_one_exponential_per_node(self, l):
        # both round k l; the table's product adds a few ulp of 1
        k = np.linspace(0.0, 400.0, 12001)
        phase = table_phases(12001, 400.0, l)
        bound = 3.0 * np.spacing(k * l) + 4.0 * np.finfo(float).eps
        assert np.all(np.abs(phase - np.exp(-1j * k * l)) <= bound)


class TestDensityOracle:
    @pytest.mark.parametrize("l", [1e-3, 0.05, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0])
    def test_no_worse_than_the_complex_division_form(self, l):
        # the first 100 nodes of each sign, where the density is largest,
        # against 40 digits; errors relative to the largest density
        sol = stationary.solve(BarrierSpec(U0, l), EPS)
        spec = barrier_k_spectrum(sol, k_max=400.0, n_k=12001)
        k = spec.k[12000:12100]
        exact_p = np.array([mp_window_density(sol, float(x)) for x in k])
        exact_m = np.array([mp_window_density(sol, -float(x)) for x in k])
        phi_p, phi_m = interior_window_transform(sol.C_l, sol.D, sol.chi, l, k)
        old = max(np.max(np.abs(np.abs(sol.N * phi_p) ** 2 - exact_p)),
                  np.max(np.abs(np.abs(sol.N * phi_m) ** 2 - exact_m)))
        new = max(np.max(np.abs(spec.density[12000:12100] - exact_p)),
                  np.max(np.abs(spec.density[12000:11900:-1] - exact_m)))
        scale = np.max(spec.density)
        assert new <= max(old, 2e-15 * scale)

    @pytest.mark.parametrize("l", [1e-9, 1e-15, 1e-20])
    def test_thin_widths_keep_their_digits(self, l):
        # u = (p - 1) + (1 - e) keeps the chi l of its real part where e
        # rounds to 1; as p - e it lost it, and from l ~ 1e-15 W_- exceeded
        # W_+.  As l -> 0, phi(k) -> l psi(0) for every k, so the ratio -> 1.
        # 60 digits: the oracle's p - e cancels ~20 of them at l = 1e-20
        sol = stationary.solve(BarrierSpec(U0, l), EPS)
        spec = barrier_k_spectrum(sol, k_max=400.0, n_k=12001)
        nodes = range(0, 12001, 600)
        exact = [mp_window_density(sol, float(sign * spec.k[12000 + i]), dps=60)
                 for sign in (1, -1) for i in nodes]
        got = [spec.density[12000 + sign * i] for sign in (1, -1) for i in nodes]
        assert np.max(np.abs(np.subtract(got, exact))) <= 2e-15 * np.max(spec.density)
        assert spec.ratio == pytest.approx(1.0, abs=1e-6)


class TestWorkMemory:
    def test_no_grid_or_block_temporaries(self):
        # four complex and two real block buffers, 320 KiB, on top of the two
        # result arrays; a whole-grid complex temporary alone would add 188 KiB
        sol = stationary.solve(BarrierSpec(U0, 3.0), EPS)
        barrier_k_spectrum(sol, k_max=400.0, n_k=12001)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            barrier_k_spectrum(sol, k_max=400.0, n_k=12001)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - 2 * 8 * (2 * 12001 - 1) < 512 * 1024


class TestBlockedSpectrum:
    # 4095 and 4097 sit either side of one block, 8193 and 12001 split unevenly
    @pytest.mark.parametrize("n_k", [3, 4095, 4097, 8193, 12001])
    @pytest.mark.parametrize("l", [0.5, 8.0])
    def test_matches_whole_array_formula(self, n_k, l):
        sol = stationary.solve(BarrierSpec(U0, l), EPS)
        spec = barrier_k_spectrum(sol, k_max=400.0, n_k=n_k)
        k, density, w_plus, w_minus = whole_array_spectrum(sol, 400.0, n_k)
        assert np.array_equal(spec.k, k)
        assert np.array_equal(spec.k, -spec.k[::-1])
        assert np.max(np.abs(spec.density - density)) <= 1e-15 * np.max(density)
        assert spec.w_plus == pytest.approx(w_plus, rel=1e-14, abs=0.0)
        assert spec.w_minus == pytest.approx(w_minus, rel=1e-14, abs=0.0)

    def test_even_count_rounds_up_and_too_few_rejected(self):
        sol = stationary.solve(BarrierSpec(U0, 2.0), EPS)
        assert len(barrier_k_spectrum(sol, 40.0, n_k=4096).k) == 2 * 4097 - 1
        with pytest.raises(ValueError, match="Simpson"):
            barrier_k_spectrum(sol, 40.0, n_k=1)
