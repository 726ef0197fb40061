import math

import numpy as np
import pytest
from scipy.integrate import quad

from tunneltimes import stationary
from tunneltimes.model import BarrierSpec
from tunneltimes.spectral import barrier_k_spectrum, interior_window_transform

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
                lambda x: stationary.wavefunction_at(sol, x) * np.exp(-1j * k * x),
                0.0, 3.0)
            direct = sol.N * interior_window_transform(sol.C_l, sol.D, CHI, 3.0, float(k))
            assert abs(direct - exact) < 1e-10
        assert spectrum.w_plus > 0.0

    def test_real_field_is_direction_symmetric(self):
        # cosh(chi x) = 0.5 e^{chi x} + 0.5 e^{-chi x}: real interior field,
        # so |phi(-k)| = |phi(k)| and the directional weights coincide
        k = np.linspace(0.0, 30.0, 2001)
        c_l = 0.5 * math.exp(CHI * 2.0)
        phi_p = interior_window_transform(c_l, 0.5, CHI, 2.0, k)
        phi_m = interior_window_transform(c_l, 0.5, CHI, 2.0, -k)
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
