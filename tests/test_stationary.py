import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (
    current,
    incident_current,
    transfer_matrix_solution,
    transmitted_current,
    wavefunction_at,
)
from tunneltimes import stationary, times
from tunneltimes.model import BarrierSpec
from tunneltimes.stationary import (
    amplitudes,
    barrier_probability,
    phase_shift,
    solve,
)

U0 = 12.0
EPS = 11.8


def standard_grid():
    eps = np.linspace(0.05 * U0, 0.999 * U0, 100)
    return [(float(e), l) for e in eps for l in (0.1, 1.0, 10.0)]


class TestSolve:
    def test_zero_width_is_transparent(self):
        sol = solve(BarrierSpec(U0, 0.0), EPS)
        assert sol.T == pytest.approx(1.0, abs=1e-14)
        assert abs(sol.R) < 1e-14

    def test_symmetric_point_k_equals_chi(self):
        # u0 = 2, eps = 1 makes k = chi = 1 and T = e^{-ikl}/cosh(chi l)
        sol = solve(BarrierSpec(2.0, 1.0), 1.0)
        assert abs(sol.T) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-12, abs=0.0)
        assert cmath.phase(sol.T) == pytest.approx(-1.0, abs=1e-12)

    def test_against_matching_oracle(self):
        R, C, D, T = transfer_matrix_solution(U0, 1.0, EPS)
        sol = solve(BarrierSpec(U0, 1.0), EPS)
        assert abs(sol.T - T) < 1e-12
        assert abs(sol.R - R) < 1e-12
        assert abs(sol.C_l - C * math.exp(sol.chi * 1.0)) < 1e-12
        assert abs(sol.D - D) < 1e-12
        assert abs(sol.T) == pytest.approx(0.484516415017, rel=1e-10)

    def test_wavenumber(self):
        sol = solve(BarrierSpec(U0, 1.0), 4.0)
        assert sol.eps == 4.0 and sol.k == 2.0

    def test_chi_and_pythagoras(self):
        barrier = BarrierSpec(U0, 1.0)
        rng = np.random.default_rng(11)
        for eps in rng.uniform(0.1, 11.9, 50):
            sol = solve(barrier, float(eps))
            assert sol.chi**2 + sol.k**2 == pytest.approx(U0, abs=U0 * 5e-16)

    def test_normalization_constant(self):
        sol = solve(BarrierSpec(U0, 1.0), 9.0)
        assert sol.N == pytest.approx((4.0 * math.pi * 3.0) ** -0.5, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("call", [
        lambda: amplitudes(U0, 1.0, math.nan),
        lambda: solve(BarrierSpec(U0, 1.0), math.nan),
        lambda: phase_shift(BarrierSpec(U0, 1.0), math.nan),
        lambda: times.phase_shift_derivative(BarrierSpec(U0, 1.0), math.nan),
        lambda: times.compute_times(BarrierSpec(U0, 1.0), math.nan),
        lambda: times.group_delay(BarrierSpec(U0, 1.0), math.nan),
    ], ids=["amplitudes", "solve", "phase_shift",
            "phase_shift_derivative", "compute_times", "group_delay"])
    def test_rejects_nan_energy(self, call):
        with pytest.raises(ValueError):
            call()

    def test_rejects_out_of_range_energy(self):
        barrier = BarrierSpec(U0, 1.0)
        with pytest.raises(ValueError):
            solve(barrier, 12.0)
        with pytest.raises(ValueError):
            solve(barrier, 12.5)
        with pytest.raises(ValueError):
            solve(barrier, 0.0)
        with pytest.raises(ValueError):
            solve(barrier, -1.0)

    def test_flux_conservation_over_grid(self):
        for eps, l in standard_grid():
            T, R, _, _ = amplitudes(U0, l, eps)
            assert abs(abs(T) ** 2 + abs(R) ** 2 - 1.0) < 1e-12

    def test_opaque_barrier_does_not_overflow(self):
        T, R, C, D = amplitudes(U0, 5000.0, EPS)
        assert abs(T) == 0.0  # underflows cleanly
        assert abs(abs(R) - 1.0) < 1e-12
        assert np.isfinite([T, R, C, D]).all()


class TestFloatPath:
    """A float energy runs on Python scalars; normalization also takes numpy
    and the packet's energy nodes as an array."""

    @pytest.mark.parametrize("eps", [EPS, np.float64(EPS), 0.01, U0 * (1.0 - 1e-12)],
                             ids=["float", "float64", "low", "top"])
    @pytest.mark.parametrize("l", [1e-6, 1.0, 40.0])
    def test_float_gives_python_complex(self, eps, l):
        for value in amplitudes(U0, l, eps):
            assert type(value) is complex

    def test_normalization_float_matches_array(self):
        # sqrt rounds correctly in math and numpy alike, so bit for bit
        eps = 10.0 ** np.linspace(-12.0, 3.0, 301)
        array = stationary.normalization(eps, np)
        for e, a in zip(eps, array):
            for scalar in (stationary.normalization(float(e), math),
                           stationary.normalization(np.float64(e), math)):
                assert type(scalar) is float and scalar == a, e


class TestMatching:
    @pytest.mark.parametrize("l", [0.1, 1.0, 10.0])
    def test_continuity_at_interfaces(self, l):
        for eps in np.linspace(0.05 * U0, 0.999 * U0, 34):
            sol = solve(BarrierSpec(U0, l), float(eps))
            k, chi = sol.k, sol.chi
            # value and slope, left form vs interior form at x = 0
            left, dleft = 1.0 + sol.R, 1j * k * (1.0 - sol.R)
            C = sol.C_l * math.exp(-chi * l)
            mid0, dmid0 = C + sol.D, chi * (C - sol.D)
            assert abs(left - mid0) < 1e-10 * abs(left)
            assert abs(dleft - dmid0) < 1e-10 * abs(dleft)
            # interior form vs transmitted form at x = l (scaled evaluation)
            midl = wavefunction_at(sol, l)
            right = sol.N * sol.T * cmath.exp(1j * k * l)
            assert abs(midl - right) < 1e-10 * abs(right)

    def test_wavefunction_against_oracle_inside(self):
        l = 4.0
        R, C, D, T = transfer_matrix_solution(U0, l, EPS)
        sol = solve(BarrierSpec(U0, l), EPS)
        x = l / 2.0
        chi = math.sqrt(U0 - EPS)
        expected = sol.N * (C * math.exp(chi * x) + D * math.exp(-chi * x))
        assert abs(wavefunction_at(sol, x) - expected) < 1e-10 * abs(expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_from_barrier_without_overflow(self):
        # each region's form is evaluated only at its own positions, so
        # e^{chi x} is never formed at x = +-400
        sol = solve(BarrierSpec(U0, 1.0), 6.0)
        k = sol.k
        x = np.array([-400.0, 400.0])
        expected = sol.N * np.array([
            cmath.exp(1j * k * x[0]) + sol.R * cmath.exp(-1j * k * x[0]),
            sol.T * cmath.exp(1j * k * x[1]),
        ])
        assert np.max(np.abs(wavefunction_at(sol, x) - expected)) < 1e-12
        for xi in x:
            assert current(sol, xi) == pytest.approx(
                transmitted_current(sol), rel=1e-12, abs=0.0)

    def test_wavefunction_left_of_zero(self):
        sol = solve(BarrierSpec(U0, 1.0), EPS)
        x = -3.2
        k = sol.k
        expected = sol.N * (cmath.exp(1j * k * x) + sol.R * cmath.exp(-1j * k * x))
        assert abs(wavefunction_at(sol, x) - expected) < 1e-12


class TestPhaseShift:
    def test_no_barrier_no_phase(self):
        assert phase_shift(BarrierSpec(U0, 0.0), EPS) == 0.0

    def test_half_height_energy_gives_minus_kl(self):
        # k = chi at eps = u0/2, so the arctan term vanishes identically
        for l in (0.5, 5.0, 50.0):
            assert phase_shift(BarrierSpec(U0, l), 6.0) == pytest.approx(
                -math.sqrt(6.0) * l, rel=1e-14, abs=0.0)

    def test_opaque_limit(self):
        # alpha + k l -> atan((k^2 - chi^2)/(2 k chi)) as l grows
        k, chi = math.sqrt(EPS), math.sqrt(U0 - EPS)
        g = (k * k - chi * chi) / (2.0 * k * chi)
        value = phase_shift(BarrierSpec(U0, 40.0), EPS) + k * 40.0
        assert value == pytest.approx(math.atan(g), abs=1e-10)
        assert math.atan(g) == pytest.approx(1.31187478479, abs=1e-9)

    def test_agrees_with_arg_t_mod_2pi(self):
        for eps, l in standard_grid():
            T, _, _, _ = amplitudes(U0, l, eps)
            delta = phase_shift(BarrierSpec(U0, l), eps) - cmath.phase(complex(T))
            cycles = delta / (2.0 * math.pi)
            assert abs(cycles - round(cycles)) < 1e-10


class TestTransmissionMagnitude:
    def test_strictly_decreasing_in_width(self):
        ls = np.linspace(0.0, 10.0, 60)
        mags = [abs(complex(amplitudes(U0, float(l), EPS)[0])) for l in ls]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_asymptotic_decay_rate(self):
        chi = math.sqrt(U0 - EPS)
        l = 8.5 / chi  # chi * l > 8
        r = abs(complex(amplitudes(U0, l + 1.0, EPS)[0])) / abs(
            complex(amplitudes(U0, l, EPS)[0]))
        assert r == pytest.approx(math.exp(-chi), rel=0.01)


class TestCurrent:
    def test_plane_wave_current_matches_group_velocity(self):
        # transparent barrier leaves the unit plane wave: j/N^2 = 2k
        sol = solve(BarrierSpec(U0, 0.0), 9.0)
        assert current(sol, 4.7) / sol.N**2 == pytest.approx(6.0, rel=1e-12)

    def test_current_is_position_independent(self):
        sol = solve(BarrierSpec(U0, 1.0), EPS)
        j_left = current(sol, -5.0)
        j_right = current(sol, sol.barrier.l + 5.0)
        j_mid = current(sol, 0.4)
        assert j_left == pytest.approx(j_right, abs=1e-12 * abs(j_right))
        assert j_mid == pytest.approx(j_right, rel=1e-10)

    def test_transmitted_fraction(self):
        sol = solve(BarrierSpec(U0, 1.0), EPS)
        ratio = current(sol, -5.0) / incident_current(sol)
        assert ratio == pytest.approx(abs(sol.T) ** 2, rel=1e-12, abs=0.0)
        assert ratio == pytest.approx(0.2347561, abs=1e-6)
        assert transmitted_current(sol) == pytest.approx(current(sol, 2.0), rel=1e-12, abs=0.0)


class TestBarrierProbability:
    def test_zero_width(self):
        assert barrier_probability(solve(BarrierSpec(U0, 0.0), EPS)) == 0.0

    def test_against_quadrature(self):
        sol = solve(BarrierSpec(U0, 3.0), EPS)
        num, _ = quad(lambda x: abs(wavefunction_at(sol, x)) ** 2, 0.0, 3.0,
                      epsabs=1e-14, limit=200)
        assert barrier_probability(sol) == pytest.approx(num, abs=1e-10)

    def test_winful_identity(self):
        # tau_g = tau_d_in - Im(R)/(2 eps) (Winful, PRL 91, 260401 (2003)):
        # links the phase derivative to the barrier probability
        for eps, l in standard_grid():
            barrier = BarrierSpec(U0, l)
            sol = solve(barrier, eps)
            tau_d = barrier_probability(sol) / incident_current(sol)
            self_interference = sol.R.imag / (2.0 * eps)
            tau_g = times.group_delay(barrier, eps)
            scale = abs(tau_d) + abs(self_interference)
            assert abs(tau_g - (tau_d - self_interference)) <= 1e-11 * scale

    @pytest.mark.parametrize("theta", [
        1e-12, 1e-8, 1e-4, 0.05, stationary.THIN_THETA * (1.0 - 1e-9),
        stationary.THIN_THETA * (1.0 + 1e-9), 1.0, 3.0, 10.0, 40.0, 340.0])
    def test_q_theta_against_mpmath(self, theta):
        # Q = 2 e^{-2 theta} (sinh 2theta - 2theta), which barrier_probability
        # and times.group_delay share, on both sides of THIN_THETA
        with mp.workdps(60):
            t = mp.mpf(theta)
            expected = float(2 * mp.exp(-2 * t) * (mp.sinh(2 * t) - 2 * t))
        assert stationary._q_theta(theta) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_saturates_with_width(self):
        p20 = barrier_probability(solve(BarrierSpec(U0, 20.0), EPS))
        p30 = barrier_probability(solve(BarrierSpec(U0, 30.0), EPS))
        assert abs(p20 - p30) / p30 < 1e-6
