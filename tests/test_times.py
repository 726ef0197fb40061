import cmath
import dataclasses
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from helpers import (
    finite_difference_group_delay,
    incident_current,
    transmitted_current,
    wavefunction_at,
)
from tunneltimes import stationary, times
from tunneltimes.model import BarrierSpec
from tunneltimes.times import (
    compute_times,
    delay_crossing,
    group_delay,
    phase_shift_derivative,
)

U0 = 12.0
EPS = 11.8
CHI = math.sqrt(U0 - EPS)


def dwell_time_incident(barrier, eps):
    """Barrier probability over the incident current, from its own state."""
    sol = stationary.solve(barrier, eps)
    return stationary.barrier_probability(sol) / incident_current(sol)


def dwell_time_transmitted(barrier, eps):
    """Barrier probability over the transmitted current, from its own state."""
    sol = stationary.solve(barrier, eps)
    return stationary.barrier_probability(sol) / transmitted_current(sol)


@st.composite
def readme_domain(draw):
    """(u0, l, eps) with u0 in [0.5, 200], eps/u0 in [1e-9, 1 - 1e-9], spread
    in log towards both ends, and theta = chi l from 1e-12 to 340."""
    u0 = draw(st.floats(0.5, 200.0))
    frac = draw(st.one_of(st.floats(1e-9, 1.0 - 1e-9),
                          st.floats(-9.0, -1.0).map(lambda x: 10.0**x),
                          st.floats(-9.0, -1.0).map(lambda x: 1.0 - 10.0**x)))
    theta = 10.0 ** draw(st.floats(-12.0, math.log10(340.0)))
    eps = u0 * frac
    return u0, theta / math.sqrt(u0 - eps), eps


class TestGroupDelay:
    def test_zero_width(self):
        assert group_delay(BarrierSpec(U0, 0.0), EPS) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_l10(self):
        # frozen against 50-digit differentiation of the closed-form phase
        assert group_delay(BarrierSpec(U0, 10.0), EPS) == pytest.approx(
            0.649647569456, abs=1e-11)

    @pytest.mark.parametrize("l", [5.0, 10.0, 20.0, 40.0])
    def test_matches_high_precision_phase_derivative(self, l):
        # tau_g = l/(2k) + d(alpha)/d(eps), with alpha differentiated at 60
        # digits from its closed form; covers the approach to the plateau
        with mp.workdps(60):
            def alpha(e):
                k, chi = mp.sqrt(e), mp.sqrt(U0 - e)
                return -k * l + mp.atan((k**2 - chi**2) / (2 * k * chi)
                                        * mp.tanh(chi * l))
            eps = mp.mpf(EPS)
            reference = l / (2 * mp.sqrt(eps)) + mp.diff(alpha, eps)
            assert abs(group_delay(BarrierSpec(U0, l), EPS) - reference) <= 1e-12

    def test_reaches_opaque_asymptote(self):
        barrier = BarrierSpec(U0, 25.0)
        assert group_delay(barrier, EPS) == pytest.approx(
            compute_times(barrier, EPS).hartman_limit, abs=1e-6)

    def test_thin_barrier_expansion(self):
        l = 0.005
        expansion = l * (2.0 * EPS + U0) / (4.0 * EPS**1.5)
        assert group_delay(BarrierSpec(U0, l), EPS) == pytest.approx(expansion, rel=0.01)

    def test_slower_than_free_for_thin_barriers(self):
        for l in np.linspace(0.005, 0.1, 12):
            barrier = BarrierSpec(U0, float(l))
            assert group_delay(barrier, EPS) > compute_times(barrier, EPS).tau_0

    def test_cross_check_agreement_over_standard_grid(self):
        # the analytic derivative against a Richardson difference of the phase
        for l in (0.1, 1.0, 10.0):
            barrier = BarrierSpec(U0, l)
            for eps in map(float, np.linspace(0.05 * U0, 0.999 * U0, 40)):
                assert abs(group_delay(barrier, eps)
                           - finite_difference_group_delay(barrier, eps)) <= 1e-8

    def test_stable_at_extreme_energies(self):
        barrier = BarrierSpec(U0, 2.0)
        for eps in (U0 * (1.0 - 1e-9), U0 * 1e-6):
            value = group_delay(barrier, eps)
            assert math.isfinite(value)


def row(u0, l, eps):
    """compute_times at (u0, l, eps)."""
    return compute_times(BarrierSpec(u0, l), eps)


def row_or_named_refusal(barrier, eps):
    """compute_times' row, or None where the standalone tau_d_out is not
    finite and the row refuses by that name."""
    if math.isfinite(dwell_time_transmitted(barrier, eps)):
        return compute_times(barrier, eps)
    with pytest.raises(ValueError, match="tau_d_out is not finite"):
        compute_times(barrier, eps)
    return None


class TestFreeTimes:
    def test_group(self):
        assert row(U0, 8.0, 4.0).tau_0 == 2.0
        assert row(U0, 10.0, EPS).tau_0 == pytest.approx(1.455557, abs=1e-6)
        assert row(U0, 0.0, EPS).tau_0 == 0.0

    def test_phase(self):
        assert row(U0, 8.0, 4.0).t_free == 4.0

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            row(U0, 1.0, 0.0)
        with pytest.raises(ValueError):
            row(U0, 1.0, -2.0)


class TestPhaseTime:
    def test_exact_zero_at_half_height(self):
        for l in (0.5, 5.0, 50.0):
            assert abs(row(U0, l, 6.0).t_ph) < 1e-12

    def test_zero_width(self):
        assert row(U0, 0.0, EPS).t_ph == 0.0

    def test_opaque_value(self):
        # t_ph -> atan((k^2-chi^2)/(2 k chi))/eps; frozen oracle value
        assert row(U0, 30.0, EPS).t_ph == pytest.approx(0.111175829219, abs=1e-10)

    def test_saturation_under_doubling(self):
        L = 12.5 / CHI  # chi L >= 12
        for name in ("t_ph", "tau_g"):
            a = getattr(row(U0, L, EPS), name)
            b = getattr(row(U0, 2.0 * L, EPS), name)
            assert abs(b - a) < 1e-6


class TestDwellTimes:
    def test_zero_width(self):
        assert dwell_time_incident(BarrierSpec(U0, 0.0), EPS) == 0.0
        assert dwell_time_transmitted(BarrierSpec(U0, 0.0), EPS) == 0.0

    def test_ratio_is_inverse_transmission_probability(self):
        for l in (0.3, 1.0, 4.0, 9.0):
            barrier = BarrierSpec(U0, l)
            sol = stationary.solve(barrier, EPS)
            ratio = dwell_time_transmitted(barrier, EPS) / dwell_time_incident(barrier, EPS)
            assert ratio == pytest.approx(1.0 / abs(sol.T) ** 2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("l", [1.0, 3.0])
    def test_against_quadrature(self, l):
        barrier = BarrierSpec(U0, l)
        sol = stationary.solve(barrier, EPS)
        prob, _ = quad(lambda x: abs(wavefunction_at(sol, x)) ** 2,
                       0.0, l, epsabs=1e-14, limit=200)
        expected = prob / incident_current(sol)
        assert dwell_time_incident(barrier, EPS) == pytest.approx(expected, abs=1e-9)

    def test_incident_variant_saturates(self):
        t20 = dwell_time_incident(BarrierSpec(U0, 20.0), EPS)
        t30 = dwell_time_incident(BarrierSpec(U0, 30.0), EPS)
        assert abs(t20 - t30) / t30 < 1e-6

    def test_incident_variant_monotone_bounded(self):
        ls = np.linspace(5.0, 25.0, 41)
        vals = [dwell_time_incident(BarrierSpec(U0, float(l)), EPS) for l in ls]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_transmitted_variant_grows_exponentially(self):
        for l in (15.0, 18.0, 22.0):
            r = dwell_time_transmitted(BarrierSpec(U0, l + 1.0), EPS) / \
                dwell_time_transmitted(BarrierSpec(U0, l), EPS)
            assert r == pytest.approx(math.exp(2.0 * CHI), rel=0.01)

    def test_transmitted_variant_unbounded_over_range(self):
        ls = np.linspace(5.0, 25.0, 21)
        vals = [dwell_time_transmitted(BarrierSpec(U0, float(l)), EPS) for l in ls]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1e3 * vals[0]


class TestHartmanLimit:
    def test_values(self):
        assert row(U0, 1.0, EPS).hartman_limit == pytest.approx(0.650944554904, abs=1e-11)
        assert row(2.0, 1.0, 1.0).hartman_limit == 1.0

    def test_symmetry(self):
        assert row(U0, 1.0, 3.1).hartman_limit == pytest.approx(
            row(U0, 1.0, U0 - 3.1).hartman_limit, rel=1e-12, abs=0.0)

    def test_divergence_reported(self):
        # the asymptote diverges at eps = u0, which the row refuses
        with pytest.raises(ValueError, match=r"not inside \(0, u0"):
            row(U0, 1.0, U0)
        with pytest.raises(ValueError):
            row(U0, 1.0, 12.5)


class TestReport:
    def test_zero_width_row(self):
        report = compute_times(BarrierSpec(U0, 0.0), EPS)
        assert (report.tau_g, report.tau_0, report.t_ph, report.t_free,
                report.tau_d_in, report.tau_d_out) == (0, 0, 0, 0, 0, 0)
        assert report.hartman_limit == pytest.approx(0.650944554904, abs=1e-11)

    @pytest.mark.parametrize("l", [0.0, -0.0])
    @pytest.mark.parametrize("eps", [0.05 * U0, 0.25 * U0, 0.5 * U0, EPS, U0 * (1.0 - 1e-12)])
    def test_zero_width_times_are_plus_zero(self, eps, l):
        # the general path at l = 0, also where g = (k^2 - chi^2)/(2 k chi)
        # is negative (eps < u0/2) or the width is -0: no time comes out as -0
        report = compute_times(BarrierSpec(U0, l), eps)
        for name in ("tau_g", "tau_0", "t_ph", "t_free", "tau_d_in", "tau_d_out"):
            value = getattr(report, name)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, name

    def test_all_fields_finite_and_consistent(self):
        report = compute_times(BarrierSpec(U0, 3.0), EPS)
        assert report.tau_0 == pytest.approx(3.0 / (2.0 * math.sqrt(EPS)), rel=1e-14, abs=0.0)
        assert report.t_free == pytest.approx(3.0 / math.sqrt(EPS), rel=1e-14, abs=0.0)
        for field in ("tau_g", "t_ph", "tau_d_in", "tau_d_out", "hartman_limit"):
            assert math.isfinite(getattr(report, field))

    @pytest.mark.parametrize("l", [182.0, 190.0])
    def test_underflowing_transmission_rejected(self, l):
        # at u0 = 8, eps = 4, |T|^2 ~ e^{-4 l}: at l = 182 tau_d_out would
        # overflow to inf, at l = 190 the transmitted current is 0
        with pytest.raises(ValueError, match=r"l = 1[89]\d.*eps = 4.*chi l = "):
            compute_times(BarrierSpec(8.0, l), 4.0)


class TestOneStatePerRow:
    """compute_times builds one scattering state and reads every time off it."""

    GRID = [(e, l) for e in (0.05 * U0, 0.5 * U0, EPS, U0 * (1.0 - 1e-9))
            for l in (0.0, 0.1, 1.0, 10.0, 40.0)]

    @staticmethod
    def assert_fields_equal_standalone_definitions(u0, l, eps):
        # the fused row's tau_g and dwell times against their own functions,
        # bit for bit; where the standalone tau_d_out is not finite, the row
        # names it
        barrier = BarrierSpec(u0, l)
        report = row_or_named_refusal(barrier, eps)
        if report is None:
            return
        assert report.tau_g == group_delay(barrier, eps)
        assert report.tau_d_in == dwell_time_incident(barrier, eps)
        assert report.tau_d_out == dwell_time_transmitted(barrier, eps)

    @pytest.mark.parametrize("eps,l", GRID)
    def test_fields_equal_standalone_definitions(self, eps, l):
        self.assert_fields_equal_standalone_definitions(U0, l, eps)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(point=readme_domain())
    @example(point=(0.1, 340.0 / math.sqrt(1e-13), 0.1 * (1.0 - 1e-12)))
    def test_fields_equal_standalone_definitions_over_the_domain(self, point):
        u0, l, eps = point
        self.assert_fields_equal_standalone_definitions(u0, l, eps)

    def test_winful_identity_on_report(self):
        # tau_g = tau_d_in - Im(R)/(2 eps) (Winful, PRL 91, 260401 (2003))
        for eps in map(float, np.linspace(0.05 * U0, 0.999 * U0, 25)):
            for l in (0.1, 1.0, 10.0, 40.0):
                report = compute_times(BarrierSpec(U0, l), eps)
                self_interference = stationary.solve(
                    BarrierSpec(U0, l), eps).R.imag / (2.0 * eps)
                scale = abs(report.tau_d_in) + abs(self_interference)
                assert abs(report.tau_g - (report.tau_d_in - self_interference)) \
                    <= 1e-11 * scale

    def test_check_runs_at_the_barrier_top(self, monkeypatch):
        # no energy is exempt from the Winful check: it runs, silently, where
        # no finite-difference stencil fits below u0
        barrier, eps = BarrierSpec(U0, 2.0), U0 * (1.0 - 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_times(barrier, eps)
        inner = stationary._probability
        monkeypatch.setattr(stationary, "_probability",
                            lambda *args: inner(*args) * (1.0 + 1e-8))
        with pytest.raises(times.CrossCheckError, match="Im\\(R\\)"):
            compute_times(barrier, eps)

    def test_one_solve_per_row(self, monkeypatch):
        # one sub-barrier state and one Q(theta) per row, and no
        # ScatteringSolution: solve and barrier_probability are not called
        calls = {"_state": 0, "_q_theta": 0, "solve": 0, "barrier_probability": 0}

        def counted(name):
            inner = getattr(stationary, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(stationary, name, counted(name))
        for l in (0.0, 0.1, 3.0, 40.0):
            calls.update(dict.fromkeys(calls, 0))
            compute_times(BarrierSpec(U0, l), EPS)
            assert calls == {"_state": 1, "_q_theta": 1, "solve": 0, "barrier_probability": 0}

    def test_float_in_float_out(self):
        barrier = BarrierSpec(U0, 3.0)
        assert type(phase_shift_derivative(barrier, EPS)) is float
        report = compute_times(barrier, EPS)
        for field in dataclasses.fields(report):
            assert type(getattr(report, field.name)) is float, field.name


class TestDelayCrossing:
    def test_crossing_location(self):
        root = delay_crossing(8.0, 6.32, 4.0, 8.0 * (1.0 - 1e-9))
        assert root == pytest.approx(7.934664, abs=1e-5)
        assert 7.7 < root < 8.0

    def test_root_moves_toward_barrier_top(self):
        roots = [delay_crossing(8.0, l, 4.0, 8.0 * (1.0 - 1e-9))
                 for l in (5.0, 6.32, 10.0, 20.0)]
        assert all(r is not None for r in roots)
        assert all(b > a for a, b in zip(roots, roots[1:]))
        assert roots[-1] < 8.0

    def test_no_crossing_returns_none(self):
        assert delay_crossing(8.0, 6.32, 4.0, 6.0) is None

    def test_scans_the_linspace_grid(self, monkeypatch):
        # the scan visits numpy.linspace's energies, each once and in order
        seen = []

        def derivative(barrier, eps):
            seen.append(eps)
            return 1.0
        monkeypatch.setattr(times, "phase_shift_derivative", derivative)
        # at [0.3, 0.9] the last point must be set: 0.3 + 399 step is not 0.9
        for eps_lo, eps_hi in ((4.0, 7.9), (0.3, 0.9), (1e-6, 1.0 - 1e-12), (2.5, 2.5 + 1e-9)):
            seen.clear()
            assert delay_crossing(12.0, 1.0, eps_lo, eps_hi) is None
            assert seen == np.linspace(eps_lo, eps_hi, times.CROSSING_SCAN).tolist()

    def test_zero_on_a_grid_point(self, monkeypatch):
        # the scan meets an exact zero at a grid point: 0 is a sign of its
        # own, so the bracket ends there and the grid point is the answer,
        # also where the derivative only touches zero
        root = float(np.linspace(4.0, 7.9, 400)[137])
        for derivative in (lambda barrier, eps: eps - root,
                           lambda barrier, eps: -(eps - root) ** 2):
            monkeypatch.setattr(times, "phase_shift_derivative", derivative)
            assert delay_crossing(8.0, 6.32, 4.0, 7.9) == root

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(u0=st.floats(0.5, 200.0), l=st.floats(0.05, 12.0),
           lo=st.floats(0.01, 0.5), gap=st.floats(-9.0, -1.0))
    def test_near_brentq_on_the_scanned_bracket(self, u0, l, lo, gap):
        # the oracle is scipy's brentq on the first sign change of the
        # derivative at numpy.linspace's energies; each of the two roots is
        # within xtol + rtol |x| of the crossing, so they differ by at most
        # twice that
        eps_lo, eps_hi = u0 * lo, u0 * (1.0 - 10.0**gap)
        barrier = BarrierSpec(u0, l)
        grid = np.linspace(eps_lo, eps_hi, times.CROSSING_SCAN).tolist()
        vals = [phase_shift_derivative(barrier, e) for e in grid]
        changes = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        assume(len(changes) > 0)
        i = int(changes[0])
        expected = brentq(lambda e: phase_shift_derivative(barrier, e), grid[i], grid[i + 1],
                          xtol=1e-13, rtol=1e-14)
        root = delay_crossing(u0, l, eps_lo, eps_hi)
        assert abs(root - expected) <= 2 * (1e-13 + 1e-14 * abs(expected))

    def test_overflowing_chi_l_is_named(self):
        # chi l = sqrt(11.5) 1e308 overflows while k l = sqrt(0.5) 1e308 does
        # not: Q(chi l) would be inf * 0, a NaN no bracket can hold
        with pytest.raises(ValueError, match=r"^chi l overflows at l = 1e\+308, eps = 0.5: "):
            delay_crossing(12.0, 1e308, 0.5, 11.0)

    def test_readme_crossing_as_the_csv_prints_it(self):
        # the README times-energy footer: # crossing_eps=7.93466392856
        assert f"{delay_crossing(8.0, 6.32, 4.0, 7.99):.12g}" == "7.93466392856"


def high_precision_reference(u0, l, eps):
    """(T, R, tau_d_in, tau_g) from textbook forms at 60 + theta digits.

    T and R come from the cosh/sinh transfer form; the barrier probability
    integrates psi(0) cosh(chi x) + psi'(0) sinh(chi x)/chi in closed form,
    whose terms grow like e^{2 theta} and cancel, hence the extra digits;
    tau_g differentiates the closed-form phase numerically.
    """
    with mp.workdps(60 + int(math.sqrt(u0 - eps) * l)):
        u0, l, eps = mp.mpf(u0), mp.mpf(l), mp.mpf(eps)
        k, chi = mp.sqrt(eps), mp.sqrt(u0 - eps)
        theta = chi * l
        denom = mp.cosh(theta) + 1j * (chi**2 - k**2) / (2 * k * chi) * mp.sinh(theta)
        T = mp.exp(-1j * k * l) / denom
        R = -1j * (k**2 + chi**2) / (2 * k * chi) * mp.sinh(theta) / denom
        a, b = 1 + R, 1j * k * (1 - R)
        sinh2 = mp.sinh(2 * theta) / (4 * chi)
        prob = (abs(a) ** 2 * (l / 2 + sinh2) + abs(b) ** 2 / chi**2 * (sinh2 - l / 2)
                + mp.re(a * mp.conj(b)) * mp.sinh(theta) ** 2 / chi**2)
        tau_d_in = prob / (2 * k)  # N^2 cancels against j_in = 2 k N^2

        def alpha(e):
            kk, cc = mp.sqrt(e), mp.sqrt(u0 - e)
            return -kk * l + mp.atan((kk**2 - cc**2) / (2 * kk * cc) * mp.tanh(cc * l))
        tau_g = l / (2 * k) + mp.diff(alpha, eps)
        return (complex(T * mp.exp(1j * k * l)), complex(R), float(tau_d_in),
                float(tau_g))


def assert_matches_reference(u0, l, eps):
    # tau_d_in and tau_g as compute_times forms them: its row also needs a
    # finite tau_d_out, the probability over the transmitted current, which
    # overflows from theta ~ 335 when eps is near the top
    barrier = BarrierSpec(u0, l)
    sol = stationary.solve(barrier, eps)
    tau_d_in = stationary.barrier_probability(sol) / incident_current(sol)
    tau_g = group_delay(barrier, eps)
    T_exit, R, tau_d_in_ref, tau_g_ref = high_precision_reference(u0, l, eps)
    # T e^{ikl}: the phase kl of T itself carries the rounding of the product
    assert abs(sol.T * cmath.exp(1j * sol.k * l) - T_exit) <= 1e-12 * abs(T_exit)
    assert abs(sol.R - R) <= 1e-12 * abs(R)
    assert abs(abs(sol.T) ** 2 + abs(sol.R) ** 2 - 1.0) <= 1e-12
    assert tau_d_in == pytest.approx(tau_d_in_ref, rel=1e-12, abs=0.0)
    assert tau_g == pytest.approx(tau_g_ref, rel=1e-12, abs=0.0)
    self_interference = sol.R.imag / (2.0 * eps)
    assert abs(tau_g - (tau_d_in - self_interference)) <= 1e-11 * (
        abs(tau_d_in) + abs(self_interference))


class TestHighPrecision:
    """Amplitudes and times against 60-digit mpmath over the whole domain."""

    @pytest.mark.parametrize("u0,l,eps", [
        (12.0, 3.0, 12.0 * (1.0 - 1e-10)),
        (12.0, 0.01, 12.0 * (1.0 - 1e-9)),
        (12.0, 1e-6, 11.0),
    ])
    def test_near_top_table_points(self, u0, l, eps):
        # tau_d_in was off by 1.0e-4, 3.4e-2 and 4.8e-10 here when the
        # interior terms C and D, each ~1/chi, were summed directly
        assert_matches_reference(u0, l, eps)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(u0=st.floats(0.1, 100.0),
           frac=st.one_of(st.floats(1e-6, 0.999), st.just(1.0 - 1e-12),
                          st.floats(-12.0, -3.0).map(lambda x: 1.0 - 10.0**x)),
           log_theta=st.floats(-10.0, math.log10(340.0)))
    # theta -> 0: eps = u0 (1 - 1e-12) and l ~ 1e-6; then either side of the
    # switch between the series and the direct form of the probability's
    # Q(theta); then theta = 340 at the top, where tau_d_out overflows
    @example(u0=12.0, frac=1.0 - 1e-12, log_theta=math.log10(1e-6 * math.sqrt(12e-12)))
    @example(u0=12.0, frac=1.0 - 1e-9, log_theta=math.log10(stationary.THIN_THETA) - 1e-9)
    @example(u0=12.0, frac=1.0 - 1e-9, log_theta=math.log10(stationary.THIN_THETA) + 1e-9)
    @example(u0=0.1, frac=1.0 - 1e-12, log_theta=math.log10(340.0))
    def test_domain(self, u0, frac, log_theta):
        eps = u0 * frac
        assert_matches_reference(u0, 10.0**log_theta / math.sqrt(u0 - eps), eps)

    def test_overflowing_tau_d_out_is_named(self):
        # at theta = 340 by the top |T|^2 is still a normal float; it is the
        # quotient tau_d_out = prob / j_out that overflows
        u0 = 0.1
        eps = u0 * (1.0 - 1e-12)
        barrier = BarrierSpec(u0, 340.0 / math.sqrt(u0 - eps))
        assert abs(stationary.solve(barrier, eps).T) ** 2 >= sys.float_info.min
        with pytest.raises(ValueError, match=r"tau_d_out is not finite at l = .*: the barrier "
                           r"probability .* over the transmitted current .* overflows "
                           r"at chi l = 340$"):
            compute_times(barrier, eps)

    def test_array_across_thin_theta(self):
        # an array of energies that puts theta = chi l on both sides of
        # THIN_THETA (theta = 0.5 at eps = 11.5), one amplitudes call each
        u0, l = 12.0, 0.5 / math.sqrt(0.5)
        eps = np.linspace(11.0, 11.99, 34)
        theta = np.sqrt(u0 - eps) * l
        assert theta.min() < stationary.THIN_THETA < theta.max()
        for e in eps.tolist():
            t, r, _, _ = stationary.amplitudes(u0, l, e)
            T_exit, R_ref, _, _ = high_precision_reference(u0, l, e)
            assert abs(t * cmath.exp(1j * math.sqrt(e) * l) - T_exit) <= 1e-14 * abs(T_exit)
            assert abs(r - R_ref) <= 1e-14 * abs(R_ref)

    @pytest.mark.parametrize("u0,frac,theta", [
        (0.198, 1.0 - 1e-12, 0.054),  # thin, just below the top of a low barrier
        *[(u0, frac, stationary.THIN_THETA * (1.0 + side))
          for u0 in (0.198, 12.0, 90.0) for frac in (0.5, 1.0 - 1e-6, 1.0 - 1e-12)
          for side in (-1e-9, 1e-9)],
    ])
    def test_either_side_of_thin_theta(self, u0, frac, theta):
        # Q(theta) of group_delay leaves its series at THIN_THETA: tau_g is
        # within 4e-15 of the 60-digit |tau_g|, and tau_0 + d(alpha)/d(eps)
        # within 2e-14 of max(|tau_g|, tau_0)
        eps = u0 * frac
        l = theta / math.sqrt(u0 - eps)
        barrier = BarrierSpec(u0, l)
        tau_g = high_precision_reference(u0, l, eps)[3]
        assert abs(group_delay(barrier, eps) - tau_g) <= 4e-15 * abs(tau_g)
        tau_0 = compute_times(barrier, eps).tau_0
        dalpha = phase_shift_derivative(barrier, eps)
        assert abs(tau_0 + dalpha - tau_g) <= 2e-14 * max(abs(tau_g), tau_0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(point=readme_domain())
    # alpha/eps + l/sqrt(eps), which adds and subtracts l/k, lost 2.6e-10 of
    # t_ph at this point
    @example(point=(5.025854483990585, 1142653.3143693043, 5.025854476784152))
    def test_phase_time_to_the_last_digits(self, point):
        # relative to |t_ph| (1 + u0/|2 eps - u0|), whose second factor is
        # the conditioning of g = (k^2 - chi^2)/(2 k chi) near eps = u0/2;
        # from chi l ~ 335 near the top the row refuses its tau_d_out instead
        u0, l, eps = point
        assume(2.0 * eps != u0)
        with mp.workdps(60):
            k, chi = mp.sqrt(eps), mp.sqrt(mp.mpf(u0) - eps)
            t_ph = float(mp.atan((k**2 - chi**2) / (2 * k * chi) * mp.tanh(chi * l)) / eps)
        scale = abs(t_ph) * (1.0 + u0 / abs(2.0 * eps - u0))
        report = row_or_named_refusal(BarrierSpec(u0, l), eps)
        if report is not None:
            assert abs(report.t_ph - t_ph) <= 4e-15 * scale

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(point=readme_domain())
    # on the plateau, where tau_0 >> tau_g, the sum l/(2k) + d(alpha)/d(eps)
    # loses 1.75e-13 of tau_g at this point
    @example(point=(1.1554179610848738, 55438392.77330454, 1.1554179610622153))
    def test_group_delay_to_the_last_digits(self, point):
        # relative to |tau_g| itself, not to max(|tau_g|, tau_0)
        u0, l, eps = point
        tau_g = high_precision_reference(u0, l, eps)[3]
        assert abs(group_delay(BarrierSpec(u0, l), eps) - tau_g) <= 4e-15 * abs(tau_g)
