import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from tunneltimes import stationary, times
from tunneltimes.model import BarrierSpec
from tunneltimes.times import (
    compute_times,
    delay_crossing,
    dwell_time_incident,
    dwell_time_transmitted,
    free_group_time,
    free_phase_time,
    group_delay,
    hartman_limit,
    phase_shift_derivative,
    phase_time,
)

U0 = 12.0
EPS = 11.8
CHI = math.sqrt(U0 - EPS)


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
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            def alpha(e):
                k, chi = mp.sqrt(e), mp.sqrt(U0 - e)
                return -k * l + mp.atan((k**2 - chi**2) / (2 * k * chi)
                                        * mp.tanh(chi * l))
            eps = mp.mpf(EPS)
            reference = l / (2 * mp.sqrt(eps)) + mp.diff(alpha, eps)
            assert abs(group_delay(BarrierSpec(U0, l), EPS) - reference) <= 1e-12

    def test_reaches_opaque_asymptote(self):
        assert group_delay(BarrierSpec(U0, 25.0), EPS) == pytest.approx(
            hartman_limit(U0, EPS), abs=1e-6)

    def test_thin_barrier_expansion(self):
        l = 0.005
        expansion = l * (2.0 * EPS + U0) / (4.0 * EPS**1.5)
        assert group_delay(BarrierSpec(U0, l), EPS) == pytest.approx(expansion, rel=0.01)

    def test_slower_than_free_for_thin_barriers(self):
        for l in np.linspace(0.005, 0.1, 12):
            barrier = BarrierSpec(U0, float(l))
            assert group_delay(barrier, EPS) > free_group_time(EPS, float(l))

    def test_cross_check_agreement_over_standard_grid(self):
        # verify=True raises CrossCheckError if analytic and finite-difference
        # derivatives disagree beyond 1e-8
        for l in (0.1, 1.0, 10.0):
            barrier = BarrierSpec(U0, l)
            for eps in np.linspace(0.05 * U0, 0.999 * U0, 40):
                group_delay(barrier, float(eps), verify=True)

    def test_stable_at_extreme_energies(self):
        barrier = BarrierSpec(U0, 2.0)
        for eps in (U0 * (1.0 - 1e-9), U0 * 1e-6):
            value = group_delay(barrier, eps, verify=False)
            assert math.isfinite(value)

    def test_unverifiable_edge_warns(self):
        barrier = BarrierSpec(U0, 2.0)
        with pytest.warns(RuntimeWarning, match="cross-check skipped"):
            group_delay(barrier, U0 * (1.0 - 1e-10), verify=True)

    @pytest.mark.parametrize("theta,expected", [
        (0.01, -3.3332000053966067e-7),    # series branch
        (0.049, -3.917870653373709e-5),    # series branch, near switchover
        (0.051, -4.4171045013894131e-5),   # direct branch, near switchover
        (0.2, -0.0026246797750959993),     # direct branch
    ])
    def test_tanh_series_branch_accuracy(self, theta, expected):
        # frozen 40-digit values; both branches of the stabilized helper must
        # agree with them across the chi*l = 0.05 switchover
        assert times._tanh_minus_theta(theta) == pytest.approx(expected, rel=1e-11)


class TestFreeTimes:
    def test_group(self):
        assert free_group_time(4.0, 8.0) == 2.0
        assert free_group_time(EPS, 10.0) == pytest.approx(1.455557, abs=1e-6)
        assert free_group_time(EPS, 0.0) == 0.0

    def test_phase(self):
        assert free_phase_time(4.0, 8.0) == 4.0

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            free_group_time(0.0, 1.0)
        with pytest.raises(ValueError):
            free_phase_time(-2.0, 1.0)


class TestPhaseTime:
    def test_exact_zero_at_half_height(self):
        for l in (0.5, 5.0, 50.0):
            assert abs(phase_time(BarrierSpec(U0, l), 6.0)) < 1e-12

    def test_zero_width(self):
        assert phase_time(BarrierSpec(U0, 0.0), EPS) == 0.0

    def test_opaque_value(self):
        # t_ph -> atan((k^2-chi^2)/(2 k chi))/eps; frozen oracle value
        assert phase_time(BarrierSpec(U0, 30.0), EPS) == pytest.approx(
            0.111175829219, abs=1e-10)

    def test_saturation_under_doubling(self):
        L = 12.5 / CHI  # chi L >= 12
        for f in (phase_time, group_delay):
            a = f(BarrierSpec(U0, L), EPS)
            b = f(BarrierSpec(U0, 2.0 * L), EPS)
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
            assert ratio == pytest.approx(1.0 / abs(sol.T) ** 2, rel=1e-12)

    @pytest.mark.parametrize("l", [1.0, 3.0])
    def test_against_quadrature(self, l):
        barrier = BarrierSpec(U0, l)
        sol = stationary.solve(barrier, EPS)
        prob, _ = quad(lambda x: abs(stationary.wavefunction_at(sol, x)) ** 2,
                       0.0, l, epsabs=1e-14, limit=200)
        expected = prob / stationary.incident_current(sol)
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
        assert hartman_limit(U0, EPS) == pytest.approx(0.650944554904, abs=1e-11)
        assert hartman_limit(2.0, 1.0) == 1.0

    def test_symmetry(self):
        assert hartman_limit(U0, 3.1) == pytest.approx(
            hartman_limit(U0, U0 - 3.1), rel=1e-12)

    def test_divergence_reported(self):
        with pytest.raises(ValueError, match="diverges"):
            hartman_limit(U0, U0)
        with pytest.raises(ValueError):
            hartman_limit(U0, 12.5)


class TestReport:
    def test_zero_width_row(self):
        report = compute_times(BarrierSpec(U0, 0.0), EPS)
        assert (report.tau_g, report.tau_0, report.t_ph, report.t_free,
                report.tau_d_in, report.tau_d_out) == (0, 0, 0, 0, 0, 0)
        assert report.hartman_limit == pytest.approx(0.650944554904, abs=1e-11)

    def test_all_fields_finite_and_consistent(self):
        report = compute_times(BarrierSpec(U0, 3.0), EPS)
        assert report.tau_0 == pytest.approx(3.0 / (2.0 * math.sqrt(EPS)), rel=1e-14)
        assert report.t_free == pytest.approx(3.0 / math.sqrt(EPS), rel=1e-14)
        for field in ("tau_g", "t_ph", "tau_d_in", "tau_d_out", "hartman_limit"):
            assert math.isfinite(getattr(report, field))


class TestOneStatePerRow:
    """compute_times builds one scattering state and reads every time off it."""

    GRID = [(e, l) for e in (0.05 * U0, 0.5 * U0, EPS, U0 * (1.0 - 1e-9))
            for l in (0.0, 0.1, 1.0, 10.0, 40.0)]

    @pytest.mark.parametrize("eps,l", GRID)
    def test_fields_equal_standalone_definitions(self, eps, l):
        # eps = u0 (1 - 1e-9) leaves no stencil, so group_delay skips its
        # cross-check there; the other energies run it
        barrier = BarrierSpec(U0, l)
        report = compute_times(barrier, eps)
        assert report.tau_g == group_delay(barrier, eps)
        assert report.tau_0 == free_group_time(eps, l)
        assert report.t_ph == phase_time(barrier, eps)
        assert report.t_free == free_phase_time(eps, l)
        assert report.tau_d_in == dwell_time_incident(barrier, eps)
        assert report.tau_d_out == dwell_time_transmitted(barrier, eps)
        assert report.hartman_limit == hartman_limit(U0, eps)

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

    def test_one_solve_per_row(self, monkeypatch):
        calls = {"solve": 0, "barrier_probability": 0}

        def counted(name):
            inner = getattr(stationary, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(stationary, name, counted(name))
        compute_times(BarrierSpec(U0, 0.0), EPS)
        assert calls == {"solve": 0, "barrier_probability": 0}
        for l in (0.1, 3.0, 40.0):
            calls.update(solve=0, barrier_probability=0)
            compute_times(BarrierSpec(U0, l), EPS)
            assert calls == {"solve": 1, "barrier_probability": 1}

    def test_float_in_float_out(self):
        barrier = BarrierSpec(U0, 3.0)
        assert type(phase_shift_derivative(barrier, EPS)) is float
        assert type(times._tanh_minus_theta(0.01)) is float
        report = compute_times(barrier, EPS)
        for field in dataclasses.fields(report):
            assert type(getattr(report, field.name)) is float, field.name

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
    def test_array_in_array_out(self, shape):
        barrier = BarrierSpec(U0, 3.0)
        eps = np.linspace(0.1 * U0, 0.99 * U0, math.prod(shape)).reshape(shape)
        out = phase_shift_derivative(barrier, eps)
        assert isinstance(out, np.ndarray) and out.shape == shape
        # vectorised tanh and sqrt may round the last bit differently
        expected = [phase_shift_derivative(barrier, float(e)) for e in eps.ravel()]
        np.testing.assert_allclose(out.ravel(), expected, rtol=1e-13, atol=0.0)


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
