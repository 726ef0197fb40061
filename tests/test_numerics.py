import math

import numpy as np
import pytest

from tunneltimes import numerics, stationary, times
from tunneltimes.model import BarrierSpec
from tunneltimes.numerics import (
    EdgeMaximumError,
    StencilError,
    differentiate,
    gauss_legendre_panels,
    refine_max,
    uniform_step,
)


class TestDifferentiate:
    def test_square(self):
        d, _ = differentiate(lambda e: e * e, 3.0)
        assert d == pytest.approx(6.0, abs=1e-10)

    def test_sqrt(self):
        d, _ = differentiate(math.sqrt, 4.0)
        assert d == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("f,df", [
        (np.sqrt, lambda e: 0.5 / np.sqrt(e)),
        (lambda e: e * e, lambda e: 2.0 * e),
        (lambda e: 1.0 / e, lambda e: -1.0 / e**2),
    ])
    def test_relative_accuracy_over_range(self, f, df):
        for eps in np.linspace(0.5, 50.0, 25):
            d, _ = differentiate(f, eps)
            assert d == pytest.approx(df(eps), rel=1e-9)

    def test_phase_derivative_matches_analytic(self):
        barrier = BarrierSpec(12.0, 1.0)
        d, _ = differentiate(lambda e: stationary.phase_shift(barrier, e), 11.8,
                             bounds=(0.0, 12.0), h0=0.04)
        assert d == pytest.approx(times.phase_shift_derivative(barrier, 11.8), abs=1e-8)

    def test_stencil_domain_violation(self):
        with pytest.raises(StencilError):
            differentiate(math.sqrt, 11.99, h0=0.05, bounds=(0.0, 12.0))


class TestContinuousPhase:
    def test_transmission_phase_along_width_sweep(self):
        u0, eps = 12.0, 11.8
        ls = np.linspace(0.0, 10.0, 201)
        samples = [complex(stationary.amplitudes(u0, l, eps)[0]) for l in ls]
        track = np.unwrap(np.angle(samples))
        closed = [stationary.phase_shift(BarrierSpec(u0, l), eps) for l in ls]
        assert np.max(np.abs(track - closed)) < 1e-10


class TestRefineMax:
    def test_exact_on_parabola(self):
        t = np.linspace(0.0, 4.0, 17)
        v = 3.0 - (t - 1.7321) ** 2
        t_star, v_star = refine_max(t, v)
        assert t_star == pytest.approx(1.7321, abs=1e-12)
        assert v_star == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_triangle(self):
        t = np.arange(7.0)
        v = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
        t_star, _ = refine_max(t, v)
        assert t_star == pytest.approx(3.0, abs=1e-14)

    def test_edge_maximum_raises(self):
        with pytest.raises(EdgeMaximumError):
            refine_max([0.0, 1.0, 2.0], [3.0, 2.0, 1.0])


class TestGrids:
    def test_panel_weights_integrate_polynomial_exactly(self):
        nodes, weights = gauss_legendre_panels(-1.0, 3.0, 7, order=6)
        assert np.sum(weights) == pytest.approx(4.0, rel=1e-14)
        # order-6 Gauss is exact through degree 11
        value = np.sum(weights * nodes**9)
        assert value == pytest.approx((3.0**10 - 1.0) / 10.0, rel=1e-13)


class TestUniformStep:
    @pytest.mark.parametrize("lo, hi, n", [(0.0, 480.0, 9601), (7.5, 7.7, 257)])
    def test_accepts_linspace(self, lo, hi, n):
        # the refinement window's rounded steps differ by ~1e-12 relative
        ts = np.linspace(lo, hi, n)
        assert uniform_step(ts) == pytest.approx((hi - lo) / (n - 1), rel=1e-14)

    def test_rejects_one_moved_point(self):
        ts = np.linspace(7.5, 7.7, 257)
        ts[100] += 1e-9
        assert uniform_step(ts) is None

    @pytest.mark.parametrize("ts", [[], [1.0], [0.0, 1.0]])
    def test_rejects_two_points_or_fewer(self, ts):
        assert uniform_step(ts) is None

    def test_rejects_non_increasing(self):
        assert uniform_step(np.linspace(1.0, 0.0, 11)) is None
        assert uniform_step(np.zeros(5)) is None
