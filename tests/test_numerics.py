import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import StencilError, richardson_derivative
from tunneltimes import numerics, stationary, times
from tunneltimes.model import BarrierSpec
from tunneltimes.numerics import brent_root, gauss_legendre_panels, uniform_step


class TestDifferentiate:
    # the Richardson stencil is the test suite's finite-difference oracle
    # (criterion 10 and the group-delay cross-check), so it is tested here
    def test_square(self):
        d = richardson_derivative(lambda e: e * e, 3.0)
        assert d == pytest.approx(6.0, abs=1e-10)

    def test_sqrt(self):
        d = richardson_derivative(math.sqrt, 4.0)
        assert d == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("f,df", [
        (np.sqrt, lambda e: 0.5 / np.sqrt(e)),
        (lambda e: e * e, lambda e: 2.0 * e),
        (lambda e: 1.0 / e, lambda e: -1.0 / e**2),
    ])
    def test_relative_accuracy_over_range(self, f, df):
        for eps in np.linspace(0.5, 50.0, 25):
            d = richardson_derivative(f, eps)
            assert d == pytest.approx(df(eps), rel=1e-9, abs=0.0)

    def test_phase_derivative_matches_analytic(self):
        barrier = BarrierSpec(12.0, 1.0)
        d = richardson_derivative(lambda e: stationary.phase_shift(barrier, e), 11.8,
                                  h0=0.04, bounds=(0.0, 12.0))
        assert d == pytest.approx(times.phase_shift_derivative(barrier, 11.8), abs=1e-8)

    def test_stencil_domain_violation(self):
        with pytest.raises(StencilError):
            richardson_derivative(math.sqrt, 11.99, h0=0.05, bounds=(0.0, 12.0))


class TestContinuousPhase:
    def test_transmission_phase_along_width_sweep(self):
        u0, eps = 12.0, 11.8
        ls = np.linspace(0.0, 10.0, 201)
        samples = [complex(stationary.amplitudes(u0, l, eps)[0]) for l in ls]
        track = np.unwrap(np.angle(samples))
        closed = [stationary.phase_shift(BarrierSpec(u0, l), eps) for l in ls]
        assert np.max(np.abs(track - closed)) < 1e-10


class TestGrids:
    def test_panel_weights_integrate_polynomial_exactly(self):
        nodes, weights = gauss_legendre_panels(-1.0, 3.0, 7, order=6)
        assert np.sum(weights) == pytest.approx(4.0, rel=1e-14, abs=0.0)
        # order-6 Gauss is exact through degree 11
        value = np.sum(weights * nodes**9)
        assert value == pytest.approx((3.0**10 - 1.0) / 10.0, rel=1e-13)

    @pytest.mark.parametrize("order", [2, 8])
    def test_reference_rule_built_once_and_read_only(self, order):
        xs, ws = np.polynomial.legendre.leggauss(order)
        nodes, weights = gauss_legendre_panels(0.0, 31.4, 64, order)
        rule = numerics._legendre_rule(order)
        assert numerics._legendre_rule(order) is rule
        assert np.array_equal(rule[0], xs) and np.array_equal(rule[1], ws)
        for arr in rule:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # the panels are those of a freshly built rule, bit for bit, and the
        # caller's to modify
        edges = np.linspace(0.0, 31.4, 65)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        assert np.array_equal(nodes, (mid[:, None] + half[:, None] * xs).ravel())
        assert np.array_equal(weights, (half[:, None] * ws).ravel())
        nodes[0] = -1.0
        assert numerics._legendre_rule(order)[0][0] == xs[0]


class TestUniformStep:
    @pytest.mark.parametrize("lo, hi, n", [(0.0, 480.0, 9601), (7.5, 7.7, 257)])
    def test_accepts_linspace(self, lo, hi, n):
        # a short grid away from t = 0, whose rounded steps differ by ~1e-12
        # relative: only the sample positions are compared
        ts = np.linspace(lo, hi, n)
        assert uniform_step(ts) == pytest.approx((hi - lo) / (n - 1), rel=1e-14, abs=0.0)

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


# Shapes of root for the Brent tests, each with its root at x = 0.
ROOT_SHAPES = {
    "cube": lambda x: x**3,
    "fifth": lambda x: x**5,
    "seventh": lambda x: x**7,
    "tanh": math.tanh,
    "expm1": math.expm1,
    "gauss": lambda x: x * math.exp(-x * x),
}

# brentq refuses rtol below four machine epsilons.
MIN_RTOL = 4.0 * np.finfo(float).eps


def root_or_error(solver, *args, **kwargs):
    """The root solver returns, or RuntimeError when it does not converge."""
    try:
        return solver(*args, **kwargs)
    except RuntimeError:
        return RuntimeError


class TestBrentRoot:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(sorted(ROOT_SHAPES)),
           root=st.floats(-2.0, 2.0),
           sign=st.sampled_from([1.0, -1.0]),
           left=st.floats(1e-3, 3.0),
           right=st.floats(1e-3, 3.0),
           log_xtol=st.floats(-15.0, -2.0),
           log_rtol=st.floats(math.log10(MIN_RTOL), -3.0))
    def test_equals_brentq(self, shape, root, sign, left, right, log_xtol, log_rtol):
        # the port keeps brentq's operations in their order, so the two
        # agree bit for bit, not to a tolerance; a flat root near x = 0 may
        # take both past the iteration limit, which both report alike
        g = ROOT_SHAPES[shape]

        def f(x):
            return sign * g(x - root)
        a, b = root - left, root + right
        xtol, rtol = 10.0**log_xtol, max(10.0**log_rtol, MIN_RTOL)
        assert root_or_error(brent_root, f, a, b, f(a), f(b), xtol, rtol) == (
            root_or_error(brentq, f, a, b, xtol=xtol, rtol=rtol))

    @pytest.mark.parametrize("fa, fb, end", [(0.0, 1.0, 1.5), (-0.0, 1.0, 1.5),
                                             (-1.0, 0.0, 2.5), (0.0, 0.0, 1.5)])
    def test_zero_end_is_returned_as_it_is(self, fa, fb, end):
        # the caller's end values decide, and f is never called
        def f(x):
            raise AssertionError("f called")
        assert brent_root(f, 1.5, 2.5, fa, fb, 1e-13, 1e-14) == end

    @pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -3.0), (1e-300, math.inf)])
    def test_same_sign_ends_raise(self, fa, fb):
        with pytest.raises(ValueError, match="different signs"):
            brent_root(math.tanh, 1.0, 2.0, fa, fb, 1e-13, 1e-14)

    def test_no_convergence_raises(self, monkeypatch):
        f = ROOT_SHAPES["seventh"]
        with pytest.raises(RuntimeError):
            brentq(f, -1.0, 3.0, xtol=1e-13, rtol=1e-14, maxiter=1)
        monkeypatch.setattr(numerics, "BRENT_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="did not converge in 1 iterations"):
            brent_root(f, -1.0, 3.0, f(-1.0), f(3.0), 1e-13, 1e-14)
