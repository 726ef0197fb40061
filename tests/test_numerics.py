import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import StencilError, richardson_derivative
from tunneltimes import stationary, times
from tunneltimes import wavepacket as wp
from tunneltimes.model import BarrierSpec, PacketSpec
from tunneltimes.numerics import bisect_root, linspace
from tunneltimes.wavepacket import EnergyGridSpec


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
    """The nodes and weights of the packet's energy basis: n_panels equal
    panels of [0, u0], each with the 8-point Gauss-Legendre rule."""

    def test_panel_weights_integrate_polynomial_exactly(self):
        basis = wp._build_basis(PacketSpec(p=1.0, b=2.0), 3.0, EnergyGridSpec(7))
        nodes, weights = basis.nodes, basis.weights
        assert len(nodes) == 7 * EnergyGridSpec.order
        assert 0.0 < nodes[0] and nodes[-1] < 3.0 and np.all(np.diff(nodes) > 0.0)
        assert np.sum(weights) == pytest.approx(3.0, rel=1e-14, abs=0.0)
        # the 8-point rule is exact through degree 15 on every panel
        value = np.sum(weights * nodes**15)
        assert value == pytest.approx(3.0**16 / 16.0, rel=1e-13)

    @pytest.mark.parametrize("order", [EnergyGridSpec.order])
    def test_reference_rule_built_once_and_read_only(self, order):
        xs, ws = np.polynomial.legendre.leggauss(order)
        rule = wp._legendre_rule(order)
        assert wp._legendre_rule(order) is rule
        assert np.array_equal(rule[0], xs) and np.array_equal(rule[1], ws)
        for arr in rule:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # the basis on 64 panels of [0, 31.4] has the panels of a freshly
        # built rule, bit for bit
        basis = wp._build_basis(PacketSpec(p=3.6, b=2.0), 31.4, EnergyGridSpec(64))
        edges = np.linspace(0.0, 31.4, 65)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        assert np.array_equal(basis.nodes, (mid[:, None] + half[:, None] * xs).ravel())
        assert np.array_equal(basis.weights, (half[:, None] * ws).ravel())


# Shapes of root for the bisection tests, each with its root at x = 0.
ROOT_SHAPES = {
    "cube": lambda x: x**3,
    "fifth": lambda x: x**5,
    "seventh": lambda x: x**7,
    "tanh": math.tanh,
    "expm1": math.expm1,
    "gauss": lambda x: x * math.exp(-x * x),
}

# The smallest rtol the tests draw: four machine epsilons, brentq's floor.
MIN_RTOL = 4.0 * np.finfo(float).eps


class TestBrentRoot:
    """numerics.bisect_root; the class keeps the name it had when the root
    was Brent's, so that the ids of its zero-end and same-sign cases stay."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(sorted(ROOT_SHAPES)),
           root=st.floats(-2.0, 2.0),
           sign=st.sampled_from([1.0, -1.0]),
           left=st.floats(1e-3, 3.0),
           right=st.floats(1e-3, 3.0),
           log_xtol=st.floats(-15.0, -2.0),
           log_rtol=st.floats(math.log10(MIN_RTOL), -3.0))
    def test_within_tolerance_of_the_sign_change(self, shape, root, sign, left, right,
                                                 log_xtol, log_rtol):
        # f changes sign at x = root alone, also where a flat root makes
        # f underflow to a signed zero
        g = ROOT_SHAPES[shape]

        def f(x):
            return sign * g(x - root)
        a, b = root - left, root + right
        xtol, rtol = 10.0**log_xtol, max(10.0**log_rtol, MIN_RTOL)
        x = bisect_root(f, a, b, f(a), f(b), xtol, rtol)
        assert abs(x - root) <= xtol + rtol * abs(x)

    @pytest.mark.parametrize("f, a, b, steps", [(lambda x: x * x - 2.0, 1.0, 2.0, 52),
                                                (lambda x: x - math.pi, 0.0, 1e300, 1047)])
    def test_zero_tolerances_end_on_adjacent_floats(self, f, a, b, steps):
        # the bracket halves until no float lies inside it, however many
        # steps that takes: far more than brentq's 100 from [0, 1e300]
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        x = bisect_root(counted, a, b, f(a), f(b), 0.0, 0.0)
        below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
        assert math.copysign(1.0, f(below)) < 0.0 < math.copysign(1.0, f(above))
        assert len(calls) == steps

    @pytest.mark.parametrize("fa, fb, end", [(0.0, 1.0, 1.5), (-0.0, 1.0, 1.5),
                                             (-1.0, 0.0, 2.5), (0.0, 0.0, 1.5)])
    def test_zero_end_is_returned_as_it_is(self, fa, fb, end):
        # the caller's end values decide, and f is never called
        def f(x):
            raise AssertionError("f called")
        assert bisect_root(f, 1.5, 2.5, fa, fb, 1e-13, 1e-14) == end

    @pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -3.0), (1e-300, math.inf)])
    def test_same_sign_ends_raise(self, fa, fb):
        with pytest.raises(ValueError, match="different signs"):
            bisect_root(math.tanh, 1.0, 2.0, fa, fb, 1e-13, 1e-14)


# Sweep ends: signed zeros, and magnitudes from 1e-300 to 1e300 of either sign.
SWEEP_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 299),
              st.sampled_from([1.0, -1.0])))


class TestLinspace:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(a=SWEEP_ENDS, b=SWEEP_ENDS, n=st.integers(1, 500), equal=st.booleans())
    def test_equals_numpy_bit_for_bit(self, a, b, n, equal):
        # ends in either order or equal: every point as numpy.linspace's,
        # signed zeros included
        b = a if equal else b
        expected = [float(x).hex() for x in np.linspace(a, b, n)]
        assert [x.hex() for x in linspace(a, b, n)] == expected

    @pytest.mark.parametrize("a, b, n", [
        (-0.0, 2.0, 1), (-0.0, -2.0, 1), (-0.0, 2.0, 3), (-0.0, -0.0, 4), (0.0, -0.0, 4),
        (5e-324, 1.5e-323, 500),  # the step underflows to 0
    ])
    def test_signed_zero_and_underflow_cases(self, a, b, n):
        # n = 1 gives a + 0 (b - a), so -0 becomes +0 unless b < a
        points = linspace(a, b, n)
        assert all(type(x) is float for x in points)
        assert [x.hex() for x in points] == [float(x).hex() for x in np.linspace(a, b, n)]
