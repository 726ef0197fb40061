import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import (
    array_amplitudes,
    direct_arrival_root,
    direct_synthesis,
    doubling_scan_arrival,
    initial_wavefunction,
    mp_overlap,
    spatial_profile,
    synthesize_at,
    wavefunction_at,
    weighted_mean_time,
)
from tunneltimes import stationary
from tunneltimes import wavepacket as wp
from tunneltimes.model import BarrierSpec, PacketSpec
from tunneltimes.wavepacket import (
    EnergyGridSpec,
    SpectralAmplitude,
    SynthesisResolutionError,
    TailMassError,
    WindowError,
    arrival_time_of_max,
    endpoint_amplitude,
    envelope_transform,
    free_arrival_time,
    mean_crossing_time,
    scan_arrival,
    spectral_amplitude,
    synthesize,
    synthesize_amplitude,
)

PACKET = PacketSpec(p=3.6, b=2.0)
U0 = 31.4
BARRIER4 = BarrierSpec(U0, 4.0)
FREE = BarrierSpec(U0, 0.0)  # the free packet: a barrier of zero width
# a slow packet whose energy grid overestimates the captured weight
SLOW_PACKET = (PacketSpec(p=1.088, b=1.971), BarrierSpec(24.399, 9.785))


def quad_complex(f, a, b):
    re, _ = quad(lambda x: f(x).real, a, b, epsabs=1e-13, limit=300)
    im, _ = quad(lambda x: f(x).imag, a, b, epsabs=1e-13, limit=300)
    return re + 1j * im


class TestEnvelopeTransform:
    def test_special_points(self):
        b = 2.0
        assert envelope_transform(0.0, b) == pytest.approx(math.pi * b, abs=1e-12)
        assert envelope_transform(1.0, b) == pytest.approx(-math.pi * b / 2.0, abs=1e-12)
        assert envelope_transform(-1.0, b) == pytest.approx(-math.pi * b / 2.0, abs=1e-12)

    @pytest.mark.parametrize("q0", [0.0, 1.0, -1.0])
    def test_limits_match_generic_expression(self, q0):
        # approach each removable point from outside the special-case branch
        b = 2.0
        target = envelope_transform(q0, b)
        for dq in (2e-2, 1e-2, 8e-3):
            nearby = envelope_transform(q0 + dq, b)
            # linear approach: I is smooth, slope O(b^2)
            assert abs(nearby - target) < 30.0 * dq
        assert abs(envelope_transform(q0 + 1e-10, b) - target) < 1e-8

    def test_against_quadrature(self):
        rng = np.random.default_rng(7)
        b = 2.0
        for q in rng.uniform(-12.0, 12.0, 20):
            exact = quad_complex(
                lambda x: (1.0 - np.cos(2.0 * x / b)) * np.exp(1j * q * x),
                -math.pi * b, 0.0)
            assert abs(envelope_transform(float(q), b) - exact) < 1e-10


def envelope_all_branches(q, b):
    """The closed form evaluated in every branch on every entry, then selected."""
    q = np.asarray(q, dtype=float)

    def h(theta):
        coeffs = np.array(
            [1j, 0.5, -1j / 6.0, -1.0 / 24.0, 1j / 120.0, 1.0 / 720.0, -1j / 5040.0])
        series = np.zeros(theta.shape, dtype=complex)
        for c in coeffs[::-1]:
            series = series * theta + c
        safe = np.where(np.abs(theta) < 0.05, 1.0, theta)
        return np.where(np.abs(theta) < 0.05, series, (1.0 - np.exp(-1j * safe)) / safe)

    c = 2.0 / b
    pb = math.pi * b
    dm, dp = q - c, q + c
    with np.errstate(divide="ignore", invalid="ignore"):
        generic = 1j * pb * c * c * h(q * pb) / (dm * dp)
        near_p = 1j * pb * c * c * h(dm * pb) / (q * dp)
        near_m = 1j * pb * c * c * h(dp * pb) / (q * dm)
    out = np.where(np.abs(dm) * pb < 0.05, near_p, generic)
    return np.where(np.abs(dp) * pb < 0.05, near_m, out)


class TestEnvelopeBranches:
    def test_matches_all_branch_evaluation(self):
        # crosses q = 0 and q = +-c with steps fine enough to land in every
        # branch, including the small-theta series of the generic form
        b = 2.0
        q = np.concatenate([np.linspace(-1.3, 1.3, 2601),
                            np.linspace(-1.02, -0.98, 101),
                            np.linspace(-0.02, 0.02, 101),
                            np.linspace(0.98, 1.02, 101)])
        ref = envelope_all_branches(q, b)
        got = envelope_transform(q, b)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-15

    def test_array_of_q_shape(self):
        assert envelope_transform(0.3, 2.0).shape == ()
        assert envelope_transform(1, 2.0).dtype == complex
        assert envelope_transform(np.array([0.3]), 2.0).shape == (1,)
        assert envelope_transform([0.3, 1.0], 2.0).shape == (2,)
        assert envelope_transform(np.zeros((2, 3)), 2.0).shape == (2, 3)

    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    def test_float_matches_one_element_array(self, b):
        # q = 0 and q = +-c, and either side of |theta| = 0.05, where the
        # series of (1 - e^{-i theta}) / theta hands over to the direct form,
        # in the generic branch (theta = q pi b) and the two near-c branches
        # (theta = (q -+ c) pi b): a float picks its branch by the same mask
        # as the entries of an array
        c, pb = 2.0 / b, math.pi * b
        offsets = [s * f * 0.05 / pb for s in (-1.0, 1.0) for f in (0.3, 0.999, 1.001, 3.0)]
        qs = [q0 + dq for q0 in (0.0, c, -c) for dq in [0.0] + offsets]
        qs += list(np.random.default_rng(11).uniform(-12.0, 12.0, 50))
        array = envelope_transform(np.array(qs), b)
        for q, entry in zip(qs, array):
            assert envelope_transform(float(q), b) == entry, q
        assert envelope_transform(np.float64(c), b) == envelope_transform(float(c), b)


class TestOverlap:
    """The overlaps I(p - k) + conj(R) I(p + k) against mpmath, by
    envelope_transform and by the energy basis's one-exponential pair.

    The points sit on the removable points q = 0, c, -c of I(p - k) and
    I(p + k) (exactly, at p = c), on both sides of the branch switch
    |q - s| pi b = 0.05 and well inside it, where the generic form loses
    digits, and near the zeros q pi b = 2 pi n of I.  k < 0 lies outside the
    energy grid but brings p + k to 0 and -c.
    """

    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("p", ["c", 3.6])
    def test_against_mpmath(self, b, p):
        c, pb = 2.0 / b, math.pi * b
        p = c if p == "c" else p
        packet = PacketSpec(p=p, b=b)
        thetas = [0.0] + [s * t for s in (-1.0, 1.0)
                          for t in (1e-9, 1e-6, 1e-3, 0.05 * (1 - 1e-3),
                                    0.05 * (1 + 1e-3), 0.2)]
        ks = [sign * (p - s) - sign * theta / pb
              for s in (0.0, c, -c) for sign in (1.0, -1.0) for theta in thetas]
        zeros = [m * n * c * (1.0 + d) for m in (-1.0, 1.0) for n in (2, 3, 5)
                 for d in (0.0, -1e-8, 1e-8)]
        ks += [p - q for q in zeros] + [q - p for q in zeros]
        k = np.unique(ks)
        if p == c:
            for s in (0.0, c, -c):
                assert s in p - k and s in p + k
        R = np.random.default_rng(5).uniform(-0.7, 0.7, (len(k), 2)) @ [1.0, 1j]
        got = envelope_transform(p - k, b) + np.conj(R) * envelope_transform(p + k, b)
        ref = np.array([mp_overlap(packet, kk, rr) for kk, rr in zip(k, R)])
        I_minus, I_plus = wp._envelope_pair(packet, k)
        pair = I_minus + np.conj(R) * I_plus
        # just inside the branch switch, |theta| < 0.05, the seven-term
        # series of h(theta) = (1 - e^{-i theta}) / theta is off by about its
        # first omitted term, theta^7 / 8! = 1.9e-14 at theta = 0.05, in units
        # of I(0) = pi b (1.7e-14 seen here); with the generic form inside
        # the switch the error at theta = 1e-3 about q = +-c would be ~2e-13
        err = np.abs(got - ref) / (pb * (1.0 + np.abs(R)))
        assert np.max(err) <= 2e-14, k[np.argmax(err)]
        # the pair rounds the phases p pi b and k pi b apart, so toward a
        # removable point its generic form's error grows like
        # ulp(p pi b) / theta, to ~2e-14 of I(0) = pi b at the switch
        err = np.abs(pair - ref) / (pb * (1.0 + np.abs(R)))
        assert np.max(err) <= 1e-13, k[np.argmax(err)]

    def test_basis_takes_the_closed_form_near_removable_points(self):
        # the basis's overlaps, formed in blocks of _NODE_BLOCK nodes, are
        # envelope_transform's bit for bit within the series switch of
        # q = 0, c or -c, and elsewhere differ from them by the pair's phase
        # rounding only (up to 2.3e-14 of pi b here)
        grid = EnergyGridSpec.for_horizon(U0, 120.0)
        assert grid.n_panels * grid.order > wp._NODE_BLOCK
        basis = spectral_amplitude(PACKET, BARRIER4, grid).basis
        c, pb = 2.0 / PACKET.b, math.pi * PACKET.b
        for q, got in ((PACKET.p - basis.k, basis.I_minus),
                       (PACKET.p + basis.k, basis.I_plus)):
            ref = envelope_transform(q, PACKET.b)
            near = np.abs(np.subtract.outer(q, [0.0, c, -c])).min(axis=-1) * pb < 0.05
            assert np.array_equal(got[near], ref[near])
            assert np.max(np.abs(got - ref)) <= 1e-13 * pb
        # p - k crosses all three points on this grid
        assert np.sum(np.abs(PACKET.p - basis.k) * pb < 0.05) > 0
        for s in (c, -c):
            assert np.sum(np.abs(PACKET.p - basis.k - s) * pb < 0.05) > 0


class TestEnergyGrid:
    """for_horizon builds the widest panels _check_resolution accepts."""

    def test_half_period_at_the_horizon(self):
        grid = EnergyGridSpec.for_horizon(U0, 480.0)
        assert grid.n_panels == math.ceil(U0 * 480.0 / math.pi) == 4798
        assert EnergyGridSpec.for_horizon(U0, 0.5) == EnergyGridSpec(64)

    def test_rounded_ceiling_gets_one_more_panel(self):
        # ceil(u0 t / pi) = 6195 panels leave u0 / 6195 one ulp above pi / t
        u0, t = 20.273090092696634, 960.0
        assert u0 / math.ceil(u0 / (math.pi / t)) > math.pi / t
        famp = spectral_amplitude(PACKET, BarrierSpec(u0, 0.0),
                                  EnergyGridSpec.for_horizon(u0, t))
        assert famp.layout.n_panels == 6196
        assert famp.max_panel_width <= math.pi / t
        wp._check_resolution(famp, t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(u0=st.floats(0.1, 100.0), periods=st.integers(65, 40000),
           ulps=st.integers(-4, 4))
    @example(u0=20.273090092696634, periods=6195, ulps=0)  # t = 960
    def test_panels_meet_the_resolution_check(self, u0, periods, ulps):
        # horizons within a few ulp of u0 t / pi = periods, where the
        # rounded ceiling can fall one short
        t = math.pi * periods / u0
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
        n_panels = EnergyGridSpec.for_horizon(u0, t).n_panels
        assert u0 / n_panels <= math.pi / t
        assert n_panels <= math.ceil(u0 * t / math.pi) + 1

    def test_oversize_grid_rejected(self):
        # 31.4 * 5e4 / pi panels of 8 nodes stay below 2^22; twice as many
        # do not, and the refusal comes before any grid is allocated
        assert EnergyGridSpec.for_horizon(U0, 5e4).n_panels * 8 <= wp.MAX_GRID_NODES
        with pytest.raises(ValueError, match=r"t_max = 100000 needs 7,99.* nodes"):
            EnergyGridSpec.for_horizon(U0, 1e5)
        with pytest.raises(ValueError, match="nodes"):
            free_arrival_time(PACKET, U0, t_max=1e9)
        with pytest.raises(ValueError, match="nodes"):
            scan_arrival(PACKET, BARRIER4, t_max=1e9)

    def test_panel_count_must_be_finite(self):
        # 1e308 / (pi / 30) overflows to inf, whose ceiling is no count
        with pytest.raises(ValueError, match="not finite"):
            EnergyGridSpec.for_horizon(1e308, 30.0)


class TestSpectralAmplitude:
    def test_closed_form_against_quadrature(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        rng = np.random.default_rng(19)
        idx = rng.choice(len(famp.grid), size=20, replace=False)
        worst = 0.0
        for i in idx:
            eps = float(famp.grid[i])
            sol = stationary.solve(BARRIER4, eps)
            overlap = quad_complex(
                lambda x: np.conj(wavefunction_at(sol, x))
                * initial_wavefunction(PACKET, x),
                -math.pi * PACKET.b, 0.0)
            worst = max(worst, abs(famp.values[i] - overlap))
        assert worst < 1e-9

    def test_captured_weight_fig4_parameters(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 30.0))
        assert famp.captured_weight >= 0.95
        assert famp.captured_weight == pytest.approx(0.999744, abs=1e-5)

    def test_captured_weight_monotone_in_truncation(self):
        grid = EnergyGridSpec(400)
        free_caps = [spectral_amplitude(PACKET, BarrierSpec(e, 0.0), grid).captured_weight
                     for e in (14.0, 20.0, 31.4, 50.0)]
        assert all(b >= a for a, b in zip(free_caps, free_caps[1:]))
        barrier_caps = [
            spectral_amplitude(PACKET, BarrierSpec(u0, 4.0), grid).captured_weight
            for u0 in (14.0, 20.0, 31.4, 48.0)]
        assert all(b >= a for a, b in zip(barrier_caps, barrier_caps[1:]))

    def test_requires_sub_barrier_momentum(self):
        with pytest.raises(ValueError):
            spectral_amplitude(PACKET, BarrierSpec(9.0, 1.0), EnergyGridSpec(64))

    def test_weight_above_the_norm_is_a_resolution_error(self):
        # a slow packet: the half-period grid of the window 30 captures more
        # than the norm, while 4 and 16 times its panels converge to 0.999992
        packet, barrier = SLOW_PACKET
        grid = EnergyGridSpec.for_horizon(barrier.u0, 30.0)
        with pytest.raises(SynthesisResolutionError,
                           match=r"captured weight 1\.00001.*n_panels=233\)"):
            spectral_amplitude(packet, barrier, grid)
        for m in (4, 16):
            fine = spectral_amplitude(packet, barrier, EnergyGridSpec(m * grid.n_panels))
            assert fine.captured_weight == pytest.approx(0.999992, abs=3e-6)

    def test_grid_must_match_panel_layout(self):
        # node j of panel p sits at grid[p * order + j], strictly inside
        # panel p of n_panels equal panels of (0, u0)
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        assert famp.layout == EnergyGridSpec(64)
        panels = famp.grid.reshape(64, famp.layout.order)
        edges = np.linspace(0.0, U0, 65)
        assert np.all(panels > edges[:-1, None]) and np.all(panels < edges[1:, None])

    def test_grid_beyond_truncation_rejected(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        with pytest.raises(ValueError, match="inside"):
            dataclasses.replace(famp, grid=famp.grid + 1.0)

    def test_zero_width_is_the_free_basis(self):
        # at l = 0, X = T e^{ikl} = 1 and R = 0 exactly, so f is the
        # plane-wave overlap N A I(p - k), here with I summed by mpmath at
        # every node
        famp = spectral_amplitude(PACKET, FREE, EnergyGridSpec.for_horizon(U0, 60.0))
        assert np.all(famp.X == 1.0) and np.all(array_amplitudes(U0, 0.0, famp.grid)[1] == 0.0)
        overlap = np.array([mp_overlap(PACKET, k) for k in np.sqrt(famp.grid)])
        free = stationary.normalization(famp.grid, np) * PACKET.amplitude * overlap
        assert np.max(np.abs(famp.values - free)) <= 1e-13 * np.max(np.abs(free))
        assert famp.eps_max == U0


@pytest.fixture(scope="module")
def opaque_famp():
    """The l = 12 amplitude on the horizon-480 grid (76,768 nodes)."""
    return spectral_amplitude(PACKET, BarrierSpec(U0, 12.0),
                              EnergyGridSpec.for_horizon(U0, 480.0))


class TestSynthesize:
    def test_zero_coefficients_give_zero_series(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(128))
        silent = dataclasses.replace(famp, values=np.zeros_like(famp.values),
                                     captured_weight=0.0)
        density = synthesize(silent, 4.0, np.linspace(0.0, 10.0, 101))
        assert np.all(density == 0.0)

    def test_self_convergence_under_node_doubling(self):
        g1 = EnergyGridSpec.for_horizon(U0, 30.0)
        g2 = EnergyGridSpec(2 * g1.n_panels)
        f1 = spectral_amplitude(PACKET, BARRIER4, g1)
        f2 = spectral_amplitude(PACKET, BARRIER4, g2)
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(0.1, 25.0, 30))
        d1 = np.abs(direct_synthesis(f1, 4.0, ts)) ** 2
        d2 = np.abs(direct_synthesis(f2, 4.0, ts)) ** 2
        assert np.max(np.abs(d1 - d2) / d2) < 1e-6

    def test_resolution_guard(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        with pytest.raises(SynthesisResolutionError, match="t ="):
            synthesize(famp, 4.0, np.linspace(0.0, 500.0, 64))

    def test_global_phase_invariance(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 20.0))
        rotated = dataclasses.replace(famp, values=famp.values * np.exp(1.23j))
        ts = np.linspace(0.0, 15.0, 301)
        d1 = synthesize(famp, 4.0, ts)
        d2 = synthesize(rotated, 4.0, ts)
        assert np.max(np.abs(d1 - d2) / np.maximum(d1, 1e-300)) < 1e-12

    def test_uniform_and_generic_paths_agree(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 20.0))
        ts = np.linspace(0.0, 10.0, 41)
        fast = synthesize_amplitude(famp, 4.0, ts)
        slow = direct_synthesis(famp, 4.0, ts)
        assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(slow))

    @pytest.mark.parametrize("ts", [[0.0, 1.0, 2.5], [0.0, 1.0], np.linspace(1.0, 0.0, 5)],
                             ids=["uneven", "two-points", "descending"])
    def test_non_uniform_grid_rejected(self, ts):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        with pytest.raises(ValueError, match="uniform"):
            synthesize_amplitude(famp, 4.0, ts)

    def test_only_linspace_from_zero_accepted(self):
        # a window that does not start at t = 0, an arange grid uniform to
        # the last bit but not np.linspace's samples, and a window of zero
        # length
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 10.0))
        steps = np.arange(0.0, 10.0, 0.025)
        assert not np.array_equal(steps, np.linspace(0.0, steps[-1], len(steps)))
        for ts in (np.linspace(7.5, 7.7, 257), steps, np.linspace(0.0, 0.0, 5)):
            with pytest.raises(ValueError, match=r"linspace\(0, T, n\)"):
                synthesize_amplitude(famp, 4.0, ts)

    @pytest.mark.parametrize("t_max, n, m", [(480.0, 9601, 9601), (7.7, 9857, 257)],
                             ids=["horizon", "offset-grid"])
    def test_chirp_z_matches_direct_sum_on_opaque_grid(self, opaque_famp, t_max, n, m):
        # the last m samples of the window [0, t_max]: the whole horizon, or
        # the 257 samples of the short stretch [7.5, 7.7] far from t = 0
        ts = np.linspace(0.0, t_max, n)
        fast = synthesize_amplitude(opaque_famp, 12.0, ts)
        stretch = np.arange(n - m, n)
        rng = np.random.default_rng(480)
        idx = np.sort(rng.choice(stretch, size=200, replace=False))
        direct = direct_synthesis(opaque_famp, 12.0, ts[idx])
        assert np.max(np.abs(fast[idx] - direct)) <= 1e-12 * np.max(np.abs(fast[stretch]))

    def test_spatial_profile_matches_stationary_states(self):
        # one node at a time: the profile is w_i f_i psi_eps_i(x) in all
        # three regions
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        xs = np.array([-7.3, -0.2, 0.0, 1.1, 3.9, 4.0, 6.5])
        for i in (3, 200, 500):
            onehot = np.zeros_like(famp.values)
            onehot[i] = 1.0
            single = dataclasses.replace(famp, values=onehot, captured_weight=0.0)
            sol = stationary.solve(BARRIER4, float(famp.grid[i]))
            expected = famp.weights[i] * wavefunction_at(sol, xs)
            got = spatial_profile(single, xs, 0.0)
            assert np.max(np.abs(got - expected)) < 1e-14 * np.max(np.abs(expected))

    def test_initial_reconstruction_quality(self):
        # truncated expansion reproduces psi(x, 0) on the support within 5% L2
        xs = np.linspace(-2.0 * math.pi, 0.0, 401)
        psi0 = initial_wavefunction(PACKET, xs)
        den = np.trapezoid(np.abs(psi0) ** 2, xs)
        grid = EnergyGridSpec.for_horizon(U0, 10.0)
        for famp in (spectral_amplitude(PACKET, FREE, grid),
                     spectral_amplitude(PACKET, BARRIER4, grid)):
            rec = spatial_profile(famp, xs, 0.0)
            err = math.sqrt(np.trapezoid(np.abs(rec - psi0) ** 2, xs) / den)
            assert err < 0.05

    def test_total_norm_matches_captured_weight(self):
        grid = EnergyGridSpec.for_horizon(U0, 10.0)
        famp = spectral_amplitude(PACKET, BARRIER4, grid)
        xs = np.linspace(-30.0, 34.0, 3201)
        norm = np.trapezoid(np.abs(spatial_profile(famp, xs, 0.0)) ** 2, xs)
        assert norm == pytest.approx(famp.captured_weight, abs=1e-3)

    def test_density_is_the_squared_amplitude(self):
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 20.0))
        ts = np.linspace(0.0, 15.0, 301)
        density = synthesize(famp, 4.0, ts)
        assert density.shape == ts.shape and np.all(density >= 0.0)
        assert np.array_equal(density, np.abs(synthesize_amplitude(famp, 4.0, ts)) ** 2)


class TestArrival:
    def test_free_packet_reference_time(self):
        t_in = free_arrival_time(PACKET, U0, t_max=30.0)
        # ballistic estimate pi b / (4 p), shifted slightly by dispersion
        assert t_in == pytest.approx(0.4264, abs=2e-3)
        assert abs(t_in - math.pi / 7.2) / (math.pi / 7.2) < 0.05

    def test_free_reference_value(self):
        # the zero-width barrier gives the t_in of the former plane-wave basis
        t_in = free_arrival_time(PACKET, U0, t_max=30.0)
        assert t_in == pytest.approx(0.4264431467041201, rel=1e-15, abs=0.0)

    def test_free_reference_needs_sub_barrier_momentum(self):
        with pytest.raises(ValueError, match="p\\^2 < u0"):
            free_arrival_time(PACKET, PACKET.p**2)

    def test_free_flight_to_detector(self):
        # negligible barrier: peak travels from x0 = -pi at speed 2p.  The
        # package observes the exit x = l = 0 only, so x = 5 takes the
        # general-x oracle: the largest sample, then the root of dD/dt
        grid = EnergyGridSpec.for_horizon(50.0, 10.0)
        famp = spectral_amplitude(PACKET, BarrierSpec(50.0, 0.0), grid)
        ts = np.linspace(0.0, 10.0, 501)
        i = int(np.argmax(np.abs(synthesize_at(famp, 5.0, ts)) ** 2))
        t_arr, _ = direct_arrival_root(famp, 5.0, ts[i], half_width=0.02)
        ballistic = (math.pi * PACKET.b / 2.0 + 5.0) / (2.0 * PACKET.p)
        assert abs(t_arr - ballistic) / ballistic <= 0.10

    @pytest.mark.parametrize("x", [3.9, 4.0 + 1e-12, 0.0, -1.0, 5.0])
    def test_other_points_raise(self, x):
        # the exit x = l = 4 only; every entry point that takes x says so
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 60.0))
        ts = np.linspace(0.0, 30.0, 601)
        calls = [lambda: synthesize_amplitude(famp, x, ts),
                 lambda: synthesize(famp, x, ts),
                 lambda: mean_crossing_time(famp, x, 60.0, dt=0.02)]
        for call in calls:
            with pytest.raises(ValueError, match=r"exit x = l = 4\.0 only"):
                call()

    def test_plateau_region(self, arrival_sweep):
        _, rows = arrival_sweep
        vals = {l: arr.t_arr for l, arr, _ in rows}
        window = [vals[l] for l in (2.0, 3.0, 4.0)]
        mean = sum(window) / len(window)
        assert (max(window) - min(window)) / mean < 0.05

    def test_post_plateau_acceleration(self, arrival_sweep):
        _, rows = arrival_sweep
        tail = [arr.t_arr for l, arr, _ in rows if l >= 7.0]
        diffs = np.diff(tail)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(tail, 2) > 0.0)

    def test_offset_reported(self, arrival_sweep):
        t_in, rows = arrival_sweep
        _, arr, _ = rows[0]
        assert arr.t_in == t_in
        assert arr.t_offset == pytest.approx(arr.t_arr - t_in, abs=1e-14)

    def test_window_too_short_raises(self):
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, 12.0),
                                  EnergyGridSpec.for_horizon(U0, 30.0))
        with pytest.raises(WindowError):
            arrival_time_of_max(famp, 30.0)

    def test_scan_extends_window(self):
        # 30 and 60 cut the pulse at l = 12; 120 passes
        arr, famp = scan_arrival(PACKET, BarrierSpec(U0, 12.0), t_max=30.0)
        assert arr.t_arr == pytest.approx(6.70, abs=0.05)
        assert famp.layout == EnergyGridSpec.for_horizon(U0, 120.0)

    def test_peak_stable_under_grid_halving(self):
        g1 = EnergyGridSpec.for_horizon(U0, 30.0)
        g2 = EnergyGridSpec(2 * g1.n_panels)
        f1 = spectral_amplitude(PACKET, BarrierSpec(U0, 2.0), g1)
        f2 = spectral_amplitude(PACKET, BarrierSpec(U0, 2.0), g2)
        a1 = arrival_time_of_max(f1, 30.0, coarse_dt=0.05)
        a2 = arrival_time_of_max(f2, 30.0, coarse_dt=0.025)
        assert abs(a1.t_arr - a2.t_arr) < 1e-3


def fresh_caches(monkeypatch):
    """Empty basis and plan caches of the package's bounds, for this test only."""
    for name in ("_BASES", "_PLANS"):
        cache = getattr(wp, name)
        monkeypatch.setattr(wp, name, wp._BoundedCache(cache.budget, cache.size))
    return wp._BASES, wp._PLANS


def assert_same_amplitude(a, b):
    """Every field of two SpectralAmplitude records equal bit for bit."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "basis":
            for name, u, v in zip(x._fields, x, y):
                assert np.array_equal(u, v), name
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def mp_exit_amplitudes(u0, l, eps, dps=40):
    """Oracle for (X, R) = (T e^{ikl}, R) at one energy, by mpmath.

    The textbook forms X = 1 / (cosh theta - i g sinh theta) and
    R = -i u0 sinh theta / (2 k chi (cosh theta - i g sinh theta)),
    theta = chi l, at dps digits from the exact values of the floats.
    """
    with mp.workdps(dps):
        u0, l, eps = mp.mpf(u0), mp.mpf(l), mp.mpf(eps)
        k, chi = mp.sqrt(eps), mp.sqrt(u0 - eps)
        g = (k * k - chi * chi) / (2 * k * chi)
        denom = mp.cosh(chi * l) - 1j * g * mp.sinh(chi * l)
        return (complex(1 / denom),
                complex(-1j * u0 * mp.sinh(chi * l) / (2 * k * chi * denom)))


def exit_terms(u0, eps):
    """(k, chi, g) at the energies eps, g = (k^2 - chi^2) / (2 k chi), as
    the energy basis holds them."""
    k, chi = np.sqrt(eps), np.sqrt(u0 - eps)
    return k, chi, (k * k - chi * chi) / (2.0 * k * chi)


class TestExitAmplitudes:
    """The per-width exit amplitude X = T e^{ikl} and reflection R."""

    THETAS = (1e-12, 1e-8, 1e-4, 0.05, stationary.THIN_THETA * (1.0 - 1e-9),
              stationary.THIN_THETA * (1.0 + 1e-9), 1.0, 3.0, 10.0, 20.0, 40.0)

    @pytest.mark.parametrize("u0", [0.5, 2.62, 31.4])
    def test_against_mpmath(self, u0):
        # theta across [0, 40] on both sides of THIN_THETA, at energies
        # from 1e-9 to 1e-4 below the top
        eps = np.array([1e-9, 1e-6, 0.01 * u0, 0.3 * u0, 0.5 * u0, 0.9 * u0,
                        u0 - 1e-3, u0 - 1e-4])
        k, chi, g = exit_terms(u0, eps)
        worst_x = worst_r = 0.0
        for theta in self.THETAS:
            for i, e in enumerate(eps):
                l = theta / chi[i]
                X, R = wp._exit_amplitudes(u0, l, k[i:i + 1], chi[i:i + 1], g[i:i + 1])
                X_ref, R_ref = mp_exit_amplitudes(u0, l, e)
                worst_x = max(worst_x, abs(X[0] - X_ref) / abs(X_ref))
                worst_r = max(worst_r, abs(R[0] - R_ref) / abs(R_ref))
        assert worst_x <= 1e-13 and worst_r <= 1e-13, (worst_x, worst_r)

    def test_zero_width_is_exact(self):
        eps = np.linspace(1e-9, U0 - 1e-4, 101)
        X, R = wp._exit_amplitudes(U0, 0.0, *exit_terms(U0, eps))
        assert np.all(X == 1.0) and np.all(R == 0.0)

    def test_opaque_widths_underflow_cleanly(self):
        # e^{-theta} underflows beyond theta ~ 745: X is 0, and R is the
        # reflection of the half-infinite step, -i u0 / (2 k chi (1 - i g))
        eps = np.array([1e-6, 0.5 * U0, U0 - 1e-4])
        k, chi, g = exit_terms(U0, eps)
        X, R = wp._exit_amplitudes(U0, 1e6, k, chi, g)
        assert np.all(X == 0.0)
        step = -1j * U0 / (2.0 * k * chi * (1.0 - 1j * g))
        assert np.max(np.abs(R - step)) <= 1e-15 and np.allclose(np.abs(R), 1.0)

    @pytest.mark.parametrize("l", [0.0, 0.05, 1.0, 4.0, 12.2])
    def test_matches_the_stationary_solution(self, l):
        # the record's X against the three-region state of
        # stationary.amplitudes, one energy of the same grid at a time; R,
        # which the record does not keep, from helpers.array_amplitudes, the
        # same kernel on the grid, and f formed from that R bit for bit
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, l), EnergyGridSpec(64))
        T, R = np.array([stationary.amplitudes(U0, l, e)[:2] for e in famp.grid.tolist()]).T
        X = T * np.exp(1j * np.sqrt(famp.grid) * l)
        assert np.max(np.abs(famp.X - X) / np.abs(X)) <= 1e-13
        R_grid = array_amplitudes(U0, l, famp.grid)[1]
        assert np.max(np.abs(R_grid - R)) <= 1e-14
        basis = famp.basis
        reflected = np.conj(R_grid) * basis.I_plus
        overlap = basis.I_minus + reflected
        assert np.array_equal(famp.values, basis.NA * overlap)


class TestBlockedAmplitude:
    @pytest.mark.parametrize("n_panels", [64, 1000, 9596])
    def test_equals_one_block(self, monkeypatch, n_panels):
        # 512, 8000 (a partial last block) and 76,768 nodes; the cache is
        # emptied in between, so the whole build forms its own overlaps
        grid = EnergyGridSpec(n_panels)
        fresh_caches(monkeypatch)
        blocked = spectral_amplitude(PACKET, BarrierSpec(U0, 12.0), grid)
        fresh_caches(monkeypatch)
        monkeypatch.setattr(wp, "_NODE_BLOCK", 10**9)
        whole = spectral_amplitude(PACKET, BarrierSpec(U0, 12.0), grid)
        assert whole.basis is not blocked.basis
        assert blocked.captured_weight == whole.captured_weight
        for name in ("grid", "weights", "values", "X"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name


class TestBasisCache:
    """The width-independent basis, built once per (packet, u0, layout)."""

    @pytest.mark.parametrize("horizon", [30.0, 60.0, 120.0])
    def test_warm_build_equals_cold(self, monkeypatch, horizon):
        # the free reference and one width in each packet-opaque stratum, on
        # the grids of the windows 30, 60 and 120
        grid = EnergyGridSpec.for_horizon(U0, horizon)
        barriers = [FREE] + [BarrierSpec(U0, l) for l in STRATUM_WIDTHS]
        cold = []
        for barrier in barriers:
            fresh_caches(monkeypatch)
            cold.append(spectral_amplitude(PACKET, barrier, grid))
        bases, _ = fresh_caches(monkeypatch)
        warm = [spectral_amplitude(PACKET, barrier, grid) for barrier in barriers]
        assert len(bases.entries) == 1
        assert all(famp.basis is warm[0].basis for famp in warm)
        for a, b in zip(cold, warm):
            assert a.basis is not b.basis
            assert a.captured_weight == b.captured_weight
            assert_same_amplitude(a, b)

    def test_other_packet_u0_or_layout_misses(self, monkeypatch):
        bases, _ = fresh_caches(monkeypatch)
        first = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        assert spectral_amplitude(PACKET, FREE, EnergyGridSpec(64)).basis is first.basis
        others = [(PacketSpec(p=3.0, b=2.0), BARRIER4, EnergyGridSpec(64)),
                  (PacketSpec(p=3.6, b=2.5), BARRIER4, EnergyGridSpec(64)),
                  (PACKET, BarrierSpec(30.0, 4.0), EnergyGridSpec(64)),
                  (PACKET, BARRIER4, EnergyGridSpec(65))]
        for n, args in enumerate(others, start=2):
            assert spectral_amplitude(*args).basis is not first.basis
            assert len(bases.entries) == n

    def test_arrays_are_read_only(self, monkeypatch):
        fresh_caches(monkeypatch)
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        assert np.shares_memory(famp.grid, famp.basis.nodes)
        for array in (famp.grid, famp.weights, *famp.basis):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_retained_nodes_stay_within_the_bound(self, monkeypatch):
        bases, _ = fresh_caches(monkeypatch)
        bound = wp._RETAINED_NODES
        small = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec(64))
        big = EnergyGridSpec(bound // 8 + 1)
        famp = spectral_amplitude(PACKET, BARRIER4, big)
        assert len(famp.grid) > bound and famp.captured_weight > 0.99
        # used but not kept, and nothing evicted for it
        assert bases.retained == 512 and list(bases.entries) == [(PACKET, U0, EnergyGridSpec(64))]
        assert spectral_amplitude(PACKET, FREE, EnergyGridSpec(64)).basis is small.basis
        # three grids of ~0.38 of the bound: the least recently used one goes
        layouts = [EnergyGridSpec(bound * 3 // 64 + n) for n in range(3)]
        for layout in layouts:
            spectral_amplitude(PACKET, BARRIER4, layout)
        assert bases.retained <= bound
        assert [key[2] for key in bases.entries] == layouts[1:]


class TestSynthesisPlan:
    def test_sweep_to_the_window_240_keeps_its_plans(self, monkeypatch):
        # the plans of the windows 30 to 240, each with the end phases of
        # its nodes, fit in the plan cache together: a second sweep past
        # l = 13.07 builds none
        fresh_caches(monkeypatch)
        built = []
        original = wp._chirp_plan

        def spy(famp, t_max, n_times):
            built.append(t_max)
            return original(famp, t_max, n_times)

        monkeypatch.setattr(wp, "_chirp_plan", spy)
        for _ in range(2):
            built.clear()
            for l in (8.3, 10.0, 12.2, 13.5):
                scan_arrival(PACKET, BarrierSpec(U0, l))
        assert built == []

    def test_plan_is_keyed_by_the_time_samples(self, monkeypatch):
        # the same M on the windows [0, 10] and [0, 12.5]: two plans, each
        # used twice, and each synthesis matches the direct sum
        _, plans = fresh_caches(monkeypatch)
        famp = spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 20.0))
        grids = [np.linspace(0.0, t_max, 161) for t_max in (10.0, 12.5)]
        for ts in grids + grids:
            fast = synthesize_amplitude(famp, 4.0, ts)
            slow = direct_synthesis(famp, 4.0, ts)
            assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(slow))
        assert [key[2:] for key in plans.entries] == [(10.0, 161), (12.5, 161)]

    def test_plan_is_shared_across_widths_and_read_only(self, monkeypatch):
        _, plans = fresh_caches(monkeypatch)
        grid = EnergyGridSpec.for_horizon(U0, 30.0)
        for barrier in (FREE, BARRIER4, BarrierSpec(U0, 8.0)):
            arrival_time_of_max(spectral_amplitude(PACKET, barrier, grid), 30.0)
        assert len(plans.entries) == 1
        (plan, size), = plans.entries.values()
        assert plans.retained == size
        for array in plan:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def exit_integrand(packet, barrier, eps):
    """h(eps) = f(eps) N T e^{ikl} from the stationary amplitudes at eps < u0."""
    k = math.sqrt(eps)
    T, R, _, _ = stationary.amplitudes(barrier.u0, barrier.l, eps)
    N = stationary.normalization(eps, math)
    f = N * packet.amplitude * (envelope_transform(packet.p - k, packet.b)
                                + np.conj(R) * envelope_transform(packet.p + k, packet.b))
    return complex(f * N * T * np.exp(1j * k * barrier.l))


class TestEndpoint:
    @pytest.mark.parametrize("l", [0.0, 0.3, 2.0, 3.0, 12.2])
    def test_limit_of_stationary_amplitudes(self, l):
        # h is smooth at the top, so the gap closes linearly in u0 - eps
        barrier = BarrierSpec(U0, l)
        h = endpoint_amplitude(PACKET, barrier)
        for gap in (1e-8, 1e-10, 1e-12):
            near = exit_integrand(PACKET, barrier, U0 * (1.0 - gap))
            assert abs(near - h) <= 2e4 * gap * abs(h)

    @pytest.mark.parametrize("l", [2.0, 3.0, 12.2])
    def test_late_density_at_the_exit(self, l):
        # the endpoint term (i/t) h(u0) e^{-i u0 t} dominates psi(l, t) late
        barrier = BarrierSpec(U0, l)
        famp = spectral_amplitude(PACKET, barrier, EnergyGridSpec.for_horizon(U0, 480.0))
        ts = np.linspace(0.0, 480.0, 4801)
        late = slice(4400, None)  # the 401 samples of [440, 480]
        h = endpoint_amplitude(PACKET, barrier)
        ratio = ts[late] ** 2 * synthesize(famp, l, ts)[late] / abs(h) ** 2
        assert np.all(np.abs(ratio - 1.0) < 0.02)

    def test_overlaps_formed_once_per_packet_and_u0(self, monkeypatch):
        # I(p -+ sqrt(u0)) does not depend on the width, so a sweep forms it once
        calls = []

        def spy(q, b, _original=wp.envelope_transform):
            calls.append(q)
            return _original(q, b)

        monkeypatch.setattr(wp, "envelope_transform", spy)
        wp._endpoint_overlaps.cache_clear()
        for l in (1.0, 2.0, 3.0, 1.0):
            endpoint_amplitude(PACKET, BarrierSpec(U0, l))
        assert len(calls) == 1
        wp._endpoint_overlaps.cache_clear()


# Widths where the accepted window doubles: below each one window
# 30 * 2^a passes, above it the next is needed.
DOUBLING_THRESHOLDS = (8.252, 10.228)
# where it doubled under the raw 1 % end-density test, up to 480
RAW_TEST_THRESHOLDS = (7.966, 9.151, 10.360, 11.765)
# one width inside each width stratum of the packet-opaque benchmark
STRATUM_WIDTHS = (8.25, 8.85, 10.0, 11.0, 12.2)


def windows_synthesized(monkeypatch):
    """Record the window of every arrival_time_of_max call made by scan_arrival:
    the windows synthesized."""
    tried = []
    original = wp.arrival_time_of_max

    def spy(famp, t_max, *args, **kwargs):
        tried.append(t_max)
        return original(famp, t_max, *args, **kwargs)

    monkeypatch.setattr(wp, "arrival_time_of_max", spy)
    return tried


def windows_built(monkeypatch):
    """Record the energy grid of every spectral_amplitude call: one per window
    tried, synthesized or proven to fail without it."""
    built = []
    original = wp.spectral_amplitude

    def spy(packet, barrier, grid):
        built.append(grid)
        return original(packet, barrier, grid)

    monkeypatch.setattr(wp, "spectral_amplitude", spy)
    return built


def horizon_grids(u0, windows):
    """The half-period grids of the windows."""
    return [EnergyGridSpec.for_horizon(u0, w) for w in windows]


def outcome(arr, famp):
    return arr.t_arr, arr.peak_density, famp.captured_weight, len(famp.grid)


def plain_windows(l):
    """The windows 30, 60, ... that scan_arrival tries at width l for PACKET."""
    return [30.0 * 2**a for a in range(1 + sum(l > x for x in DOUBLING_THRESHOLDS))]


SWEEP_PACKETS = (PACKET, PacketSpec(p=2.0, b=5.0), PacketSpec(p=5.0, b=1.0))
SWEEP_WIDTHS = sorted(
    {round(x + s, 3) for x in DOUBLING_THRESHOLDS + RAW_TEST_THRESHOLDS
     for s in (-0.002, 0.002)}
    | set(STRATUM_WIDTHS) | {float(l) for l in range(1, 13)})


class TestPredictedWindow:
    """scan_arrival against plain doubling (helpers.doubling_scan_arrival).

    The windows it tries are those plain doubling tries; there is no longer
    a predicted jump, and the name is kept for the test ids.  A window that
    must fail is built but not synthesized (_fails_unsampled).
    """

    @pytest.mark.parametrize("l", SWEEP_WIDTHS)
    def test_equals_plain_doubling(self, l):
        # the integer widths are those of the arrival_sweep fixture
        barrier = BarrierSpec(U0, l)
        assert outcome(*scan_arrival(PACKET, barrier)) == outcome(
            *doubling_scan_arrival(PACKET, barrier))

    @pytest.mark.parametrize("l", SWEEP_WIDTHS)
    @pytest.mark.parametrize("packet", SWEEP_PACKETS[1:], ids=["p2", "p5"])
    def test_other_packets_equal_plain_doubling(self, packet, l):
        barrier = BarrierSpec(U0, l)
        assert outcome(*scan_arrival(packet, barrier)) == outcome(
            *doubling_scan_arrival(packet, barrier))

    @pytest.mark.parametrize("l", STRATUM_WIDTHS)
    def test_builds_first_and_accepted_window_only(self, monkeypatch, l):
        # plain doubling: every window up to the one that passes, each on
        # the grid of its own horizon, and none beyond it
        built = windows_built(monkeypatch)
        _, famp = scan_arrival(PACKET, BarrierSpec(U0, l))
        assert built == horizon_grids(U0, plain_windows(l))
        assert famp.layout == built[-1]

    @pytest.mark.parametrize("l,synthesized", [
        (8.25, [30.0]), (8.85, [60.0]), (10.0, [60.0]),
        # the end density at t = 60 is 0.0094 of the bound B, below 1 %
        (11.0, [60.0, 120.0]),
        (12.2, [120.0]), (12.25, [120.0])])
    def test_synthesizes_the_windows_not_proven_to_fail(self, monkeypatch, l, synthesized):
        # below l ~ 8.53 the window 30 fails but its end density stays
        # below 1 % of B: 8.25 passes at 30 and is synthesized there
        tried = windows_synthesized(monkeypatch)
        scan_arrival(PACKET, BarrierSpec(U0, l))
        assert tried == synthesized

    def test_edge_maximum_doubles(self, monkeypatch):
        # the density still rises at t = 0.1, 0.2 and 0.4; 0.8 cuts the pulse
        # and 1.6 passes.  Each failing window ends above 1 % of B, so only
        # 1.6 is synthesized
        barrier = BarrierSpec(U0, 1.0)
        built = windows_built(monkeypatch)
        tried = windows_synthesized(monkeypatch)
        got = scan_arrival(PACKET, barrier, t_max=0.1)
        assert built == horizon_grids(U0, [0.1, 0.2, 0.4, 0.8, 1.6])
        assert tried == [1.6]
        monkeypatch.undo()
        assert outcome(*got) == outcome(*doubling_scan_arrival(PACKET, barrier, t_max=0.1))

    def test_maximum_at_the_start_raises_at_once(self, monkeypatch):
        # at p = 3.58, l = 5.5 the coarse maximum is the density the
        # truncated decomposition leaves at t = 0, which no longer window
        # moves: every window up to 480 failed the same way
        grids = []
        original = wp.spectral_amplitude

        def spy(packet, barrier, grid):
            grids.append(grid)
            return original(packet, barrier, grid)

        monkeypatch.setattr(wp, "spectral_amplitude", spy)
        with pytest.raises(WindowError, match=r"\(t = 0\)$"):
            scan_arrival(PacketSpec(p=3.58, b=2.0), BarrierSpec(U0, 5.5))
        assert grids == [EnergyGridSpec.for_horizon(U0, 30.0)]

    def test_start_maximum_is_never_skipped(self, monkeypatch):
        # with the bound B = 0 every window's end density proves a failure;
        # the density at the first sample, below D(0) here, still keeps the
        # window 30 from being skipped, and it raises the maximum at t = 0
        # after one synthesis
        monkeypatch.setattr(wp, "_density_bound", lambda *args: (0.0, 0.0))
        built = windows_built(monkeypatch)
        tried = windows_synthesized(monkeypatch)
        with pytest.raises(WindowError, match=r"\(t = 0\)$"):
            scan_arrival(PacketSpec(p=3.58, b=2.0), BarrierSpec(U0, 5.5))
        assert built == horizon_grids(U0, [30.0]) and tried == [30.0]

    def test_skip_needs_no_nested_samples(self, monkeypatch):
        # at dt = 0.07 the samples of the window 30 are not among those of
        # 60 (round(60 / 0.07) = 857, not 2 round(30 / 0.07) = 858): each
        # window's proof reads its own panel sums, so the scan still
        # synthesizes the window 120 only
        barrier = BarrierSpec(U0, 12.25)
        tried = windows_synthesized(monkeypatch)
        got = scan_arrival(PACKET, barrier, coarse_dt=0.07)
        assert tried == [120.0]
        monkeypatch.undo()
        assert outcome(*got) == outcome(*doubling_scan_arrival(PACKET, barrier, coarse_dt=0.07))

    @pytest.mark.parametrize("l", STRATUM_WIDTHS + (13.5,))
    @pytest.mark.parametrize("packet", SWEEP_PACKETS, ids=["p3.6", "p2", "p5"])
    def test_proven_windows_fail_and_extend(self, packet, l):
        # every window _fails_unsampled rejects fails arrival_time_of_max
        # with an extendable WindowError (which ones it rejects in a scan:
        # test_synthesizes_the_windows_not_proven_to_fail)
        for window in (30.0, 60.0, 120.0):
            famp = spectral_amplitude(packet, BarrierSpec(U0, l),
                                      EnergyGridSpec.for_horizon(U0, window))
            if wp._fails_unsampled(famp, window, 0.05):
                with pytest.raises(WindowError) as failure:
                    arrival_time_of_max(famp, window)
                assert failure.value.extendable

    def test_failed_prediction_keeps_doubling(self, monkeypatch):
        # just above the last threshold the remainder at t = 60 is still
        # above 1 % of the peak, so the scan doubles once more; the window
        # 30 is proven to fail without its synthesis, 60 is not
        barrier = BarrierSpec(U0, DOUBLING_THRESHOLDS[-1] + 0.002)
        built = windows_built(monkeypatch)
        tried = windows_synthesized(monkeypatch)
        got = scan_arrival(PACKET, barrier)
        assert built == horizon_grids(U0, [30.0, 60.0, 120.0])
        assert tried == [60.0, 120.0]
        monkeypatch.undo()
        assert outcome(*got) == outcome(*doubling_scan_arrival(PACKET, barrier))

    @pytest.mark.parametrize("max_doublings", [0, 1, 2])
    def test_same_error_as_plain_doubling(self, monkeypatch, max_doublings):
        # l = 13.5 needs the window 240, beyond the last window tried here
        monkeypatch.setattr(wp, "MAX_DOUBLINGS", max_doublings)
        barrier = BarrierSpec(U0, 13.5)
        with pytest.raises(WindowError) as expected:
            doubling_scan_arrival(PACKET, barrier, max_doublings=max_doublings)
        with pytest.raises(WindowError, match="cuts the pulse") as got:
            scan_arrival(PACKET, barrier)
        assert str(got.value) == str(expected.value)


def end_ratios(famp, t_max):
    """(raw, remainder, tail) at the end of the window [0, t_max] at x = l.

    The raw end density, the end density less the endpoint term and
    |h(u0)|^2 / t_max^2, each over the coarse maximum, from the same
    samples arrival_time_of_max takes.
    """
    l = famp.barrier.l
    ts = np.linspace(0.0, t_max, int(round(t_max / 0.05)) + 1)
    psi = synthesize_amplitude(famp, l, ts)
    peak = np.max(np.abs(psi) ** 2)
    h = endpoint_amplitude(famp.packet, famp.barrier)
    term = 1j / t_max * h * np.exp(-1j * famp.barrier.u0 * t_max)
    return (abs(psi[-1]) ** 2 / peak, abs(psi[-1] - term) ** 2 / peak,
            abs(h) ** 2 / t_max**2 / peak)


class TestWindowAcceptance:
    """The end test at the barrier exit, with the endpoint term removed."""

    @pytest.mark.parametrize("l", SWEEP_WIDTHS)
    @pytest.mark.parametrize("packet", SWEEP_PACKETS, ids=["p3.6", "p2", "p5"])
    def test_matches_the_horizon_480_arrival(self, packet, l):
        # the maximum the scan accepts is the one the window 480 finds.  On
        # the horizon-480 grid, Newton from the scan's t_arr finds the root
        # it converges to there, so that the grid refinement (up to ~2e-9 in
        # t_arr at thin barriers) does not enter the comparison
        barrier = BarrierSpec(U0, l)
        arr, famp = scan_arrival(packet, barrier)
        wide = spectral_amplitude(packet, barrier, EnergyGridSpec.for_horizon(U0, 480.0))
        ref = arrival_time_of_max(wide, 480.0)
        t, peak = wp._newton_peak(wide, wide._exit_state, arr.t_arr,
                                  arr.t_arr - 0.05, arr.t_arr + 0.05)
        assert abs(t - ref.t_arr) <= 1e-10
        assert peak == pytest.approx(ref.peak_density, rel=1e-12, abs=0.0)

    @pytest.fixture(scope="class")
    def opaque120(self):
        return spectral_amplitude(PACKET, BarrierSpec(U0, 12.2),
                                  EnergyGridSpec.for_horizon(U0, 120.0))

    def test_remainder_accepts_where_the_raw_end_density_fails(self, opaque120):
        raw, remainder, tail = end_ratios(opaque120, 120.0)
        assert remainder <= 0.01 < raw and tail < 1.0
        arr = arrival_time_of_max(opaque120, 120.0)
        assert arr.t_arr == pytest.approx(7.60, abs=0.05)

    def test_remainder_above_the_edge_fraction_rejects(self):
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, 12.2),
                                  EnergyGridSpec.for_horizon(U0, 60.0))
        raw, remainder, _ = end_ratios(famp, 60.0)
        assert 0.01 < remainder < raw
        with pytest.raises(WindowError, match="cuts the pulse: end density less the"):
            arrival_time_of_max(famp, 60.0)

    def test_raw_end_density_still_accepts(self):
        # early on the remainder is not yet small against the endpoint term:
        # here removing it raises the end density from 0.95 % to 1.1 % of the
        # peak, and the window passes on the raw test as it always did
        famp = spectral_amplitude(PacketSpec(p=2.0, b=5.0), BarrierSpec(U0, 8.5),
                                  EnergyGridSpec.for_horizon(U0, 30.0))
        raw, remainder, _ = end_ratios(famp, 30.0)
        assert raw <= 0.01 < remainder
        arrival_time_of_max(famp, 30.0)

    def test_endpoint_tail_above_the_maximum_rejects(self, monkeypatch):
        # with the end test loosened to the whole peak the window [0, 15]
        # passes it, but |h(u0)|^2 / t^2 at t = 15 is 3.4 times the maximum
        monkeypatch.setattr(wp, "EDGE_FRACTION", 1.0)
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, 12.25),
                                  EnergyGridSpec.for_horizon(U0, 15.0))
        raw, _, tail = end_ratios(famp, 15.0)
        assert raw < 1.0 <= tail
        with pytest.raises(WindowError, match="is not below the maximum"):
            arrival_time_of_max(famp, 15.0)

    def test_other_points_take_the_raw_test(self, opaque120):
        # the endpoint term belongs to x = l only, and the package observes
        # nowhere else; just past the exit, by the general-x oracle, the raw
        # end density still cuts the pulse at t = 120
        x = 12.2 + 0.01
        density = np.abs(synthesize_at(opaque120, x, np.linspace(0.0, 120.0, 2401))) ** 2
        assert density[-1] > wp.EDGE_FRACTION * np.max(density)


class TestWindowArguments:
    """A bad t_max or coarse_dt raises ValueError up front."""

    @pytest.fixture(scope="class")
    def famp4(self):
        return spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 30.0))

    BAD = [({"t_max": math.nan}, "t_max"), ({"t_max": -30.0}, "t_max"),
           ({"t_max": 0.0}, "t_max"), ({"t_max": math.inf}, "t_max"),
           ({"coarse_dt": 0.0}, "coarse_dt"), ({"coarse_dt": math.nan}, "coarse_dt"),
           ({"coarse_dt": -0.05}, "coarse_dt")]

    @pytest.mark.parametrize("kwargs,name", BAD)
    def test_scan_arrival(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            scan_arrival(PACKET, BARRIER4, **kwargs)

    @pytest.mark.parametrize("kwargs,name", BAD)
    def test_arrival_time_of_max(self, famp4, kwargs, name):
        args = {"t_max": 30.0, **kwargs}
        with pytest.raises(ValueError, match=name):
            arrival_time_of_max(famp4, **args)

    @pytest.mark.parametrize("kwargs,name", BAD[:4])
    def test_free_arrival_time(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            free_arrival_time(PACKET, U0, **kwargs)

    def test_oversampled_window_names_the_step(self, famp4):
        # 3e+301 samples would reach numpy's bare "Maximum allowed size
        # exceeded"; the bound refuses them before anything is allocated
        with pytest.raises(ValueError, match=r"^coarse_dt = 1e-300 asks for 3e\+301 samples "
                           r"of the window \[0, 30\], more than the 1,048,576 allowed"):
            arrival_time_of_max(famp4, 30.0, coarse_dt=1e-300)
        with pytest.raises(ValueError, match=r"^coarse_dt = 1e-300 asks for"):
            scan_arrival(PACKET, BARRIER4, t_max=30.0, coarse_dt=1e-300)
        with pytest.raises(ValueError, match=r"^dt = 1e-05 asks for 3e\+06 samples"):
            mean_crossing_time(famp4, BARRIER4.l, 30.0, dt=1e-5)

    @pytest.mark.parametrize("t_max", [1e-300, 1e-160])
    def test_tiny_window_end_density_does_not_overflow(self, t_max):
        # the endpoint term (i/T) h(u0) e^{-i u0 T} is ~1e300 at T = 1e-300,
        # and its square overflowed with a RuntimeWarning; the window fails at
        # t = 0 as before
        famp = spectral_amplitude(PACKET, FREE, EnergyGridSpec.for_horizon(U0, 2.0))
        psi_end = complex(synthesize_amplitude(famp, 0.0, np.linspace(0.0, t_max, 17))[-1])
        end, which = wp._end_density(famp, t_max, psi_end, abs(psi_end) ** 2)
        assert which == "end density" and end == abs(psi_end) ** 2
        with pytest.raises(WindowError, match=r"\(t = 0\)") as info:
            arrival_time_of_max(famp, t_max)
        assert not info.value.extendable


class TestGridConvergence:
    """The accepted half-period grid against the same window on 4x the panels."""

    @staticmethod
    def on_both_grids(monkeypatch, packet, l):
        tried = windows_synthesized(monkeypatch)
        barrier = BarrierSpec(U0, l)
        arr, famp = scan_arrival(packet, barrier)
        monkeypatch.undo()
        fine = spectral_amplitude(packet, barrier,
                                  EnergyGridSpec(4 * famp.layout.n_panels))
        return arr, arrival_time_of_max(fine, tried[-1])

    @pytest.mark.parametrize("l", STRATUM_WIDTHS)
    def test_opaque_widths(self, monkeypatch, l):
        arr, fine = self.on_both_grids(monkeypatch, PACKET, l)
        assert abs(arr.t_arr - fine.t_arr) <= 1e-10
        assert arr.peak_density == pytest.approx(fine.peak_density, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,b", [(3.6, 2.0), (2.0, 5.0), (5.0, 1.0)])
    @pytest.mark.parametrize("l", [0.3, 1.0])
    def test_thin_widths(self, monkeypatch, p, b, l):
        # the eps -> 0 end of the energy integral converges only like W^{3/2}
        # here; 1e-6 is the arrival tolerance of the benchmark's oracle
        arr, fine = self.on_both_grids(monkeypatch, PacketSpec(p=p, b=b), l)
        assert abs(arr.t_arr - fine.t_arr) <= 1e-6


class TestNewtonPeak:
    @pytest.mark.parametrize("l", (1.0, 3.0) + STRATUM_WIDTHS)
    def test_arrival_is_the_direct_sum_root(self, l):
        arr, famp = scan_arrival(PACKET, BarrierSpec(U0, l))
        t_ref, peak_ref = direct_arrival_root(famp, l, arr.t_arr)
        assert abs(arr.t_arr - t_ref) <= 1e-10
        assert arr.peak_density == pytest.approx(peak_ref, rel=1e-12, abs=0.0)

    def test_free_arrival_is_the_direct_sum_root(self):
        # the free grid keeps quarter-period panels at t_max = 30, which is
        # the half-period grid of the horizon 60
        t_in = free_arrival_time(PACKET, U0, t_max=30.0)
        famp = spectral_amplitude(PACKET, FREE, EnergyGridSpec.for_horizon(U0, 60.0))
        t_ref, _ = direct_arrival_root(famp, 0.0, t_in)
        assert abs(t_in - t_ref) <= 1e-10

    SLOW_FREE = (PacketSpec(p=0.79, b=0.97), 2.62)

    def test_free_arrival_doubles_its_window(self, monkeypatch):
        # at u0 = 2.62, p = 0.79, b = 0.97 the window 30 cuts the free pulse
        # and 60 passes, on the quarter-period grid of 60 (horizon 120); each
        # window has the half-period grid of twice its horizon
        packet, u0 = self.SLOW_FREE
        free = BarrierSpec(u0, 0.0)
        with pytest.raises(WindowError, match="cuts the pulse"):
            arrival_time_of_max(spectral_amplitude(
                packet, free, EnergyGridSpec.for_horizon(u0, 60.0)), 30.0)
        built = windows_built(monkeypatch)
        tried = windows_synthesized(monkeypatch)
        t_in = free_arrival_time(packet, u0, t_max=30.0)
        # the windows 30 and 60 are built; 30 is proven to fail unsampled
        assert built == horizon_grids(u0, [60.0, 120.0])
        assert tried == [60.0]
        monkeypatch.undo()
        assert t_in == free_arrival_time(packet, u0, t_max=60.0)
        # the Newton root is the direct sum's on the same grid; how far that
        # grid is from converged is test_free_arrival_grid_error's
        famp = spectral_amplitude(packet, free, EnergyGridSpec.for_horizon(u0, 120.0))
        t_ref, _ = direct_arrival_root(famp, 0.0, t_in)
        assert abs(t_in - t_ref) <= 1e-10

    @pytest.mark.parametrize("packet,u0,window,bound",
                             [SLOW_FREE + (60.0, 4e-3), (PACKET, U0, 30.0, 2e-5)])
    def test_free_arrival_grid_error(self, packet, u0, window, bound):
        # t_in converges like W^{1/2} in the panel width W (ROADMAP item 6),
        # so 2 t_16 - t_4 on 16 and 4 times the accepted window's panels
        # estimates the limit: t_in is 3.3e-3 below it at u0 = 2.62 (101
        # panels) and 1.4e-5 above it at the README packet (600 panels)
        t_in = free_arrival_time(packet, u0, t_max=30.0)
        n_panels = EnergyGridSpec.for_horizon(u0, 2.0 * window).n_panels
        t4, t16 = (arrival_time_of_max(spectral_amplitude(
            packet, BarrierSpec(u0, 0.0), EnergyGridSpec(m * n_panels)), window).t_arr
                   for m in (4, 16))
        assert abs(t_in - (2.0 * t16 - t4)) <= bound

    def test_grid_bound_on_a_later_window(self, monkeypatch):
        # the window 30 cuts the free pulse on 512 nodes, and the window 60
        # would need 808, above a bound of 600: the scan ends with the window
        # error, naming the bound
        packet, u0 = self.SLOW_FREE
        monkeypatch.setattr(wp, "MAX_GRID_NODES", 600)
        with pytest.raises(WindowError, match=r"up to t = 30: window \[0, 30\] cuts the "
                           r"pulse.*; the window 60 is not tried: .* needs 808 nodes"):
            free_arrival_time(packet, u0, t_max=30.0)
        with pytest.raises(ValueError, match="up to t_max = 60 .* needs 808 nodes"):
            free_arrival_time(packet, u0, t_max=60.0)

    @pytest.fixture(scope="class")
    def famp4(self):
        return spectral_amplitude(PACKET, BARRIER4, EnergyGridSpec.for_horizon(U0, 30.0))

    def test_accepted_window_synthesizes_once(self, monkeypatch, famp4):
        calls = dict.fromkeys(("synthesize_amplitude", "_chirp_z_sum"), 0)
        for name in calls:
            def spy(*args, _name=name, _original=getattr(wp, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(wp, name, spy)
        arrival_time_of_max(famp4, 30.0)
        assert calls == {"synthesize_amplitude": 1, "_chirp_z_sum": 1}

    def test_weighted_state_formed_once_per_record(self, famp4):
        # the coarse synthesis and the Newton refinement share one array
        amp = famp4._exit_state
        assert famp4._exit_state is amp and not amp.flags.writeable
        assert np.array_equal(amp, famp4.weights * famp4.values * (famp4.basis.N * famp4.X))

    def test_non_concave_start_raises(self, famp4):
        # at l = 4 the density peaks at t = 0.413 and is convex beyond ~0.67
        with pytest.raises(WindowError, match="not concave"):
            wp._newton_peak(famp4, famp4._exit_state, 0.8, 0.0, 30.0)

    def test_step_out_of_the_bracket_raises(self, famp4):
        # a bracket that excludes the root: the first step jumps to ~0.413
        with pytest.raises(WindowError, match="leaves the bracket"):
            wp._newton_peak(famp4, famp4._exit_state, 0.45, 0.449, 0.451)

    def test_iteration_cap_raises(self, monkeypatch, famp4):
        monkeypatch.setattr(wp, "_NEWTON_STEPS", 1)
        with pytest.raises(WindowError, match="did not converge"):
            arrival_time_of_max(famp4, 30.0)

    @pytest.mark.parametrize("packet,barrier,message", [
        # the density is not concave at the largest sample t = 0.45
        (PacketSpec(p=9.488, b=5.191), BarrierSpec(195.542, 0.771), "not concave"),
        # the free pulse is ~0.07 long: D is not concave at t = 0.05
        (PacketSpec(p=12.132, b=0.34), BarrierSpec(180.835, 0.0), "not concave"),
    ])
    def test_short_pulse_is_sampled_again(self, monkeypatch, packet, barrier, message):
        # Newton fails from the coarse step 0.05 and converges from 0.05 / 8
        # to the direct sum's root, in the first window
        tried = windows_synthesized(monkeypatch)
        if barrier.l == 0.0:
            t_arr = free_arrival_time(packet, barrier.u0)
            famp = spectral_amplitude(packet, barrier,
                                      EnergyGridSpec.for_horizon(barrier.u0, 60.0))
        else:
            t_arr, famp = scan_arrival(packet, barrier)
            t_arr = t_arr.t_arr
        assert tried == [30.0]
        assert abs(t_arr - direct_arrival_root(famp, barrier.l, t_arr)[0]) <= 1e-10
        monkeypatch.undo()
        monkeypatch.setattr(wp, "_NEWTON_RETRY", 1)
        with pytest.raises(WindowError, match=message):
            arrival_time_of_max(famp, 30.0)


class TestPacketDomain:
    """The packet over u0 in [2, 200], p / sqrt(u0) in [0.2, 0.95], b in
    [0.32, 10] and l in [0.01, 10], at t_max = 30 and coarse_dt = 0.05."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(log_u0=st.floats(math.log(2.0), math.log(200.0)),
           speed=st.floats(0.2, 0.95),
           log_b=st.floats(math.log(0.32), math.log(10.0)),
           l=st.floats(0.01, 10.0))
    # the Newton retry for t_in and for t_arr, a weight above the norm and
    # a maximum at t = 0
    @example(log_u0=math.log(180.835), speed=12.132 / math.sqrt(180.835),
             log_b=math.log(0.34), l=1.0)
    @example(log_u0=math.log(195.542), speed=9.488 / math.sqrt(195.542),
             log_b=math.log(5.191), l=0.771)
    @example(log_u0=math.log(24.399), speed=1.088 / math.sqrt(24.399),
             log_b=math.log(1.971), l=9.785)
    @example(log_u0=math.log(31.4), speed=3.58 / math.sqrt(31.4), log_b=math.log(2.0),
             l=5.5)
    def test_arrival_or_a_named_refusal(self, log_u0, speed, log_b, l):
        # each point gives the direct sum's roots for t_in and t_arr, or the
        # maximum at t = 0, or a captured weight above the norm
        u0 = math.exp(log_u0)
        packet = PacketSpec(p=speed * math.sqrt(u0), b=math.exp(log_b))
        try:
            with pytest.MonkeyPatch.context() as patch:
                tried = windows_synthesized(patch)
                t_in = free_arrival_time(packet, u0)
            free = spectral_amplitude(packet, BarrierSpec(u0, 0.0),
                                      EnergyGridSpec.for_horizon(u0, 2.0 * tried[-1]))
            assert abs(t_in - direct_arrival_root(free, 0.0, t_in)[0]) <= 1e-10
            arr, famp = scan_arrival(packet, BarrierSpec(u0, l), t_in=t_in)
        except WindowError as exc:
            assert not exc.extendable and "(t = 0)" in str(exc)
            return
        except SynthesisResolutionError as exc:
            assert "captured weight" in str(exc)
            return
        assert abs(arr.t_arr - direct_arrival_root(famp, l, arr.t_arr)[0]) <= 1e-10


class TestMeanCrossing:
    def test_narrow_pulse_mean(self):
        ts = np.linspace(0.0, 10.0, 2001)
        density = np.exp(-((ts - 5.0) / 0.01) ** 2)
        assert weighted_mean_time(ts, density) == pytest.approx(5.0, abs=1e-6)

    def test_time_shift_property(self):
        rng = np.random.default_rng(23)
        ts = np.linspace(0.0, 12.0, 601)
        density = rng.uniform(0.0, 1.0, ts.size)
        base = weighted_mean_time(ts, density)
        shifted = weighted_mean_time(ts + 3.25, density)
        assert shifted - base == pytest.approx(3.25, abs=1e-9)

    def test_mean_requires_mass(self):
        with pytest.raises(ValueError):
            weighted_mean_time(np.linspace(0.0, 1.0, 8), np.zeros(8))

    def test_valid_window_produces_diagnostics(self):
        grid = EnergyGridSpec.for_horizon(U0, 60.0)
        barrier = BarrierSpec(U0, 2.0)
        famp = spectral_amplitude(PACKET, barrier, grid)
        mean = mean_crossing_time(famp, 2.0, 60.0, dt=0.02)
        assert mean.t_mean == pytest.approx(0.4267, abs=2e-3)
        ts = np.linspace(0.0, 60.0, 3001)
        norm = np.trapezoid(synthesize(famp, 2.0, ts), ts)
        assert mean.endpoint_share == pytest.approx(
            abs(endpoint_amplitude(PACKET, barrier)) ** 2 / norm, rel=1e-12)
        assert 0.0 < mean.endpoint_share * math.log(2.0) < wp.MEAN_DRIFT_TOL * mean.t_mean

    @pytest.mark.parametrize("t_cut,dt", [
        (60.0, -0.02), (60.0, 0.0), (math.nan, 0.02), (60.0, math.inf),
    ])
    def test_bad_window_rejected(self, t_cut, dt):
        grid = EnergyGridSpec.for_horizon(U0, 60.0)
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, 2.0), grid)
        with pytest.raises(ValueError, match="finite and positive"):
            mean_crossing_time(famp, 2.0, t_cut, dt=dt)

    def test_needs_the_barrier_exit(self):
        grid = EnergyGridSpec.for_horizon(U0, 60.0)
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, 2.0), grid)
        with pytest.raises(ValueError, match="exit"):
            mean_crossing_time(famp, 0.0, 60.0, dt=0.02)
        free = spectral_amplitude(PACKET, FREE, grid)
        with pytest.raises(ValueError, match="exit"):
            mean_crossing_time(free, 2.0, 60.0, dt=0.02)

    def test_verdict_does_not_depend_on_the_cutoff(self):
        # S is a property of the packet and the barrier, not of t_cut: a
        # mean accepted at t_cut = 30 stays accepted with more data
        packet = PacketSpec(p=3.58, b=2.0)
        barrier = BarrierSpec(U0, 1.8)
        means = [mean_crossing_time(
            spectral_amplitude(packet, barrier, EnergyGridSpec.for_horizon(U0, t_cut)),
            1.8, t_cut, dt=0.02) for t_cut in (30.0, 60.0)]
        assert means[0].endpoint_share == pytest.approx(means[1].endpoint_share, rel=1e-4)

    @pytest.mark.parametrize("l,accepted", [(3.58, True), (3.6, False)])
    def test_verdict_edge(self, l, accepted):
        # S ln 2 = 0.005 t_mean at l = 3.590 for this packet and t_cut = 60
        grid = EnergyGridSpec.for_horizon(U0, 60.0)
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, l), grid)
        if accepted:
            mean_crossing_time(famp, l, 60.0, dt=0.02)
        else:
            with pytest.raises(TailMassError, match="S = "):
                mean_crossing_time(famp, l, 60.0, dt=0.02)

    @pytest.mark.parametrize("l", [3.0, 5.0])
    def test_mean_drifts_by_the_endpoint_share(self, monkeypatch, l):
        # the 1/t^2 tail adds S ln 2 to t_mean per doubling of t_cut; the
        # excess over it (4.5 % at l = 3, 3.9 % at l = 5) is the O(1/t_cut)
        # drift of the intercept and roughly halves with each doubling
        monkeypatch.setattr(wp, "MEAN_DRIFT_TOL", math.inf)
        grid = EnergyGridSpec.for_horizon(U0, 480.0)
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, l), grid)
        m1 = mean_crossing_time(famp, l, 120.0, dt=0.02)
        m2 = mean_crossing_time(famp, l, 240.0, dt=0.02)
        assert m2.t_mean - m1.t_mean == pytest.approx(
            m1.endpoint_share * math.log(2.0), rel=0.06)

    def test_heavy_tail_rejected(self):
        # wide barriers ring with a ~1/t^2 envelope from the spectral cutoff,
        # so the first moment cannot be trusted at any finite window
        grid = EnergyGridSpec.for_horizon(U0, 60.0)
        famp = spectral_amplitude(PACKET, BarrierSpec(U0, 8.0), grid)
        with pytest.raises(TailMassError, match="tail"):
            mean_crossing_time(famp, 8.0, 60.0, dt=0.02)

    def test_mean_stable_under_grid_halving(self):
        g1 = EnergyGridSpec.for_horizon(U0, 60.0)
        g2 = EnergyGridSpec(2 * g1.n_panels)
        f1 = spectral_amplitude(PACKET, BarrierSpec(U0, 2.0), g1)
        f2 = spectral_amplitude(PACKET, BarrierSpec(U0, 2.0), g2)
        m1 = mean_crossing_time(f1, 2.0, 60.0, dt=0.02)
        m2 = mean_crossing_time(f2, 2.0, 60.0, dt=0.01)
        assert abs(m1.t_mean - m2.t_mean) < 1e-3

    def test_grows_faster_than_peak_arrival(self, arrival_sweep, mean_sweep):
        _, arrows = arrival_sweep
        arr = {l: a.t_arr for l, a, _ in arrows}
        means = dict(mean_sweep)
        mean_slope = (means[3.25] - means[2.0]) / 1.25
        arr_slope = (arr[3.0] - arr[2.0]) / 1.0
        assert mean_slope > arr_slope + 0.05
