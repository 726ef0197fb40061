"""Shared test utilities."""

import math

import numpy as np
from scipy.optimize import brentq

from tunneltimes import stationary
from tunneltimes import wavepacket as wp


def find_plateau(values, rel_tol=0.05, min_len=3):
    """Longest contiguous window whose values vary less than rel_tol of mean.

    Returns (i, j) inclusive indices, or None if no window of at least
    min_len points qualifies.
    """
    values = list(values)
    best = None
    n = len(values)
    for i in range(n):
        for j in range(i + min_len - 1, n):
            window = values[i:j + 1]
            if max(window) - min(window) <= rel_tol * (sum(window) / len(window)):
                if best is None or (j - i) > (best[1] - best[0]):
                    best = (i, j)
    return best


def packet_support(packet):
    """The interval (-pi b, 0) on which the initial packet is nonzero."""
    return (-math.pi * packet.b, 0.0)


def packet_center(packet):
    """x0 = -pi b / 2, where the initial density is largest."""
    return -math.pi * packet.b / 2.0


def initial_wavefunction(packet, x):
    """psi(x, 0) = A (1 - cos(2x/b)) e^{ipx} on the support, zero outside.

    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > -math.pi * packet.b) & (x < 0.0)
    envelope = packet.amplitude * (1.0 - np.cos(2.0 * x / packet.b))
    psi = np.where(inside, envelope, 0.0) * np.exp(1j * packet.p * x)
    return psi if psi.ndim else complex(psi)


def transfer_matrix_solution(u0, l, eps):
    """Independent oracle: solve the four matching equations directly.

    Unknowns (R, C, D, T) of the three-region solution, from value and slope
    continuity at x = 0 and x = l; no shared code with the closed forms.
    """
    k = np.sqrt(eps)
    chi = np.sqrt(u0 - eps)
    ep, em = np.exp(chi * l), np.exp(-chi * l)
    etr = np.exp(1j * k * l)
    A = np.array(
        [
            [-1.0, 1.0, 1.0, 0.0],
            [-1j * k, -chi, chi, 0.0],
            [0.0, ep, em, -etr],
            [0.0, chi * ep, -chi * em, -1j * k * etr],
        ],
        dtype=complex,
    )
    rhs = np.array([1.0, -1j * k, 0.0, 0.0], dtype=complex)
    R, C, D, T = np.linalg.solve(A, rhs)
    return R, C, D, T


def three_region(x, l, k, chi, T, R, C_l, D, slope=False):
    """Unnormalized psi_eps(x), or d(psi_eps)/dx when slope is set.

    The oracle for the state at any position, from the amplitudes of
    stationary.amplitudes or array_amplitudes.  The result has the shape of
    x followed by the shape of k: k, chi and the amplitudes are scalars, or
    1-d arrays over energy that give each position one entry per energy.
    Each region's form is evaluated only at the positions inside it, so no
    exponential of a far-away position is formed, and on the barrier both
    exponents chi (x - l) and -chi x are <= 0.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    col = flat.reshape((-1,) + (1,) * np.ndim(k))
    left = flat < 0.0
    right = flat > l
    inside = ~(left | right)
    out = np.empty(col.shape[:1] + np.shape(k), dtype=complex)
    incoming = np.exp(1j * k * col[left])
    transmitted = T * np.exp(1j * k * col[right])
    grow = C_l * np.exp(chi * (col[inside] - l))
    decay = D * np.exp(-chi * col[inside])
    if slope:
        out[left] = 1j * k * (incoming - R * np.conj(incoming))
        out[right] = 1j * k * transmitted
        out[inside] = chi * (grow - decay)
    else:
        out[left] = incoming + R * np.conj(incoming)
        out[right] = transmitted
        out[inside] = grow + decay
    return out.reshape(x.shape + np.shape(k))


def wavefunction_at(sol, x):
    """Normalized stationary wave function N * psi_eps(x); vectorized over x."""
    psi = sol.N * three_region(x, sol.barrier.l, sol.k, sol.chi, sol.T, sol.R,
                               sol.C_l, sol.D)
    return psi if psi.ndim else complex(psi)


def interior_window_transform(C_l, D, chi: float, l: float, k):
    """(phi(k), phi(-k)), phi(k) = int_0^l (C_l e^{chi (x - l)} + D e^{-chi x}) e^{-ikx} dx.

    The reference form of spectral.barrier_k_spectrum's transform: closed
    form in the scaled coefficient C_l = C e^{chi l}, so +chi*l is never
    exponentiated and opaque barriers evaluate without overflow.  Both signs
    of k share one e^{-ikl}: e^{+ikl} is its conjugate.
    """
    k = np.asarray(k, dtype=float)
    e = math.exp(-chi * l)
    phase = np.exp(-1j * k * l)
    ik = 1j * k
    return tuple((C_l * p - e * C_l) / (chi - s) + (D - D * e * p) / (chi + s)
                 for p, s in ((phase, ik), (np.conj(phase), -ik)))


def mp_window_density(sol, k, dps=40):
    """Oracle for |N phi(k)|^2 of the barrier-region transform at one k, by mpmath.

    phi(k) = C_l (p - e) / (chi - ik) + D (1 - e p) / (chi + ik) with
    p = e^{-ikl} and e = e^{-chi l}, at dps digits; C_l, D, N, chi, l and k
    are the exact values of their floats.
    """
    import mpmath as mp

    with mp.workdps(dps):
        C_l, D, N = mp.mpc(sol.C_l), mp.mpc(sol.D), mp.mpf(sol.N)
        chi, l, k = mp.mpf(sol.chi), mp.mpf(sol.barrier.l), mp.mpf(k)
        e, p = mp.exp(-chi * l), mp.exp(-1j * k * l)
        phi = C_l * (p - e) / (chi - 1j * k) + D * (1 - e * p) / (chi + 1j * k)
        return float(abs(N * phi) ** 2)


def incident_current(sol):
    """Current of the incident part alone, j_in = 2 k N^2."""
    return 2.0 * sol.k * sol.N**2


def transmitted_current(sol):
    """Current of the transmitted part, equal to the full current 2 k N^2 |T|^2."""
    return 2.0 * sol.k * sol.N**2 * abs(sol.T) ** 2


def current(sol, x):
    """Probability current j = 2 Im(psi* dpsi/dx) of the full solution.

    The convention makes a unit plane wave e^{ikx} carry j = 2k, matching the
    dimensionless group velocity 2*sqrt(eps).  For a stationary solution j is
    x-independent and equals 2 k N^2 |T|^2.
    """
    psi = wavefunction_at(sol, x)
    dpsi = sol.N * three_region(x, sol.barrier.l, sol.k, sol.chi, sol.T, sol.R,
                                sol.C_l, sol.D, slope=True)
    j = 2.0 * np.imag(np.conj(psi) * dpsi)
    return float(j) if np.ndim(j) == 0 else j


class StencilError(ValueError):
    """The finite-difference stencil leaves the domain it was given."""


def richardson_derivative(f, x, h0=None, bounds=None):
    """f'(x) from central differences at h0, h0/2 and h0/4, extrapolated.

    Two Richardson steps cancel the h^2 and h^4 error terms, so the result
    is sixth-order accurate in h0.  h0 defaults to 1e-3 * max(1, |x|), which
    balances truncation against roundoff in double precision.  If bounds are
    given and x +/- h0 would leave the open interval, raises StencilError.
    """
    if h0 is None:
        h0 = 1e-3 * max(1.0, abs(x))
    if bounds is not None and not (bounds[0] < x - h0 and x + h0 < bounds[1]):
        raise StencilError(
            f"stencil [{x - h0}, {x + h0}] leaves the domain {tuple(bounds)}")
    d = [(f(x + h) - f(x - h)) / (2.0 * h) for h in (h0, h0 / 2.0, h0 / 4.0)]
    d01 = (4.0 * d[1] - d[0]) / 3.0
    d12 = (4.0 * d[2] - d[1]) / 3.0
    return (16.0 * d12 - d01) / 15.0


def finite_difference_group_delay(barrier, eps):
    """Oracle: tau_g = l/(2k) + d(alpha)/d(eps), the phase differenced.

    The phase varies on the scale of u0 - eps near the top, so the stencil
    shrinks with the distance to the edge; it must stay inside (0, u0).
    """
    h0 = min(1e-3 * max(1.0, eps), 0.1 * (barrier.u0 - eps), 0.25 * eps)
    assert h0 >= 1e-7 * max(1.0, eps), f"no usable stencil at eps = {eps}"
    slope = richardson_derivative(
        lambda e: stationary.phase_shift(barrier, e), eps, h0,
        bounds=(0.0, barrier.u0))
    return barrier.l / (2.0 * math.sqrt(eps)) + slope


def weighted_mean_time(times, density) -> float:
    """First moment of a density series: int t d dt / int d dt (trapezoid)."""
    times = np.asarray(times, dtype=float)
    density = np.asarray(density, dtype=float)
    den = np.trapezoid(density, times)
    if den <= 0.0:
        raise ValueError("density has no mass on the window")
    return float(np.trapezoid(times * density, times) / den)


# Largest (rows, n_eps) block of exponentials built at once by the direct
# sums, in elements: 1 MiB of complex128.
_BLOCK = 1 << 16


def _block_rows(famp):
    return max(1, _BLOCK // len(famp.grid))


def array_amplitudes(u0, l, eps):
    """(T, R, C_l, D) of stationary.amplitudes at an array of energies.

    The same closed forms in numpy, on stationary._barrier_kernel, for the
    oracles that need the state at every node of a large energy grid.
    """
    k, chi = np.sqrt(eps), np.sqrt(u0 - eps)
    g = (k * k - chi * chi) / (2.0 * k * chi)
    decay, denom, R = stationary._barrier_kernel(u0, l, k, chi, g, np)
    ik_chi = 1j * k / chi
    T = 2.0 * np.exp(-1j * k * l) * decay / denom
    return T, R, decay * (1.0 + ik_chi) / denom, (1.0 - ik_chi) / denom


def stationary_states(famp, xs):
    """N psi_eps(x) at famp's energy nodes, as a (len(xs), n_eps) matrix.

    The general-x oracle for the exit state N X that wavepacket forms: the
    three-region states of array_amplitudes and three_region, valid at any
    position.
    """
    u0, l, eps = famp.barrier.u0, famp.barrier.l, famp.grid
    T, R, C_l, D = array_amplitudes(u0, l, eps)
    psi = three_region(np.asarray(xs, dtype=float), l, np.sqrt(eps),
                       np.sqrt(u0 - eps), T, R, C_l, D)
    return stationary.normalization(eps, np) * psi


def general_state(famp, x):
    """amp = w f N psi_eps(x) at each node, at any position x."""
    return famp.weights * famp.values * stationary_states(famp, [x])[0]


def direct_synthesis(famp, x, times):
    """Oracle for synthesize_amplitude: psi(x, t) on any time grid at any x.

    psi(x, t) = sum_eps w f N psi_eps(x) e^{-i eps t}, with one exponential
    per node and time and no factorisation over the energy panels, built in
    blocks of rows so that no (n_t, n_eps) matrix is formed.
    """
    times = np.asarray(times, dtype=float)
    wp._check_resolution(famp, float(np.max(np.abs(times))))
    amp = general_state(famp, x)
    rows = _block_rows(famp)
    return np.concatenate([
        np.exp(-1j * np.outer(times[i:i + rows], famp.grid)) @ amp
        for i in range(0, len(times), rows)
    ])


def synthesize_at(famp, x, times):
    """psi(x, t) at any position x on times = linspace(0, T, n): the chirp
    z-sum of the package applied to general_state, where the package takes
    x = l only."""
    t_max, n = float(times[-1]), len(times)
    assert np.array_equal(times, np.linspace(0.0, t_max, n))
    wp._check_resolution(famp, t_max)
    return wp._chirp_z_sum(famp, general_state(famp, x), t_max, n)


def spatial_profile(famp, xs, t):
    """Complex psi(x, t) over an array of positions at one instant."""
    xs = np.asarray(xs, dtype=float)
    if t != 0.0:
        wp._check_resolution(famp, abs(t))
    coeff = famp.weights * famp.values * np.exp(-1j * famp.grid * t)
    rows = _block_rows(famp)
    return np.concatenate([
        stationary_states(famp, xs[i:i + rows]) @ coeff for i in range(0, len(xs), rows)
    ])


def doubling_scan_arrival(packet, barrier, t_max=30.0, coarse_dt=0.05,
                          max_doublings=4, t_in=None):
    """Oracle for scan_arrival: try every window t_max 2^a in turn.

    Returns (ArrivalTime, SpectralAmplitude) of the first window that passes
    arrival_time_of_max, or raises WindowError naming the last failure.
    """
    last_error = None
    for attempt in range(max_doublings + 1):
        horizon = t_max * 2**attempt
        grid = wp.EnergyGridSpec.for_horizon(barrier.u0, horizon)
        famp = wp.spectral_amplitude(packet, barrier, grid)
        try:
            return wp.arrival_time_of_max(famp, horizon, coarse_dt, t_in=t_in), famp
        except wp.WindowError as exc:
            last_error = str(exc)
    raise wp.WindowError(
        f"no valid window up to t = {t_max * 2**max_doublings:g}: {last_error}"
    )


def direct_arrival_root(famp, x, t_guess, half_width=1e-3):
    """Oracle for the arrival maximum: (t*, D(t*)) with dD/dt(t*) = 0.

    D = |psi|^2, with psi = sum_n amp_n e^{-i eps_n t} and psi' = sum_n
    -i eps_n amp_n e^{-i eps_n t} summed over every node with its own
    exponential, with no factorisation over the energy panels.  The root is
    bracketed within half_width of t_guess and found by brentq; it fails if
    dD/dt has no sign change there.  x may be any position.
    """
    amp = general_state(famp, x)

    def slope_and_density(t):
        terms = amp * np.exp(-1j * famp.grid * t)
        psi = terms.sum()
        slope = 2.0 * (psi.conjugate() * (-1j * famp.grid * terms).sum()).real
        return slope, abs(psi) ** 2

    t_star = brentq(lambda t: slope_and_density(t)[0],
                    t_guess - half_width, t_guess + half_width,
                    xtol=1e-15, rtol=1e-15)
    return t_star, slope_and_density(t_star)[1]


def mp_overlap(packet, k, R=0.0, dps=40):
    """Oracle for f / (N A) = I(p - k) + conj(R) I(p + k) at one k, by mpmath.

    I(q) = int_{-pi b}^0 (1 - cos(2x/b)) e^{iqx} dx is summed as
    J(q) - (J(q + c) + J(q - c)) / 2, c = 2/b, over the plane-wave integrals
    J(s) = (1 - e^{-is pi b}) / (is), J(0) = pi b: three exponentials at dps
    digits instead of the closed form's one over the product q (q^2 - c^2).
    p, b and k are the exact values of their floats.
    """
    import mpmath as mp

    with mp.workdps(dps):
        p, k, b = mp.mpf(packet.p), mp.mpf(k), mp.mpf(packet.b)
        c, pb = 2 / b, mp.pi * b

        def J(s):
            return pb if s == 0 else (1 - mp.exp(-1j * s * pb)) / (1j * s)

        def I(q):
            return J(q) - (J(q + c) + J(q - c)) / 2

        value = I(p - k)
        if R != 0.0:
            value += mp.conj(mp.mpc(R)) * I(p + k)
        return complex(value)
