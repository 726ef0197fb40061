"""Wave-packet decomposition over sub-barrier stationary states and synthesis.

The packet psi(x,0) = A (1 - cos(2x/b)) e^{ipx} on (-pi b, 0) is expanded in
left-incident scattering states with the energy integral truncated at the
barrier top u0 (only sub-barrier components are kept).  The expansion
coefficient at energy eps is

    f(eps) = N A [ I(p - k) + conj(R) I(p + k) ],
    I(q) = int_{-pi b}^0 (1 - cos(2x/b)) e^{iqx} dx,

with I available in closed form.  Synthesis evaluates
psi(x, t) = int_0^{u0} f(eps) psi_eps(x) e^{-i eps t} d(eps) on a composite
Gauss-Legendre energy grid whose panels resolve the fastest oscillation
e^{-i eps t} requested, so a weighted sum reproduces the integral at any
(x, t) pair.

The nodes of that grid are eps_pj = e_j + p W: panel p of width W and
Gauss-Legendre offset e_j.  On a uniform time grid t_m = t_0 + m dt the sum
over the panels is therefore, for each offset, a chirp z-transform in
w = e^{-i W dt} (Rabiner, Schafer and Rader, Bell Syst. Tech. J. 48, 1249
(1969)), evaluated for P panels and M times as one FFT convolution of
length >= P + M - 1 by Bluestein's identity pm = (p^2 + m^2 - (m - p)^2)/2
(IEEE Trans. Audio Electroacoust. 18, 451 (1970)): order convolutions
replace the M sums of P * order terms.  Any other time grid takes the
direct sum of exponentials, built in blocks so that no (n_t, n_eps) matrix
is ever formed; it is the definition the fast path is tested against.

A "free" variant (T = 1, R = 0 basis) provides the no-barrier reference used
for the arrival of the packet maximum at the barrier entrance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stationary
from .model import BarrierSpec, PacketSpec
from .numerics import gauss_legendre_panels, refine_max, uniform_step, EdgeMaximumError


class SynthesisResolutionError(RuntimeError):
    """The energy grid cannot resolve e^{-i eps t} at the requested time."""


class WindowError(RuntimeError):
    """The time window does not safely contain the density maximum."""


class TailMassError(RuntimeError):
    """The density tail beyond the window is too heavy for a trusted mean."""


def _one_minus_exp_over(theta):
    """(1 - exp(-i theta)) / theta, stable for small theta (entire function).

    The Taylor series is evaluated only where |theta| < 0.05 and the direct
    form only elsewhere.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    small = np.abs(theta) < 0.05
    ts = theta[small]
    series = np.zeros(ts.shape, dtype=complex)
    for c in (-1j / 5040.0, 1.0 / 720.0, 1j / 120.0, -1.0 / 24.0, -1j / 6.0, 0.5, 1j):
        series = series * ts + c
    out[small] = series
    td = theta[~small]
    out[~small] = (1.0 - np.exp(-1j * td)) / td
    return out


def envelope_transform(q, b: float):
    """Closed form of I(q) = int_{-pi b}^0 (1 - cos(2x/b)) e^{iqx} dx.

    The generic expression i pi b c^2 h(q pi b) / ((q-c)(q+c)), c = 2/b and
    h(theta) = (1 - e^{-i theta})/theta, has removable singularities at
    q = +-c where the numerator is rewritten around the nearby zero; the
    q = 0 point is already regular in this form (I(0) = pi b, I(+-c) = -pi b/2).
    Each entry is evaluated in its one branch only.
    """
    q = np.asarray(q, dtype=float)
    c = 2.0 / b
    pb = math.pi * b
    dm = q - c
    dp = q + c
    near_p = np.abs(dm) * pb < 0.05
    near_m = np.abs(dp) * pb < 0.05
    generic = ~(near_p | near_m)
    scale = 1j * pb * c * c
    out = np.empty(q.shape, dtype=complex)
    out[generic] = scale * _one_minus_exp_over(q[generic] * pb) / (dm[generic] * dp[generic])
    out[near_p] = scale * _one_minus_exp_over(dm[near_p] * pb) / (q[near_p] * dp[near_p])
    out[near_m] = scale * _one_minus_exp_over(dp[near_m] * pb) / (q[near_m] * dm[near_m])
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class EnergyGridSpec:
    """Composite Gauss-Legendre grid layout for the energy integral."""

    n_panels: int
    order: int = 8

    def __post_init__(self):
        if self.n_panels < 1 or self.order < 2:
            raise ValueError("need n_panels >= 1 and order >= 2")

    @classmethod
    def for_horizon(cls, eps_max: float, t_max: float, order: int = 8) -> "EnergyGridSpec":
        """Panels no wider than a quarter oscillation period of e^{-i eps t_max}."""
        width = math.pi / (2.0 * max(abs(t_max), 1.0))
        return cls(n_panels=max(64, math.ceil(eps_max / width)), order=order)


@dataclass(frozen=True)
class SpectralAmplitude:
    """Sampled expansion coefficient f(eps) on a quadrature grid.

    barrier is None for the free (no-barrier) basis.  captured_weight is
    int_0^{eps_max} |f|^2 d(eps), the packet norm retained by the sub-barrier
    truncation.  layout is the composite Gauss-Legendre layout of grid:
    node j of panel p sits at grid[p * layout.order + j].  T, R, C_l and D
    are the stationary amplitudes at the grid nodes, C_l = C e^{chi l} the
    scaled interior one (all None for the free basis).
    """

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    captured_weight: float
    packet: PacketSpec
    barrier: BarrierSpec | None
    eps_max: float
    layout: EnergyGridSpec
    T: np.ndarray | None = None
    R: np.ndarray | None = None
    C_l: np.ndarray | None = None
    D: np.ndarray | None = None

    def __post_init__(self):
        if len(self.grid) != self.layout.n_panels * self.layout.order:
            raise ValueError(
                f"energy grid has {len(self.grid)} nodes, not n_panels * order = "
                f"{self.layout.n_panels} * {self.layout.order}"
            )
        if self.grid[0] <= 0.0 or self.grid[-1] > self.eps_max * (1.0 + 1e-12):
            raise ValueError("energy grid must lie inside (0, eps_max]")
        if self.barrier is not None and self.eps_max > self.barrier.u0 * (1.0 + 1e-12):
            raise ValueError("energy grid extends beyond the barrier top u0")
        if self.captured_weight > 1.0 + 1e-6:
            raise ValueError(
                f"captured weight {self.captured_weight} exceeds the packet norm"
            )

    @property
    def free(self) -> bool:
        return self.barrier is None

    @property
    def max_panel_width(self) -> float:
        return self.eps_max / self.layout.n_panels


def spectral_amplitude(packet: PacketSpec, barrier: BarrierSpec,
                       grid: EnergyGridSpec) -> SpectralAmplitude:
    """Expand the packet over sub-barrier left-incident scattering states."""
    if packet.p**2 >= barrier.u0:
        raise ValueError("sub-barrier study requires p^2 < u0")
    nodes, weights = gauss_legendre_panels(0.0, barrier.u0, grid.n_panels, grid.order)
    k = np.sqrt(nodes)
    T, R, C_l, D = stationary.amplitudes(barrier.u0, barrier.l, nodes)
    f = stationary.normalization(nodes) * packet.amplitude * (
        envelope_transform(packet.p - k, packet.b)
        + np.conj(R) * envelope_transform(packet.p + k, packet.b)
    )
    captured = float(np.sum(weights * np.abs(f) ** 2))
    return SpectralAmplitude(
        grid=nodes, values=f, weights=weights, captured_weight=captured,
        packet=packet, barrier=barrier, eps_max=barrier.u0, layout=grid,
        T=T, R=R, C_l=C_l, D=D,
    )


def free_spectral_amplitude(packet: PacketSpec, eps_max: float,
                            grid: EnergyGridSpec) -> SpectralAmplitude:
    """Expansion over free states N e^{ikx} with the same energy truncation."""
    nodes, weights = gauss_legendre_panels(0.0, eps_max, grid.n_panels, grid.order)
    k = np.sqrt(nodes)
    f = stationary.normalization(nodes) * packet.amplitude * envelope_transform(
        packet.p - k, packet.b
    )
    captured = float(np.sum(weights * np.abs(f) ** 2))
    return SpectralAmplitude(
        grid=nodes, values=f, weights=weights, captured_weight=captured,
        packet=packet, barrier=None, eps_max=eps_max, layout=grid,
    )


# Largest (rows, n_eps) block of exponentials built at once by the direct
# sums, in elements: 1 MiB of complex128.
_BLOCK = 1 << 16


def _block_rows(famp: SpectralAmplitude) -> int:
    return max(1, _BLOCK // len(famp.grid))


def _basis(famp: SpectralAmplitude, xs: np.ndarray) -> np.ndarray:
    """psi_eps(x) as a (len(xs), n_eps) matrix: one row per position."""
    x = np.asarray(xs, dtype=float)
    eps = famp.grid
    k = np.sqrt(eps)
    N = stationary.normalization(eps)
    if famp.free:
        return N * np.exp(1j * k * x[:, None])
    chi = np.sqrt(famp.barrier.u0 - eps)
    return N * stationary._three_region(x, famp.barrier.l, k, chi, famp.T, famp.R,
                                        famp.C_l, famp.D)


@dataclass(frozen=True)
class TimeSeries:
    """|psi(x, t)|^2 sampled at a fixed point over an ascending time grid."""

    x: float
    times: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.density < 0.0):
            raise ValueError("density must be nonnegative")


def _check_resolution(famp: SpectralAmplitude, times) -> None:
    t_extreme = float(np.max(np.abs(times)))
    if famp.max_panel_width > math.pi / max(t_extreme, 1e-300):
        raise SynthesisResolutionError(
            f"energy panels of width {famp.max_panel_width:.4g} cannot resolve "
            f"the oscillation at t = {t_extreme:.4g}; rebuild the grid with "
            f"EnergyGridSpec.for_horizon(eps_max, {t_extreme:.4g})"
        )


def _direct_sum(famp: SpectralAmplitude, amp: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_eps amp e^{-i eps t} at each t, in blocks of rows of exponentials."""
    rows = _block_rows(famp)
    return np.concatenate([
        np.exp(-1j * np.outer(times[i:i + rows], famp.grid)) @ amp
        for i in range(0, len(times), rows)
    ])


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; numpy.fft is fastest on these lengths."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < n:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def _chirp_z_sum(famp: SpectralAmplitude, amp: np.ndarray, times: np.ndarray,
                 dt: float) -> np.ndarray:
    """The direct sum on a uniform grid t_m = t_0 + m dt, by chirp z-transforms.

    Node j of panel p is eps_pj = e_j + p W, with W the panel width and e_j
    the nodes of panel 0, so with w = e^{-i W dt}

        psi(t_m) = sum_j e^{-i e_j (t_m - t_0)} sum_p [amp_pj e^{-i eps_pj t_0}] w^{pm},

    and each inner sum is one Bluestein convolution, via
    pm = (p^2 + m^2 - (m - p)^2) / 2, of length >= P + M - 1 for P panels
    and M times.
    """
    n_panels, order = famp.layout.n_panels, famp.layout.order
    n_times = len(times)
    theta = famp.max_panel_width * dt
    n = np.arange(max(n_panels, n_times), dtype=float)
    # n*n is an exact integer in float64; w**(n**2/2) would round the power
    chirp = np.exp(0.5j * theta * (n * n))
    size = _fft_size(n_panels + n_times - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_times] = chirp[:n_times]
    kernel[size - n_panels + 1:] = chirp[n_panels - 1:0:-1]
    kernel = np.fft.fft(kernel)
    panels = (amp * np.exp(-1j * famp.grid * times[0])).reshape(n_panels, order)
    pre = np.conj(chirp[:n_panels])
    elapsed = times - times[0]
    out = np.zeros(n_times, dtype=complex)
    for j in range(order):
        conv = np.fft.ifft(np.fft.fft(panels[:, j] * pre, size) * kernel)[:n_times]
        out += np.exp(-1j * famp.grid[j] * elapsed) * conv
    return out * np.conj(chirp[:n_times])


def synthesize_amplitude(famp: SpectralAmplitude, x: float, times) -> np.ndarray:
    """Complex psi(x, t) on the time grid (quadrature-weighted spectral sum).

    A uniform time grid takes the chirp z-transform path; any other grid
    takes the blocked direct sum, which is the definition the fast path is
    tested against.
    """
    times = np.asarray(times, dtype=float)
    _check_resolution(famp, times)
    amp = famp.weights * famp.values * _basis(famp, [x])[0]
    dt = uniform_step(times)
    if dt is None:
        return _direct_sum(famp, amp, times)
    return _chirp_z_sum(famp, amp, times, dt)


def synthesize(famp: SpectralAmplitude, x: float, times) -> TimeSeries:
    """Density series |psi(x, t)|^2 at a fixed observation point."""
    psi = synthesize_amplitude(famp, x, times)
    return TimeSeries(x=float(x), times=np.asarray(times, dtype=float),
                      density=np.abs(psi) ** 2)


def spatial_profile(famp: SpectralAmplitude, xs, t: float) -> np.ndarray:
    """Complex psi(x, t) over an array of positions at one instant."""
    xs = np.asarray(xs, dtype=float)
    _check_resolution(famp, [t])
    coeff = famp.weights * famp.values * np.exp(-1j * famp.grid * t)
    rows = _block_rows(famp)
    return np.concatenate([
        _basis(famp, xs[i:i + rows]) @ coeff for i in range(0, len(xs), rows)
    ])


@dataclass(frozen=True)
class ArrivalTime:
    """Arrival of the density maximum at an observation point."""

    x: float
    t_arr: float
    peak_density: float
    t_in: float | None = None

    @property
    def t_offset(self) -> float:
        """t_arr minus the free-packet arrival at the barrier entrance."""
        if self.t_in is None:
            raise ValueError("no reference arrival time attached")
        return self.t_arr - self.t_in


def _locate_peak(famp: SpectralAmplitude, x: float, t_max: float,
                 coarse_dt: float, edge_fraction: float):
    n = max(int(round(t_max / coarse_dt)), 16) + 1
    ts = np.linspace(0.0, t_max, n)
    series = synthesize(famp, x, ts)
    d = series.density
    i = int(np.argmax(d))
    peak = d[i]
    if i == 0 or i == n - 1:
        raise WindowError(f"density maximum at the window edge (t = {ts[i]:.4g})")
    # Only the far edge is extendable: the evolution always starts at t = 0,
    # where the truncated decomposition leaves a nonzero residual density at
    # the observation point.  The pulse must have decayed before the window
    # closes.
    if d[-1] > edge_fraction * peak:
        raise WindowError(
            f"window [0, {t_max:g}] cuts the pulse: end density {d[-1]:.3e} "
            f"is above {edge_fraction:.0%} of the maximum {peak:.3e}"
        )
    # refine on a dense local grid around the coarse argmax
    lo = max(ts[i] - 2.0 * coarse_dt, 0.0)
    hi = min(ts[i] + 2.0 * coarse_dt, t_max)
    fine = np.linspace(lo, hi, 257)
    fine_series = synthesize(famp, x, fine)
    try:
        t_star, v_star = refine_max(fine, fine_series.density)
    except EdgeMaximumError as exc:
        raise WindowError(str(exc)) from exc
    return float(t_star), float(v_star)


def arrival_time_of_max(famp: SpectralAmplitude, t_max: float,
                        coarse_dt: float = 0.05,
                        edge_fraction: float = 0.01,
                        t_in: float | None = None,
                        x: float | None = None) -> ArrivalTime:
    """Time at which |psi(x, t)|^2 attains its global maximum on [0, t_max].

    The window must not cut the pulse: the density at the far end has to stay
    below edge_fraction of the maximum and the maximum must be interior,
    otherwise WindowError asks the caller to extend the window.  The discrete
    maximum is refined by parabolic interpolation on a dense local grid.  By
    default the observation point is the barrier exit x = l (or x = 0 for the
    free basis).
    """
    if x is None:
        x = 0.0 if famp.free else famp.barrier.l
    t_star, v_star = _locate_peak(famp, x, t_max, coarse_dt, edge_fraction)
    return ArrivalTime(x=float(x), t_arr=t_star, peak_density=v_star, t_in=t_in)


def free_arrival_time(packet: PacketSpec, eps_max: float, t_max: float = 30.0,
                      coarse_dt: float = 0.05) -> float:
    """Arrival of the free packet maximum at x = 0 (the t_in reference)."""
    grid = EnergyGridSpec.for_horizon(eps_max, t_max)
    famp = free_spectral_amplitude(packet, eps_max, grid)
    t_star, _ = _locate_peak(famp, 0.0, t_max, coarse_dt, edge_fraction=0.01)
    return t_star


def scan_arrival(packet: PacketSpec, barrier: BarrierSpec, t_max: float = 30.0,
                 coarse_dt: float = 0.05, max_doublings: int = 4,
                 t_in: float | None = None):
    """Arrival time with automatic window extension.

    Rebuilds the energy grid for each candidate window (wider windows need
    finer panels) and doubles t_max until the window criterion is met.
    Returns (ArrivalTime, SpectralAmplitude).  Raises WindowError if the
    largest window still fails.
    """
    last_error = None
    for attempt in range(max_doublings + 1):
        horizon = t_max * 2**attempt
        grid = EnergyGridSpec.for_horizon(barrier.u0, horizon)
        famp = spectral_amplitude(packet, barrier, grid)
        try:
            return arrival_time_of_max(famp, horizon, coarse_dt, t_in=t_in), famp
        except WindowError as exc:
            # keep the message only: the traceback would hold this window's
            # grid alive while the next, twice as large, is built
            last_error = str(exc)
        del famp
    raise WindowError(
        f"no valid window up to t = {t_max * 2**max_doublings:g}: {last_error}"
    )


def weighted_mean_time(times, density) -> float:
    """First moment of a density series: int t d dt / int d dt (trapezoid)."""
    times = np.asarray(times, dtype=float)
    density = np.asarray(density, dtype=float)
    den = np.trapezoid(density, times)
    if den <= 0.0:
        raise ValueError("density has no mass on the window")
    return float(np.trapezoid(times * density, times) / den)


@dataclass(frozen=True)
class MeanTime:
    """Mean crossing time with its tail diagnostics."""

    x: float
    t_mean: float
    t_cut: float
    decay_exponent: float
    tail_num_fraction: float
    tail_den_fraction: float


def _tail_estimate(ts: np.ndarray, d: np.ndarray, t_cut: float):
    """Power-law fit c t^{-gamma} over the last decade, block-averaged."""
    mask = ts >= t_cut / 10.0
    t_tail, d_tail = ts[mask], d[mask]
    n_bins = 12
    edges = np.geomspace(t_tail[0], t_tail[-1], n_bins + 1)
    mids, means = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (t_tail >= a) & (t_tail <= b)
        if np.any(sel) and np.mean(d_tail[sel]) > 0.0:
            mids.append(math.sqrt(a * b))
            means.append(np.mean(d_tail[sel]))
    if len(mids) < 3:
        return 0.0, float("inf"), float("inf")
    slope, intercept = np.polyfit(np.log(mids), np.log(means), 1)
    gamma = -slope
    c = math.exp(intercept)
    # int_T^inf c t^{1-gamma} dt and int_T^inf c t^{-gamma} dt
    tail_num = c * t_cut ** (2.0 - gamma) / (gamma - 2.0) if gamma > 2.05 else float("inf")
    tail_den = c * t_cut ** (1.0 - gamma) / (gamma - 1.0) if gamma > 1.05 else float("inf")
    return gamma, tail_num, tail_den


def mean_crossing_time(famp: SpectralAmplitude, x: float, t_cut: float,
                       dt: float = 0.02, tail_tolerance: float = 0.005) -> MeanTime:
    """Quantum-average crossing time of the point x over the window [0, t_cut].

    Computes int t |psi|^2 dt / int |psi|^2 dt on the window and estimates the
    neglected tail from a power-law fit to the last decade of samples.  If the
    estimated tail exceeds tail_tolerance of either integral (in particular
    when the fitted decay is too shallow for the moment to converge), raises
    TailMassError: the mean would not be trustworthy at any finite cutoff.
    """
    n = max(int(round(t_cut / dt)), 64) + 1
    ts = np.linspace(0.0, t_cut, n)
    series = synthesize(famp, x, ts)
    d = series.density
    den = float(np.trapezoid(d, ts))
    if den <= 0.0:
        raise ValueError("density has no mass on the window")
    num = float(np.trapezoid(ts * d, ts))
    gamma, tail_num, tail_den = _tail_estimate(ts, d, t_cut)
    frac_num = tail_num / num if num > 0.0 else float("inf")
    frac_den = tail_den / den
    if frac_num > tail_tolerance or frac_den > tail_tolerance:
        raise TailMassError(
            f"tail beyond t = {t_cut:g} holds an estimated {100 * frac_num:.3g}% "
            f"of the first moment and {100 * frac_den:.3g}% of the norm "
            f"(fitted decay t^-{gamma:.2f}); tolerance is {100 * tail_tolerance:g}%"
        )
    return MeanTime(
        x=float(x), t_mean=num / den, t_cut=float(t_cut),
        decay_exponent=float(gamma),
        tail_num_fraction=float(frac_num), tail_den_fraction=float(frac_den),
    )
