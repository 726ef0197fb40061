"""Wave-packet decomposition over sub-barrier stationary states and synthesis.

The packet psi(x,0) = A (1 - cos(2x/b)) e^{ipx} on (-pi b, 0) is expanded in
left-incident scattering states with the energy integral truncated at the
barrier top u0 (only sub-barrier components are kept).  The expansion
coefficient at energy eps is

    f(eps) = N A [ I(p - k) + conj(R) I(p + k) ],
    I(q) = int_{-pi b}^0 (1 - cos(2x/b)) e^{iqx} dx,

with I in closed form (envelope_transform); when a grid's basis is built,
I(p - k) and I(p + k) share one exponential e^{ik pi b} per node, except
near the removable points of I.  The packet is observed at the
barrier exit x = l only (any other x raises ValueError), where the state is
N X, X = T e^{ikl}.  Per width only X and R are formed (_exit_amplitudes);
a SpectralAmplitude keeps X alone, and T, C_l, D and R come from
stationary.amplitudes.  Synthesis evaluates psi(l, t) = int_0^{u0} f(eps) N X e^{-i eps t}
d(eps) on a composite Gauss-Legendre energy grid whose panels span at most
half a period of the fastest oscillation e^{-i eps t} requested, pi / t_max,
where the 8-point rule still integrates it to ~1e-15.

The nodes of that grid are eps_pj = e_j + p W: panel p of width W and
Gauss-Legendre offset e_j.  On the window [0, T] sampled at t_m = m dt,
dt = T / (M - 1), the sum over the panels is therefore, for each offset, a
chirp z-transform in w = e^{-i W dt} (Rabiner, Schafer and Rader, Bell
Syst. Tech. J. 48, 1249 (1969)), evaluated for P panels and M times as one
FFT convolution of length >= P + M - 1 by Bluestein's identity
pm = (p^2 + m^2 - (m - p)^2)/2 (IEEE Trans. Audio Electroacoust. 18, 451
(1970)): order convolutions, run as one batched FFT pair, replace the M
sums of P * order terms, so synthesis takes the times linspace(0, T, M)
only.  At a single time the same factorisation gives psi and its first two
time derivatives from P + order exponentials; Newton's method refines the
arrival maximum on those from the largest sample.  The maximum is searched
in windows [0, t_max 2^a] that double until one contains the whole pulse.
At the barrier exit the cut energy integral leaves the endpoint term
(i/t) h(u0) e^{-i u0 t}, a slowly decaying artifact of the truncation,
which the end-of-window test removes before it compares the density left
at the end with the maximum.

A width sweep repeats what does not depend on l, so that is built once: the
energy basis (nodes, weights, the width-free factors k, chi and g of X and
R, N A, the two overlaps and the panel powers) per (packet, u0, grid
layout), and the chirp-z plan (chirp, kernel FFT and offsets) per (u0,
layout, window end T, sample count M).  Each is kept in a
least-recently-used cache of at most _RETAINED_NODES nodes or complex
values, in read-only arrays that every SpectralAmplitude on them shares.

The free packet is the zero-width barrier BarrierSpec(eps_max, 0): there
X = 1 and R = 0, so its states are the plane waves N e^{ikx}, and its
arrival at x = 0 is the reference t_in for the arrival at the barrier exit.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import stationary
from .model import BarrierSpec, PacketSpec
from .numerics import NumericalError


class SynthesisResolutionError(NumericalError):
    """The energy grid does not resolve e^{-i eps t} at a time, or f(eps) near 0."""


class WindowError(NumericalError):
    """The time window does not safely contain the density maximum.

    extendable is False when no longer window can help.
    """

    def __init__(self, message: str, extendable: bool = True):
        super().__init__(message)
        self.extendable = extendable


class TailMassError(NumericalError):
    """The 1/t^2 tail of the endpoint term moves the mean too far with the cutoff."""


# Taylor coefficients of (1 - exp(-i theta)) / theta, highest power first,
# and the |theta| below which the series replaces the direct form.
_ONE_MINUS_EXP_SERIES = (-1j / 5040.0, 1.0 / 720.0, 1j / 120.0, -1.0 / 24.0,
                         -1j / 6.0, 0.5, 1j)
_SERIES_THETA = 0.05


def _one_minus_exp_series(theta):
    series = 0j
    for c in _ONE_MINUS_EXP_SERIES:
        series = series * theta + c
    return series


def _one_minus_exp_over(theta: np.ndarray) -> np.ndarray:
    """(1 - exp(-i theta)) / theta, stable for small theta (entire function).

    The Taylor series is evaluated only where |theta| < _SERIES_THETA and the
    direct form only elsewhere.
    """
    out = np.empty(theta.shape, dtype=complex)
    small = np.abs(theta) < _SERIES_THETA
    out[small] = _one_minus_exp_series(theta[small])
    td = theta[~small]
    out[~small] = (1.0 - np.exp(-1j * td)) / td
    return out


def envelope_transform(q, b: float) -> np.ndarray:
    """Closed form of I(q) = int_{-pi b}^0 (1 - cos(2x/b)) e^{iqx} dx at real q.

    The generic expression i pi b c^2 h(q pi b) / ((q-c)(q+c)), c = 2/b and
    h(theta) = (1 - e^{-i theta})/theta, has removable singularities at
    q = +-c, where the vanishing factor q -+ c moves into h instead; the
    q = 0 point is already regular in this form (I(0) = pi b, I(+-c) = -pi b/2).
    q is a float or an array, the result is complex of q's shape, and each
    entry is evaluated in the one form that is regular there only.
    """
    c, pb = 2.0 / b, math.pi * b
    q = np.asarray(q, dtype=float)
    factors = (q, q - c, q + c)
    # the generic form 0, or 1 or 2 where q - c or q + c vanishes (q pi b
    # cannot be near both, 2 c pi b = 4 pi apart)
    form = ((np.abs(factors[1]) * pb < _SERIES_THETA)
            + 2 * (np.abs(factors[2]) * pb < _SERIES_THETA))
    theta = np.choose(form, factors) * pb
    others = np.choose(form, (factors[1] * factors[2], factors[2] * factors[0],
                              factors[0] * factors[1]))
    return 1j * pb * c * c * _one_minus_exp_over(theta) / others


# Largest energy grid for_horizon builds; its amplitude record with its basis
# takes ~0.6 GB (139 bytes per node).
MAX_GRID_NODES = 2**22


@dataclass(frozen=True)
class EnergyGridSpec:
    """Composite Gauss-Legendre grid layout for the energy integral: n_panels
    equal panels of the 8-point rule."""

    n_panels: int
    order: ClassVar[int] = 8

    def __post_init__(self):
        if self.n_panels < 1:
            raise ValueError("need n_panels >= 1")

    @classmethod
    def for_horizon(cls, eps_max: float, t_max: float) -> "EnergyGridSpec":
        """Panels no wider than half an oscillation period of e^{-i eps t_max}.

        That is the width _check_resolution accepts at t_max (or at 1, for
        shorter horizons), and at it the 8-point rule integrates e^{-i eps t}
        to ~1e-15.  The panel count is raised until eps_max / n_panels meets
        that check in floating point: the rounded ceiling alone can leave the
        width one ulp above pi / t_max.  A grid of more than MAX_GRID_NODES
        nodes raises ValueError before anything is allocated.
        """
        width = math.pi / max(abs(t_max), 1.0)
        if not math.isfinite(eps_max / width):
            raise ValueError(
                f"eps_max = {eps_max!r} over panels of width {width:.4g} needs "
                "a panel count that is not finite")
        n_panels = max(64, math.ceil(eps_max / width))
        while eps_max / n_panels > width:
            n_panels += 1
        if n_panels * cls.order > MAX_GRID_NODES:
            raise ValueError(
                f"an energy grid for eps_max = {eps_max:g} up to t_max = {t_max:g} needs "
                f"{n_panels * cls.order:,} nodes, more than the {MAX_GRID_NODES:,} allowed")
        return cls(n_panels=n_panels)


class _EnergyBasis(NamedTuple):
    """The width-independent half of a packet's energy grid, in read-only arrays:
    nodes, weights and, per node, k, chi, g = (k^2 - chi^2) / (2 k chi), N,
    N A, I(p - k) and I(p + k); and the (3, P) panel powers p^0, p^1, p^2 of
    the P panels."""

    nodes: np.ndarray
    weights: np.ndarray
    k: np.ndarray
    chi: np.ndarray
    g: np.ndarray
    N: np.ndarray
    NA: np.ndarray
    I_minus: np.ndarray
    I_plus: np.ndarray
    panel_powers: np.ndarray


@dataclass(frozen=True)
class SpectralAmplitude:
    """Sampled expansion coefficient f(eps) on a quadrature grid.

    captured_weight is int_0^{eps_max} |f|^2 d(eps), the packet norm
    retained by the sub-barrier truncation at eps_max = u0.  layout is the
    composite Gauss-Legendre layout of grid: node j of panel p sits at
    grid[p * layout.order + j].  The exit amplitude X = T e^{ikl} is the
    stationary one at the grid nodes; the free packet is the barrier of
    width 0, where X = 1.  basis is the width-independent half
    shared by every width of the same (packet, u0, layout); grid and weights
    are its read-only arrays.
    """

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    captured_weight: float
    packet: PacketSpec
    barrier: BarrierSpec
    layout: EnergyGridSpec
    X: np.ndarray
    basis: _EnergyBasis

    def __post_init__(self):
        if self.grid[0] <= 0.0 or self.grid[-1] > self.eps_max * (1.0 + 1e-12):
            raise ValueError("energy grid must lie inside (0, eps_max]")
        if self.captured_weight > 1.0 + 1e-6:
            # the packet norm bounds the exact weight; quadrature error at
            # eps -> 0, largest for slow packets, can pass it
            raise SynthesisResolutionError(
                f"captured weight {self.captured_weight!r} exceeds the packet norm "
                f"by more than 1e-6 on the grid {self.layout} over (0, "
                f"{self.eps_max:g}]: f(eps) is not resolved near eps = 0")

    @property
    def eps_max(self) -> float:
        """The truncation of the energy integral, the barrier top u0."""
        return self.barrier.u0

    @property
    def max_panel_width(self) -> float:
        return self.eps_max / self.layout.n_panels

    @functools.cached_property
    def _exit_state(self) -> np.ndarray:
        """amp = w N f X at each node, so psi(l, t) = sum amp e^{-i eps t};
        formed on first use and kept, read-only, with the record."""
        amp = self.weights * self.values * (self.basis.N * self.X)
        amp.flags.writeable = False
        return amp


class _BoundedCache:
    """Values by key, least recently used out first, of total size(value) at
    most budget; a value larger than the whole budget is returned, not kept."""

    def __init__(self, budget: int, size):
        self.budget, self.size = budget, size
        self.entries = OrderedDict()    # key -> (value, its size)
        self.retained = 0

    def get(self, key, build):
        """The value kept for key, else build()'s, kept if it fits."""
        if key in self.entries:
            self.entries.move_to_end(key)
            return self.entries[key][0]
        value = build()
        n = self.size(value)
        if n <= self.budget:
            while self.retained + n > self.budget:
                self.retained -= self.entries.popitem(last=False)[1][1]
            self.entries[key] = value, n
            self.retained += n
        return value


# Energy nodes the basis cache keeps (91 bytes each, ~12 MB in all), and
# complex values the synthesis-plan cache keeps (~2 MB).
_RETAINED_NODES = 1 << 17
_BASES = _BoundedCache(_RETAINED_NODES, lambda basis: len(basis.nodes))


def _envelope_pair(packet: PacketSpec, k: np.ndarray):
    """(I(p - k), I(p + k)) over an array k.

    One exponential z = e^{ik pi b} per node serves both: with
    E = e^{-ip pi b}, c = 2/b and d(q) = q (q^2 - c^2) / (i c^2),
    I(p - k) = (1 - E z) / d(p - k) and I(p + k) = (1 - E conj(z)) / d(p + k).
    The few nodes within _SERIES_THETA / (pi b) of a removable point q = 0,
    c or -c take envelope_transform instead.
    """
    p, b = packet.p, packet.b
    c, pb = 2.0 / b, math.pi * b
    ie = 1j * cmath.exp(-1j * p * pb)
    z = np.exp(1j * pb * k)
    transforms = []
    for q, zq in ((p - k, z), (p + k, np.conj(z))):
        num = 1j - ie * zq
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num * (c * c / (q * (q - c) * (q + c)))
        near = np.abs(np.subtract.outer(q, (0.0, c, -c))).min(axis=-1) * pb < _SERIES_THETA
        out[near] = envelope_transform(q[near], b)
        transforms.append(out)
    return transforms


# Energy nodes per block of the basis and of spectral_amplitude: their
# temporaries stay at 64 KiB of complex128; only the kept arrays span the grid.
_NODE_BLOCK = 4096


def _exit_amplitudes(u0: float, l: float, k, chi, g):
    """(X, R) at width l, X = T e^{ikl} = 2 e^{-chi l} / denom, by
    stationary._barrier_kernel; X = 1 and R = 0 exactly at l = 0."""
    decay, denom, R = stationary._barrier_kernel(u0, l, k, chi, g, np)
    return 2.0 * decay / denom, R


@functools.lru_cache(maxsize=8)
def _legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


def _build_basis(packet: PacketSpec, u0: float, grid: EnergyGridSpec) -> _EnergyBasis:
    """The basis on n_panels equal panels of [0, u0], each with the
    order-point Gauss-Legendre rule; the nodes lie strictly inside."""
    xs, ws = _legendre_rule(grid.order)
    edges = np.linspace(0.0, u0, grid.n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    k, chi, g = stationary._wavenumbers(u0, nodes, np)
    N = stationary.normalization(nodes, np)
    I_minus, I_plus = (np.empty(nodes.shape, dtype=complex) for _ in range(2))
    for lo in range(0, len(nodes), _NODE_BLOCK):
        part = slice(lo, lo + _NODE_BLOCK)
        I_minus[part], I_plus[part] = _envelope_pair(packet, k[part])
    p = np.arange(grid.n_panels, dtype=float)
    basis = _EnergyBasis(nodes, weights, k, chi, g, N, N * packet.amplitude,
                         I_minus, I_plus, np.stack([np.ones_like(p), p, p * p]))
    for array in basis:
        array.flags.writeable = False
    return basis


def spectral_amplitude(packet: PacketSpec, barrier: BarrierSpec,
                       grid: EnergyGridSpec) -> SpectralAmplitude:
    """Expand the packet over sub-barrier left-incident scattering states.

    The width-independent _EnergyBasis is kept per (packet, u0, grid) in a
    cache of at most _RETAINED_NODES nodes (a larger grid is used, not
    kept), so per width only X and R (_exit_amplitudes) and
    f = N A [I(p - k) + conj(R) I(p + k)] are formed; R is not kept.
    """
    if packet.p**2 >= barrier.u0:
        raise ValueError(f"need p^2 < u0, got p^2 = {packet.p**2}, u0 = {barrier.u0}")
    basis = _BASES.get((packet, barrier.u0, grid),
                       lambda: _build_basis(packet, barrier.u0, grid))
    X, f = (np.empty(basis.nodes.shape, dtype=complex) for _ in range(2))
    for lo in range(0, len(basis.nodes), _NODE_BLOCK):
        part = slice(lo, lo + _NODE_BLOCK)
        X[part], R = _exit_amplitudes(
            barrier.u0, barrier.l, basis.k[part], basis.chi[part], basis.g[part])
        # complex products take named operands: numpy would run one on a large
        # temporary in place, which rounds otherwise, and blocks would differ
        rc = np.conj(R)
        reflected = rc * basis.I_plus[part]
        overlap = basis.I_minus[part] + reflected
        f[part] = basis.NA[part] * overlap
    captured = float(np.sum(basis.weights * np.abs(f) ** 2))
    return SpectralAmplitude(
        grid=basis.nodes, values=f, weights=basis.weights, captured_weight=captured,
        packet=packet, barrier=barrier, layout=grid, X=X, basis=basis,
    )


@functools.lru_cache(maxsize=16)
def _endpoint_overlaps(packet: PacketSpec, u0: float) -> tuple[complex, complex]:
    """(I(p - k), I(p + k)) at k = sqrt(u0), kept per (packet, u0): every
    width and window of a sweep shares them."""
    k = math.sqrt(u0)
    return tuple(complex(v) for v in envelope_transform(packet.p - np.array([k, -k]), packet.b))


def endpoint_amplitude(packet: PacketSpec, barrier: BarrierSpec) -> complex:
    """h(u0), the integrand of psi(l, t) over energy at the barrier top.

    With h(eps) = f(eps) N X, X = T e^{ikl}, cutting the energy integral at u0
    leaves the endpoint term (i/t) h(u0) e^{-i u0 t} (integration by parts;
    A. Erdelyi, Asymptotic Expansions, 1956, ch. 2), so once the pulse has
    passed the density at the barrier exit decays like |h(u0)|^2 / t^2.
    As chi -> 0 the amplitudes tend to X = 2/(2 - ikl) and
    R = -ikl/(2 - ikl), with k = sqrt(u0).
    """
    ikl = 1j * math.sqrt(barrier.u0) * barrier.l
    R = -ikl / (2.0 - ikl)
    I_minus, I_plus = _endpoint_overlaps(packet, barrier.u0)
    overlap = I_minus + R.conjugate() * I_plus
    return complex(stationary.normalization(barrier.u0, math) ** 2 * packet.amplitude
                   * overlap * 2.0 / (2.0 - ikl))


def _check_resolution(famp: SpectralAmplitude, t_max: float) -> None:
    """SynthesisResolutionError unless the panels resolve e^{-i eps t} up to t_max."""
    if famp.max_panel_width > math.pi / t_max:
        raise SynthesisResolutionError(
            f"energy panels of width {famp.max_panel_width:.4g} cannot resolve "
            f"the oscillation at t = {t_max:.4g}; rebuild the grid with "
            f"EnergyGridSpec.for_horizon(eps_max, {t_max:.4g})"
        )


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


class _ChirpPlan(NamedTuple):
    """The part of a chirp z-sum fixed by the grid and the time samples."""

    conj_chirp: np.ndarray  # w^{n^2/2}, n < max(P, M)
    kernel: np.ndarray      # FFT of the Bluestein kernel
    offsets: np.ndarray     # e^{-i e_j t_m}, (order, M)


def _chirp_plan(famp: SpectralAmplitude, t_max: float, n_times: int) -> _ChirpPlan:
    n_panels, order = famp.layout.n_panels, famp.layout.order
    theta = famp.max_panel_width * (t_max / (n_times - 1))
    n = np.arange(max(n_panels, n_times), dtype=float)
    # n*n is an exact integer in float64; w**(n**2/2) would round the power
    chirp = np.exp(0.5j * theta * (n * n))
    size = _fft_size(n_panels + n_times - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_times] = chirp[:n_times]
    kernel[size - n_panels + 1:] = chirp[n_panels - 1:0:-1]
    plan = _ChirpPlan(np.conj(chirp), np.fft.fft(kernel),
                      np.exp(-1j * np.outer(famp.grid[:order],
                                            np.linspace(0.0, t_max, n_times))))
    for array in plan:
        array.flags.writeable = False
    return plan


_PLANS = _BoundedCache(_RETAINED_NODES, lambda plan: sum(a.size for a in plan))


def _chirp_z_sum(famp: SpectralAmplitude, amp: np.ndarray, t_max: float,
                 n_times: int) -> np.ndarray:
    """sum_eps amp e^{-i eps t} on t = linspace(0, t_max, n_times), by chirp z.

    The times are t_m = m dt, dt = t_max / (n_times - 1).  Node j of panel p
    is eps_pj = e_j + p W, with W the panel width and e_j the nodes of panel
    0, so with w = e^{-i W dt}

        psi(t_m) = sum_j e^{-i e_j t_m} sum_p amp_pj w^{pm},

    and each inner sum is one Bluestein convolution, via
    pm = (p^2 + m^2 - (m - p)^2) / 2, of length >= P + M - 1 for P panels
    and M times.  The order convolutions run as one batched FFT pair over
    the rows of the (order, P) matrix of pre-chirped panel sums.  The chirp,
    the kernel's FFT and the offsets form a _ChirpPlan, kept per (u0, layout,
    t_max, n_times) in a cache of at most _RETAINED_NODES complex values, so
    a call forms only the panel FFT pair and the contraction.
    """
    plan = _PLANS.get((famp.eps_max, famp.layout, t_max, n_times),
                      lambda: _chirp_plan(famp, t_max, n_times))
    n_panels = famp.layout.n_panels
    panels = amp.reshape(n_panels, famp.layout.order).T * plan.conj_chirp[:n_panels]
    conv = np.fft.ifft(np.fft.fft(panels, len(plan.kernel), axis=1) * plan.kernel,
                       axis=1)[:, :n_times]
    return (plan.offsets * conv).sum(axis=0) * plan.conj_chirp[:n_times]


def synthesize_amplitude(famp: SpectralAmplitude, x: float, times) -> np.ndarray:
    """Complex psi(x, t) at the barrier exit x = l on the window [0, T].

    times must equal np.linspace(0.0, T, n) exactly, with n >= 3 and a
    finite T > 0: the uniform grid the chirp z-transform sums.  Any other
    times raise ValueError, and so does any x but famp.barrier.l.
    """
    if x != famp.barrier.l:
        raise ValueError("the packet is observed at the barrier exit "
                         f"x = l = {famp.barrier.l!r} only, got x = {x!r}")
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) >= 3 and 0.0 < times[-1] < math.inf
            and np.array_equal(times, np.linspace(0.0, times[-1], len(times)))):
        raise ValueError("synthesis needs the uniform time grid linspace(0, T, n) "
                         "with n >= 3 and a finite T > 0")
    t_max = float(times[-1])
    _check_resolution(famp, t_max)
    return _chirp_z_sum(famp, famp._exit_state, t_max, len(times))


def synthesize(famp: SpectralAmplitude, x: float, times) -> np.ndarray:
    """Density |psi(x, t)|^2 at the barrier exit x = l, at each of the times."""
    return np.abs(synthesize_amplitude(famp, x, times)) ** 2


@dataclass(frozen=True)
class ArrivalTime:
    """Arrival of the density maximum at the barrier exit."""

    t_arr: float
    peak_density: float
    t_in: float | None = None

    @property
    def t_offset(self) -> float:
        """t_arr minus the free-packet arrival at the barrier entrance."""
        if self.t_in is None:
            raise ValueError("no reference arrival time attached")
        return self.t_arr - self.t_in


def _panel_derivatives(famp: SpectralAmplitude, amp: np.ndarray, t: float):
    """(psi, psi', psi'') at one time t, from sums over the energy panels.

    With eps_pj = e_j + p W, e^{-i eps_pj t} = e^{-i e_j t} (e^{-i W t})^p, and
    each time derivative brings down -i eps_pj, so the three sums take
    P + order exponentials and one contraction of the (P, order) weights with
    the panel factors p^k (e^{-i W t})^p, k = 0, 1, 2; the powers p^k are
    the basis's panel_powers.
    """
    width = famp.max_panel_width
    e = famp.grid[:famp.layout.order]
    powers = famp.basis.panel_powers
    z = np.exp(-1j * width * t * powers[1])
    s0, s1, s2 = (powers * z) @ amp.reshape(len(z), len(e))
    y = np.exp(-1j * e * t)
    psi = s0 @ y
    d1 = -1j * ((e * s0 + width * s1) @ y)
    d2 = -((e * e * s0 + 2.0 * width * e * s1 + width * width * s2) @ y)
    return psi, d1, d2


# Newton steps allowed from the largest coarse sample to the root of
# dD/dt, and the step, as a fraction of the bracket, below which that root
# counts as found: convergence is quadratic, so the error left after such a
# step is of the order of its square over the pulse duration.
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-8

# A window whose Newton refinement fails is sampled once more at a step
# this many times finer before it counts as failed.
_NEWTON_RETRY = 8


def _newton_peak(famp: SpectralAmplitude, amp: np.ndarray, t: float,
                 lo: float, hi: float):
    """Maximum of D = |psi|^2 by Newton on D' = 2 Re(conj(psi) psi'), from t.

    D'' = 2 (|psi'|^2 + Re(conj(psi) psi'')) must stay negative and every
    iterate inside [lo, hi]; otherwise, or without convergence, WindowError.
    The density returned is at the last iterate, where D' ~ 0, so it differs
    from D at the returned time by O(D'' step^2) only.
    """
    for _ in range(_NEWTON_STEPS):
        psi, d1, d2 = _panel_derivatives(famp, amp, t)
        slope = 2.0 * (psi.conjugate() * d1).real
        curvature = 2.0 * (abs(d1) ** 2 + (psi.conjugate() * d2).real)
        if not curvature < 0.0:
            raise WindowError(
                f"density is not concave at t = {t:.6g} (D'' = {curvature:.3e})")
        step = slope / curvature
        t -= step
        if not lo <= t <= hi:
            raise WindowError(
                f"Newton step to t = {t:.6g} leaves the bracket [{lo:.6g}, {hi:.6g}]")
        if abs(step) <= _NEWTON_TOL * (hi - lo):
            return float(t), float(abs(psi) ** 2)
    raise WindowError(
        f"Newton refinement of the maximum did not converge in {_NEWTON_STEPS} "
        f"steps (last step {step:.3e})")


def _check_window(t_max: float, coarse_dt: float) -> None:
    """ValueError unless t_max and coarse_dt are finite and positive."""
    for name, value in (("t_max", t_max), ("coarse_dt", coarse_dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


# The window passes when the density left at its end is below this
# fraction of the maximum.
EDGE_FRACTION = 0.01


def arrival_time_of_max(famp: SpectralAmplitude, t_max: float,
                        coarse_dt: float = 0.05,
                        t_in: float | None = None) -> ArrivalTime:
    """Time at which D = |psi(l, t)|^2 attains its global maximum on [0, t_max].

    D is sampled at the barrier exit every ~coarse_dt by one chirp
    z-synthesis.  The maximum must be interior, and the window must not cut
    the pulse: the density left at T = t_max must stay below EDGE_FRACTION
    of the maximum.  Otherwise WindowError asks the caller to extend the
    window; a maximum at t = 0 is not extendable.

    The known endpoint term of the cut energy integral is removed from the
    end density first.  Integrating
    int_0^{u0} h(eps) e^{-i eps t} d(eps) by parts, with h(u0) from
    endpoint_amplitude, gives

        psi(l, t) = (i/t) h(u0) e^{-i u0 t} + O(t^{-2})

    once the pulse has passed (A. Erdelyi, Asymptotic Expansions, 1956,
    ch. 2).  That term is a truncation artifact, not the pulse: D(T) only
    falls like |h(u0)|^2 / T^2, 3-4x per doubling of T, while the remainder
    |psi(T) - (i/T) h(u0) e^{-i u0 T}|^2 falls ~16x.  The window then passes
    when the smaller of D(T) and that remainder is below EDGE_FRACTION of
    the maximum, and when |h(u0)|^2 / T^2 is below the maximum, so that the
    endpoint term cannot raise a later maximum above the one found.  D(T)
    stays in the test because in short windows the O(t^{-2}) remainder is
    not yet small against the endpoint term, and removing the term can
    raise the end density (from 0.95 % to 1.1 % of the maximum at p = 2,
    b = 5, l = 8.5, T = 30); a window whose raw end density passes is never
    rejected for it.

    From the largest sample, Newton's method on dD/dt, with psi, psi' and
    psi'' summed over the energy panels, finds the root between its two
    neighbours.  A non-concave density there, a step out of that bracket or
    no convergence starts it once more from the largest interior sample at
    a _NEWTON_RETRY times finer step, since a pulse a few coarse steps long
    can leave the coarse start outside Newton's basin; failing there too
    raises WindowError.  peak_density is D at the root.  A
    t_max or coarse_dt that is not finite and positive raises ValueError.
    """
    _check_window(t_max, coarse_dt)
    n = max(int(round(t_max / coarse_dt)), 16) + 1
    ts = np.linspace(0.0, t_max, n)
    psi = synthesize_amplitude(famp, famp.barrier.l, ts)
    d = np.abs(psi) ** 2
    i = int(np.argmax(d))
    peak = d[i]
    # Only the far edge is extendable: the evolution always starts at t = 0,
    # where the truncated decomposition leaves a nonzero residual density at
    # the observation point.  The pulse must have decayed before the window
    # closes.
    if i == 0 or i == n - 1:
        raise WindowError(f"density maximum at the window edge (t = {ts[i]:.4g})",
                          extendable=i > 0)
    endpoint = endpoint_amplitude(famp.packet, famp.barrier)
    term = 1j / t_max * endpoint * cmath.exp(-1j * famp.eps_max * t_max)
    remainder = abs(psi[-1] - term) ** 2
    end, which = d[-1], "end density"
    if remainder < end:
        end, which = remainder, "end density less the endpoint term"
    if end > EDGE_FRACTION * peak:
        raise WindowError(
            f"window [0, {t_max:g}] cuts the pulse: {which} {end:.3e} "
            f"is above {EDGE_FRACTION:.0%} of the maximum {peak:.3e}")
    tail = abs(endpoint) ** 2 / t_max**2
    if not tail < peak:
        raise WindowError(
            f"window [0, {t_max:g}] is too short: the endpoint density "
            f"|h(u0)|^2 / t^2 = {tail:.3e} at its end is not below the "
            f"maximum {peak:.3e}")
    amp = famp._exit_state
    try:
        t_star, v_star = _newton_peak(famp, amp, float(ts[i]), ts[i - 1], ts[i + 1])
    except WindowError:
        ts = np.linspace(0.0, t_max, (n - 1) * _NEWTON_RETRY + 1)
        fine = np.abs(synthesize_amplitude(famp, famp.barrier.l, ts))
        i = int(np.argmax(fine[1:-1])) + 1
        t_star, v_star = _newton_peak(famp, amp, float(ts[i]), ts[i - 1], ts[i + 1])
    return ArrivalTime(t_arr=t_star, peak_density=v_star, t_in=t_in)


# Doublings of the window that scan_arrival and free_arrival_time try
# after the first: the last window is t_max 2^MAX_DOUBLINGS.
MAX_DOUBLINGS = 4


def free_arrival_time(packet: PacketSpec, eps_max: float, t_max: float = 30.0) -> float:
    """Arrival of the free packet maximum at x = 0 (the t_in reference).

    The free packet is the barrier BarrierSpec(eps_max, 0), which needs
    p^2 < eps_max.  The window doubles as in scan_arrival, sampled every
    ~0.05, and each window's grid has quarter-period panels: the
    free integrand N^2 f ~ eps^{-1/2} as eps -> 0, so t_in converges only
    like the square root of the panel width, and is off by ~1.4e-5 at
    u0 = 31.4, p = 3.6, b = 2 but by ~3.3e-3 at u0 = 2.62, p = 0.79,
    b = 0.97.  Raises WindowError and ValueError as scan_arrival does.
    """
    def quarter_period(horizon):
        # for_horizon floors the horizon at 1, so the floor is doubled too
        try:
            return EnergyGridSpec.for_horizon(eps_max, 2.0 * max(horizon, 1.0))
        except ValueError as exc:
            raise ValueError(f"the free reference up to t_max = {horizon:g} has "
                             f"quarter-period panels: {exc}") from None

    return _doubling_scan(packet, BarrierSpec(eps_max, 0.0), quarter_period,
                          t_max, 0.05)[0].t_arr


def scan_arrival(packet: PacketSpec, barrier: BarrierSpec, t_max: float = 30.0,
                 coarse_dt: float = 0.05, t_in: float | None = None):
    """Arrival time in the first window t_max 2^a, a <= MAX_DOUBLINGS, that passes.

    Each window gets its own energy grid (wider windows need finer panels),
    and t_max doubles while arrival_time_of_max rejects the window.  The end
    density is tested with the endpoint term removed, and what remains falls
    ~16x per doubling, so opaque widths stop at short windows: at u0 = 31.4,
    p = 3.6, b = 2 and t_max = 30 the window doubles at l = 8.252, 10.228
    and 13.073, and t = 120 serves up to there.  Returns
    (ArrivalTime, SpectralAmplitude).  Raises WindowError if the largest
    window still fails or a later window's grid would exceed MAX_GRID_NODES,
    and from the window at hand if its maximum sits at t = 0, which no
    window moves.  Raises ValueError unless t_max and coarse_dt are finite
    and positive.
    """
    return _doubling_scan(
        packet, barrier, lambda horizon: EnergyGridSpec.for_horizon(barrier.u0, horizon),
        t_max, coarse_dt, t_in)


def _doubling_scan(packet: PacketSpec, barrier: BarrierSpec, grid_for,
                   t_max: float, coarse_dt: float, t_in: float | None = None):
    """(ArrivalTime, SpectralAmplitude) of the first window t_max 2^a that
    passes, each window on the energy grid grid_for(t_max 2^a).  A grid that
    grid_for refuses ends the scan: with ValueError at t_max, and with the
    last window's WindowError, which names the refusal, after it."""
    _check_window(t_max, coarse_dt)
    last_error = None
    for attempt in range(MAX_DOUBLINGS + 1):
        horizon = t_max * 2**attempt
        try:
            grid = grid_for(horizon)
        except ValueError as exc:
            if last_error is None:
                raise
            raise WindowError(f"no valid window up to t = {horizon / 2:g}: {last_error}; "
                              f"the window {horizon:g} is not tried: {exc}") from None
        famp = spectral_amplitude(packet, barrier, grid)
        try:
            return arrival_time_of_max(famp, horizon, coarse_dt, t_in=t_in), famp
        except WindowError as exc:
            if not exc.extendable:
                raise
            # keep the message only: the traceback would hold this window's
            # grid alive while the next, larger one is built
            last_error = str(exc)
        del famp
    raise WindowError(
        f"no valid window up to t = {t_max * 2**MAX_DOUBLINGS:g}: {last_error}"
    )


# Largest move of t_mean, as a fraction of it, that a doubling of the cutoff
# may cause before the mean is rejected.
MEAN_DRIFT_TOL = 0.005


@dataclass(frozen=True)
class MeanTime:
    """Mean crossing time at the barrier exit with its endpoint share.

    endpoint_share is S = |h(u0)|^2 / int_0^{t_cut} |psi|^2 dt, the rate
    d t_mean / d ln t_cut that the endpoint term of the energy cutoff causes.
    """

    t_mean: float
    t_cut: float
    endpoint_share: float


def mean_crossing_time(famp: SpectralAmplitude, x: float, t_cut: float,
                       dt: float) -> MeanTime:
    """Quantum-average crossing time of the barrier exit x = l over [0, t_cut].

    t_mean = int t D dt / int D dt with D = |psi(l, t)|^2, both integrals by
    the trapezoid rule on max(round(t_cut / dt), 64) + 1 uniform samples.
    Once the pulse has passed, D ~ |h(u0)|^2 / t^2 (the endpoint term of the
    cut energy integral, see endpoint_amplitude), so the first moment grows
    like |h(u0)|^2 ln t_cut and t_mean drifts by S = |h(u0)|^2 / int D dt
    per unit of ln t_cut.  If doubling the cutoff would move t_mean by more
    than MEAN_DRIFT_TOL of itself, S ln 2 > MEAN_DRIFT_TOL t_mean, raises
    TailMassError: the mean then measures the cutoff more than the pulse.
    The packet is observed at the exit only, so any other x raises
    ValueError, as does a t_cut or dt that is not finite and positive.
    """
    _check_window(t_cut, dt)
    n = max(int(round(t_cut / dt)), 64) + 1
    ts = np.linspace(0.0, t_cut, n)
    d = synthesize(famp, x, ts)
    den = float(np.trapezoid(d, ts))
    if den <= 0.0:
        raise ValueError("density has no mass on the window")
    t_mean = float(np.trapezoid(ts * d, ts)) / den
    share = abs(endpoint_amplitude(famp.packet, famp.barrier)) ** 2 / den
    drift = share * math.log(2.0)
    if drift > MEAN_DRIFT_TOL * t_mean:
        raise TailMassError(
            f"the 1/t^2 tail of the endpoint term has share S = {share:.3e}: "
            f"doubling t_cut = {t_cut:g} would move t_mean = {t_mean:.6g} by "
            f"S ln 2, {100 * drift / t_mean:.3g}%; tolerance is "
            f"{100 * MEAN_DRIFT_TOL:g}%"
        )
    return MeanTime(t_mean=t_mean, t_cut=float(t_cut), endpoint_share=float(share))
