"""Wavenumber decomposition of the barrier-region stationary solution.

The interior field C e^{chi x} + D e^{-chi x} on the window [0, l] is Fourier
transformed, phi(k) = int_0^l psi_eps(x) e^{-ikx} dx, and the spectral weight
is split between right-moving (k > 0) and left-moving (k < 0) components.
For a left-incident sub-barrier solution the right-moving share always
dominates, and the left-moving share grows with barrier width toward a
finite asymptote.

With the scaled coefficient C_l = C e^{chi l}, e = e^{-chi l} and
p = e^{-ikl}, the transform over the scaled field is

    phi(k) = C_l (p - e) / (chi - ik) + D (1 - e p) / (chi + ik)
           = [C_l u (chi + ik) + D v (chi - ik)] / (chi^2 + k^2),

u = p - e, v = 1 - e p, so no exponential grows and the density |N phi|^2
takes no complex division.  u and v are formed before any product with the
coefficients: expanded as p A(k) + B(k) instead, the cancellation between
the two terms comes after the products' rounding, which lost accuracy at
l ~ 0.5.  They are summed as u = (p - 1) + (1 - e) and v = (1 - e) p -
(p - 1), with 1 - e = -expm1(-chi l) and p - 1 exact wherever p is near 1,
so they keep their digits as k l and chi l -> 0: formed as p - e, u lost
the chi l of its real part once e rounded to 1, and the density was wrong
from l ~ 1e-15 (u0 = 12, eps = 11.8).  At -k
the phase is conj(p), and |phi(-k)| = |conj(N C_l) u (chi + ik) +
conj(N D) v (chi - ik)| / (chi^2 + k^2) exactly, so both halves of the grid
share u (chi + ik) and v (chi - ik).  p comes from a two-level table
(_phase_table), about 2 sqrt(n_k) complex exponentials per call instead of
one per node.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import stationary
from .stationary import ScatteringSolution


@dataclass(frozen=True)
class DirectionalSpectrum:
    """|phi(k)|^2 on a symmetric grid with its directional weight split."""

    k: np.ndarray
    density: np.ndarray
    w_plus: float
    w_minus: float
    parseval_rel_err: float
    k_max_too_small: bool

    @property
    def ratio(self) -> float:
        """Left-moving to right-moving weight, W_minus / W_plus."""
        return self.w_minus / self.w_plus


# Points per block of the spectrum grid.  Each of the four complex work
# buffers takes 64 KiB, below glibc's default 128 KiB mmap threshold, so they
# come from the heap instead of being mapped, faulted in page by page and
# unmapped on every call.  A power of two, so a block holds whole rows of the
# phase table.
_BLOCK = 4096

# Largest n_k barrier_k_spectrum takes; its two result arrays then take ~34 MB.
MAX_K_NODES = 2**20


def _phase_table(n_k: int, step: float, l: float):
    """(hi, lo) with e^{-i k_j l} ~ hi[q] lo[r] at k_j = (q len(lo) + r) step.

    len(lo) is a power of two between sqrt(n_k) and 2 sqrt(n_k), at most
    2048 up to MAX_K_NODES, so it divides _BLOCK, and the table takes about
    2 sqrt(n_k) complex exponentials instead of n_k.  Each factor is
    exponentiated from its own rounded k l, so the product differs from
    e^{-i k_j l} by a few ulp of 1 plus the rounding of k l, which
    e^{-i k_j l} carries itself.
    """
    width = 1 << ((n_k.bit_length() + 1) // 2)
    lo = np.exp(-1j * (np.arange(width) * step * l))
    hi = np.exp(-1j * (np.arange(0, n_k, width) * step * l))
    return hi, lo


def _simpson(f: np.ndarray, h: float) -> float:
    """h/3 (f_0 + f_n + 4 sum f_odd + 2 sum f_even) by strided sums.

    np.add.reduce, not np.dot, which would hand the sums to a threaded BLAS
    that can stall for milliseconds when its threads are descheduled.
    """
    odd, even = np.add.reduce(f[1:-1:2]), np.add.reduce(f[2:-1:2])
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * odd + 2.0 * even))


def barrier_k_spectrum(sol: ScatteringSolution, k_max: float,
                       n_k: int = 4001) -> DirectionalSpectrum:
    """Directional wavenumber spectrum of the barrier-region solution.

    Samples |phi(k)|^2 on an exactly mirror-symmetric grid over
    [-k_max, k_max] (n_k points per half, odd) and integrates each half by
    Simpson's rule (_simpson).  The density takes the u/v form of the module
    docstring with its phase from _phase_table; the grid is filled in blocks
    of _BLOCK nodes on four complex and two real work buffers allocated once
    per call, by in-place ufuncs that write both halves straight into the
    density array the result holds, so no temporary spans the grid or a
    block.  The last node, k_max, keeps its own e^{-i k_max l}.  The 1/k^2
    transform tail beyond k_max is estimated from the window boundary
    values; if it holds more than 1% of the windowed mass the result is
    flagged so the caller can enlarge k_max.  An n_k above MAX_K_NODES
    raises ValueError first, and so does a width at which the right-moving
    weight W_+ rounds to 0.
    """
    if sol.barrier.l <= 0.0:
        raise ValueError("the spectrum needs a barrier of positive width")
    if n_k > MAX_K_NODES:
        raise ValueError(f"n_k = {n_k:,} wavenumbers per half-axis is more than "
                         f"the {MAX_K_NODES:,} allowed")
    if n_k % 2 == 0:
        n_k += 1
    if n_k < 3:
        raise ValueError("Simpson integration needs an odd number >= 3 of nodes")
    chi, l = sol.chi, sol.barrier.l
    step = k_max / (n_k - 1)  # np.linspace(0, k_max, n_k) spacing
    mid = n_k - 1             # index of k = 0 in the full grid
    k_full = np.empty(2 * n_k - 1)
    dens_full = np.empty(2 * n_k - 1)
    hi, lo = _phase_table(n_k, step, l)
    width = lo.size
    size = min(_BLOCK, hi.size * width)
    index = np.arange(size, dtype=float)
    den_buf = np.empty(size)
    uz_buf, vz_buf, z_buf, a_buf = (np.empty(size, dtype=complex) for _ in range(4))
    one_minus_e = -math.expm1(-chi * l)
    c, d = sol.N * sol.C_l, sol.N * sol.D
    c_bar, d_bar = c.conjugate(), d.conjugate()
    for start in range(0, n_k, _BLOCK):
        stop = min(start + _BLOCK, n_k)
        n, q = stop - start, start // width
        rows = -(-n // width)
        # p = e^{-ikl} into uz, by einsum: a broadcast multiply would buffer
        # its 2-D operands
        np.einsum("i,j->ij", hi[q:q + rows], lo,
                  out=uz_buf[:rows * width].reshape(rows, width))
        uz, vz, z, a, den = (buf[:n] for buf in (uz_buf, vz_buf, z_buf, a_buf, den_buf))
        k = k_full[mid + start:mid + stop]
        np.add(index[:n], start, out=k)
        np.multiply(k, step, out=k)
        if stop == n_k:
            k[-1] = k_max
            uz[-1] = cmath.exp(-1j * (k_max * l))
        np.multiply(uz, one_minus_e, out=vz)
        np.subtract(uz, 1.0, out=uz)     # p - 1
        np.subtract(vz, uz, out=vz)      # v = 1 - e p = (1 - e) p - (p - 1)
        np.add(uz, one_minus_e, out=uz)  # u = p - e = (p - 1) + (1 - e)
        z.real, z.imag = chi, k
        np.multiply(uz, z, out=uz)       # u (chi + ik)
        np.negative(k, out=z.imag)
        np.multiply(vz, z, out=vz)       # v (chi - ik)
        np.multiply(k, k, out=den)
        np.add(den, chi * chi, out=den)
        np.multiply(den, den, out=den)   # (chi^2 + k^2)^2
        square = z.view(float)[:n]       # real work space once z is added in
        # the positive half is written last, so k = 0 keeps its sample
        for cc, dc, out in ((c_bar, d_bar, dens_full[mid - stop + 1:mid - start + 1][::-1]),
                            (c, d, dens_full[mid + start:mid + stop])):
            np.multiply(uz, cc, out=a)
            np.multiply(vz, dc, out=z)
            np.add(a, z, out=a)
            np.multiply(a.real, a.real, out=out)
            np.multiply(a.imag, a.imag, out=square)
            np.add(out, square, out=out)
            np.divide(out, den, out=out)
    np.negative(k_full[:mid:-1], out=k_full[:mid])  # k = 0 keeps +0.0
    w_plus = _simpson(dens_full[mid:], step)
    w_minus = _simpson(dens_full[mid::-1], step)
    if w_plus == 0.0:
        raise ValueError(f"W_+ = 0 at l = {l}, eps = {sol.eps}: the interior transform "
                         "rounds to 0 at this width, so the ratio W_-/W_+ is undefined")

    window_mass = w_plus + w_minus
    # asymptotics: |phi|^2 ~ (|psi(0)|^2 + |psi(l)|^2)/k^2 averaged over
    # oscillations, with psi(0) = N (1 + R) and psi(l) = N T e^{ikl}, so
    # each side's tail integrates to ~ boundary/k_max
    boundary = sol.N**2 * (abs(1.0 + sol.R) ** 2 + abs(sol.T) ** 2)
    tail = 2.0 * boundary / k_max
    flagged = tail > 0.01 * window_mass

    prob = stationary.barrier_probability(sol)
    parseval = abs(window_mass / (2.0 * math.pi) - prob) / prob if prob > 0 else 0.0

    return DirectionalSpectrum(
        k=k_full, density=dens_full, w_plus=w_plus, w_minus=w_minus,
        parseval_rel_err=float(parseval), k_max_too_small=bool(flagged),
    )
