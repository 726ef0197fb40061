"""Wavenumber decomposition of the barrier-region stationary solution.

The interior field C e^{chi x} + D e^{-chi x} on the window [0, l] is Fourier
transformed, phi(k) = int_0^l psi_eps(x) e^{-ikx} dx, and the spectral weight
is split between right-moving (k > 0) and left-moving (k < 0) components.
For a left-incident sub-barrier solution the right-moving share always
dominates, and the left-moving share grows with barrier width toward a
finite asymptote.
"""

from __future__ import annotations

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


def interior_window_transform(C_l, D, chi: float, l: float, k):
    """(phi(k), phi(-k)), phi(k) = int_0^l (C_l e^{chi (x - l)} + D e^{-chi x}) e^{-ikx} dx.

    Closed form in the scaled coefficient C_l = C e^{chi l}, so +chi*l is
    never exponentiated and opaque barriers evaluate without overflow.  Both
    signs of k share one e^{-ikl}: e^{+ikl} is its conjugate.
    """
    k = np.asarray(k, dtype=float)
    e = math.exp(-chi * l)
    phase = np.exp(-1j * k * l)
    ik = 1j * k
    return tuple((C_l * p - e * C_l) / (chi - s) + (D - D * e * p) / (chi + s)
                 for p, s in ((phase, ik), (np.conj(phase), -ik)))


# Points per block of the spectrum grid: a block's complex temporaries take
# 64 KiB, below glibc's default 128 KiB mmap threshold, so they come from the
# heap instead of being mapped and unmapped on every call.
_BLOCK = 4096

# Largest n_k barrier_k_spectrum takes; its arrays then peak at ~50 MB.
MAX_K_NODES = 2**20


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def barrier_k_spectrum(sol: ScatteringSolution, k_max: float,
                       n_k: int = 4001) -> DirectionalSpectrum:
    """Directional wavenumber spectrum of the barrier-region solution.

    Samples |phi(k)|^2 on an exactly mirror-symmetric grid over
    [-k_max, k_max] (n_k points per half, odd) and integrates each half with
    Simpson weights.  Both halves are filled block by block straight into
    the density array the result holds.  The 1/k^2 transform tail beyond
    k_max is estimated from the window boundary values; if it holds more
    than 1% of the windowed mass the result is flagged so the caller can
    enlarge k_max.  An n_k above MAX_K_NODES raises ValueError first, and
    so does a width at which the right-moving weight W_+ rounds to 0.
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
    for start in range(0, n_k, _BLOCK):
        stop = min(start + _BLOCK, n_k)
        kp = np.arange(start, stop, dtype=float) * step
        if stop == n_k:
            kp[-1] = k_max
        phi_p, phi_m = interior_window_transform(sol.C_l, sol.D, chi, l, kp)
        phi_p *= sol.N
        phi_m *= sol.N
        # the positive half is written last, so k = 0 keeps +0.0 and its sample
        k_full[mid - stop + 1:mid - start + 1] = -kp[::-1]
        dens_full[mid - stop + 1:mid - start + 1] = (np.abs(phi_m) ** 2)[::-1]
        k_full[mid + start:mid + stop] = kp
        dens_full[mid + start:mid + stop] = np.abs(phi_p) ** 2
    w = _simpson_weights(n_k, step)
    # np.dot would hand these sums to a threaded BLAS, which can stall for
    # milliseconds when its threads are descheduled
    w_plus = float(np.add.reduce(w * dens_full[mid:]))
    w_minus = float(np.add.reduce(w * dens_full[mid::-1]))
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
