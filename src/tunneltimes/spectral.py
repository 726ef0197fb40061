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


def interior_window_transform(C_l, D, chi: float, l: float, k) -> np.ndarray:
    """phi(k) = int_0^l (C_l e^{chi (x - l)} + D e^{-chi x}) e^{-ikx} dx.

    Closed form in the scaled coefficient C_l = C e^{chi l}, so +chi*l is
    never exponentiated and opaque barriers evaluate without overflow.
    """
    k = np.asarray(k, dtype=float)
    e = math.exp(-chi * l)
    phase = np.exp(-1j * k * l)
    grow = (C_l * phase - e * C_l) / (chi - 1j * k)
    decay = (D - D * e * phase) / (chi + 1j * k)
    return grow + decay


def _simpson_weights(n: int, h: float) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson integration needs an odd number >= 3 of nodes")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def barrier_k_spectrum(sol: ScatteringSolution, k_max: float,
                       n_k: int = 4001) -> DirectionalSpectrum:
    """Directional wavenumber spectrum of the barrier-region solution.

    Samples |phi(k)|^2 on an exactly mirror-symmetric grid over
    [-k_max, k_max] (n_k points per half, odd) and integrates each half with
    Simpson weights.  The 1/k^2 transform tail beyond k_max is estimated from
    the window boundary values; if it holds more than 1% of the windowed mass
    the result is flagged so the caller can enlarge k_max.
    """
    if sol.barrier.l <= 0.0:
        raise ValueError("the spectrum needs a barrier of positive width")
    if n_k % 2 == 0:
        n_k += 1
    kp = np.linspace(0.0, k_max, n_k)
    chi, l = sol.chi, sol.barrier.l
    phi_p = sol.N * interior_window_transform(sol.C_l, sol.D, chi, l, kp)
    phi_m = sol.N * interior_window_transform(sol.C_l, sol.D, chi, l, -kp)
    dens_p = np.abs(phi_p) ** 2
    dens_m = np.abs(phi_m) ** 2
    w = _simpson_weights(n_k, kp[1] - kp[0])
    w_plus = float(np.dot(w, dens_p))
    w_minus = float(np.dot(w, dens_m))

    window_mass = w_plus + w_minus
    # asymptotics: |phi|^2 ~ (|psi(0)|^2 + |psi(l)|^2)/k^2 averaged over
    # oscillations, so each side's tail integrates to ~ boundary/k_max
    psi0 = stationary.wavefunction_at(sol, 0.0)
    psil = stationary.wavefunction_at(sol, sol.barrier.l)
    boundary = abs(psi0) ** 2 + abs(psil) ** 2
    tail = 2.0 * boundary / k_max
    flagged = tail > 0.01 * window_mass

    prob = stationary.barrier_probability(sol)
    parseval = abs(window_mass / (2.0 * math.pi) - prob) / prob if prob > 0 else 0.0

    k_full = np.concatenate([-kp[::-1][:-1], kp])
    dens_full = np.concatenate([dens_m[::-1][:-1], dens_p])
    return DirectionalSpectrum(
        k=k_full, density=dens_full, w_plus=w_plus, w_minus=w_minus,
        parseval_rel_err=float(parseval), k_max_too_small=bool(flagged),
    )
