"""Stationary scattering states of the rectangular barrier, sub-barrier branch.

For 0 < eps < u0 the state incident from the left with unit amplitude is

    x < 0:        exp(ikx) + R exp(-ikx)
    0 <= x <= l:  C exp(chi x) + D exp(-chi x)
    x > l:        T exp(ikx)

with k = sqrt(eps), chi = sqrt(u0 - eps).  Matching value and slope at both
interfaces gives, with g = (k^2 - chi^2)/(2 k chi) and q = exp(-2 chi l),

    denom = (1 - i g) + q (1 + i g)
    T = 2 exp(-ikl) exp(-chi l) / denom
    C = q (1 + ik/chi) / denom,   D = (1 - ik/chi) / denom,   R = C + D - 1.

This scaled form never exponentiates +chi*l, so opaque barriers (chi*l large)
evaluate without overflow.  The interior growing wave is carried as the
scaled coefficient C_l = C e^{chi l} = exp(-chi l) (1 + ik/chi) / denom, so
that the interior field C_l e^{chi (x - l)} + D e^{-chi x} has exponents
<= 0 on the barrier.  States are normalized to a delta function in
energy via N = (4 pi k)^(-1/2), i.e. plane-wave delta(k - k') normalization
divided by d(eps)/dk = 2k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BarrierSpec, Energy, require_sub_barrier


def amplitudes(u0: float, l: float, eps):
    """Transmission/reflection/interior amplitudes (T, R, C_l, D) for eps < u0.

    C_l = C e^{chi l} is the scaled growing-wave coefficient.  Vectorized
    over eps; uses the overflow-safe scaled form above.
    """
    eps = np.asarray(eps, dtype=float)
    require_sub_barrier(u0, eps)
    k = np.sqrt(eps)
    chi = np.sqrt(u0 - eps)
    g = (k * k - chi * chi) / (2.0 * k * chi)
    q = np.exp(-2.0 * chi * l)
    decay = np.exp(-chi * l)
    ik_chi = 1j * k / chi
    denom = (1.0 - 1j * g) + q * (1.0 + 1j * g)
    T = 2.0 * np.exp(-1j * k * l) * decay / denom
    C_l = decay * (1.0 + ik_chi) / denom
    D = (1.0 - ik_chi) / denom
    R = decay * C_l + D - 1.0
    return T, R, C_l, D


def normalization(eps) -> np.ndarray:
    """Energy-delta normalization constant N = (4 pi sqrt(eps))^(-1/2)."""
    return 1.0 / np.sqrt(4.0 * np.pi * np.sqrt(np.asarray(eps, dtype=float)))


@dataclass(frozen=True)
class ScatteringSolution:
    """One stationary sub-barrier scattering state."""

    barrier: BarrierSpec
    energy: Energy
    R: complex
    T: complex
    C_l: complex  # C e^{chi l}
    D: complex
    N: float

    @property
    def k(self) -> float:
        return self.energy.k

    @property
    def chi(self) -> float:
        return self.energy.chi(self.barrier)


def solve(barrier: BarrierSpec, energy: Energy | float) -> ScatteringSolution:
    """Solve the matching problem for one sub-barrier energy."""
    if not isinstance(energy, Energy):
        energy = Energy(float(energy))
    T, R, C_l, D = amplitudes(barrier.u0, barrier.l, energy.eps)
    return ScatteringSolution(
        barrier=barrier,
        energy=energy,
        R=complex(R),
        T=complex(T),
        C_l=complex(C_l),
        D=complex(D),
        N=float(normalization(energy.eps)),
    )


def phase_shift(barrier: BarrierSpec, eps: float) -> float:
    """Branch-continuous transmission phase.

    alpha = -k l + atan(g tanh(chi l)) with g = (k^2 - chi^2)/(2 k chi); this
    equals arg T modulo 2 pi, is continuous in both l and eps, and vanishes
    at l = 0.
    """
    require_sub_barrier(barrier.u0, eps)
    k = math.sqrt(eps)
    chi = math.sqrt(barrier.u0 - eps)
    g = (k * k - chi * chi) / (2.0 * k * chi)
    return -k * barrier.l + math.atan(g * math.tanh(chi * barrier.l))


def _three_region(x, l: float, k, chi, T, R, C_l, D, slope: bool = False):
    """Unnormalized psi_eps(x), or d(psi_eps)/dx when slope is set.

    The result has the shape of x followed by the shape of k: k, chi and the
    amplitudes are scalars, or 1-d arrays over energy that give each
    position one entry per energy.  Each region's form is evaluated only at
    the positions inside it, so no exponential of a far-away position is
    formed, and on the barrier both exponents chi (x - l) and -chi x are <= 0.
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


def wavefunction_at(sol: ScatteringSolution, x):
    """Normalized stationary wave function N * psi_eps(x); vectorized over x."""
    psi = sol.N * _three_region(x, sol.barrier.l, sol.k, sol.chi, sol.T, sol.R,
                                sol.C_l, sol.D)
    return psi if psi.ndim else complex(psi)


def current(sol: ScatteringSolution, x) -> float:
    """Probability current j = 2 Im(psi* dpsi/dx) of the full solution.

    The convention makes a unit plane wave e^{ikx} carry j = 2k, matching the
    dimensionless group velocity 2*sqrt(eps).  For a stationary solution j is
    x-independent and equals 2 k N^2 |T|^2.
    """
    psi = wavefunction_at(sol, x)
    dpsi = sol.N * _three_region(x, sol.barrier.l, sol.k, sol.chi, sol.T, sol.R,
                                 sol.C_l, sol.D, slope=True)
    j = 2.0 * np.imag(np.conj(psi) * dpsi)
    return float(j) if np.ndim(j) == 0 else j


def incident_current(sol: ScatteringSolution) -> float:
    """Current of the incident part alone, j_in = 2 k N^2."""
    return 2.0 * sol.k * sol.N**2


def transmitted_current(sol: ScatteringSolution) -> float:
    """Current of the transmitted part, equal to the full current 2 k N^2 |T|^2."""
    return 2.0 * sol.k * sol.N**2 * abs(sol.T) ** 2


def barrier_probability(sol: ScatteringSolution) -> float:
    """Integral of |N psi_eps|^2 over the barrier region [0, l], in closed form.

    The interior density integrates to
        (|C e^{chi l}|^2 - |C|^2)/(2 chi) + (|D|^2 - |D e^{-chi l}|^2)/(2 chi)
        + 2 Re(C D*) l,
    with every exponential kept in its decaying form.
    """
    chi, l = sol.chi, sol.barrier.l
    if l == 0.0:
        return 0.0
    e = math.exp(-chi * l)
    cl = sol.C_l                                # C e^{chi l}
    c0 = e * cl                                 # C
    d0 = sol.D
    dl = e * d0                                 # D e^{-chi l}
    grow = (abs(cl) ** 2 - abs(c0) ** 2) / (2.0 * chi)
    decay = (abs(d0) ** 2 - abs(dl) ** 2) / (2.0 * chi)
    cross = 2.0 * (c0 * d0.conjugate()).real * l
    return sol.N**2 * (grow + decay + cross)
