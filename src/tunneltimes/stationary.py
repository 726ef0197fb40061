"""Stationary scattering states of the rectangular barrier, sub-barrier branch.

For 0 < eps < u0 the state incident from the left with unit amplitude is

    x < 0:        exp(ikx) + R exp(-ikx)
    0 <= x <= l:  C exp(chi x) + D exp(-chi x)
    x > l:        T exp(ikx)

with k = sqrt(eps), chi = sqrt(u0 - eps).  Matching value and slope at both
interfaces gives, with g = (k^2 - chi^2)/(2 k chi), q = exp(-2 chi l) and
1 - q = -expm1(-2 chi l),

    denom = (1 + q) - i g (1 - q)
    T = 2 exp(-ikl) exp(-chi l) / denom
    C = q (1 + ik/chi) / denom,   D = (1 - ik/chi) / denom,
    R = C + D - 1 = -i (1 - q) u0 / (2 k chi denom).

No term of denom or R cancels, neither as chi*l -> 0 nor as it grows, and
this scaled form never exponentiates +chi*l, so opaque barriers (chi*l large)
evaluate without overflow.  The interior growing wave is carried as the
scaled coefficient C_l = C e^{chi l} = exp(-chi l) (1 + ik/chi) / denom, so
that the interior field C_l e^{chi (x - l)} + D e^{-chi x} has exponents
<= 0 on the barrier.  States are normalized to a delta function in
energy via N = (4 pi k)^(-1/2), i.e. plane-wave delta(k - k') normalization
divided by d(eps)/dk = 2k.

This module evaluates one float energy at a time, in math and cmath, and
imports no numpy.  _wavenumbers, the one place k, chi and g are formed,
_barrier_kernel and normalization take their library from the caller, so
wavepacket runs the same forms through numpy on its energy nodes.  A width
at which k l or chi l overflows is refused by name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .model import BarrierSpec, require_sub_barrier

# Below this theta = chi l, _q_theta sums a Taylor series: its direct form cancels.
THIN_THETA = 0.5

# Taylor coefficients of (sinh 2theta - 2theta)/theta^3 in powers of theta^2,
# 2^(2n+1)/(2n+1)! for n >= 1; nine terms reach 1e-16 at theta = THIN_THETA.
_SINH_EXCESS = tuple(2.0 ** (2 * n + 1) / math.factorial(2 * n + 1)
                     for n in range(1, 10))


def amplitudes(u0: float, l: float, eps: float):
    """(T, R, C_l, D) for 0 < eps < u0, the tail of _state; C_l = C e^{chi l}."""
    return _state(u0, l, eps)[3:]


def _state(u0: float, l: float, eps: float):
    """(k, chi, g, T, R, C_l, D) of one energy, in math and cmath, by the forms above.

    Checks 0 < eps < u0, once; raises ValueError where k l or chi l overflows.
    """
    require_sub_barrier(u0, eps)
    k, chi, g = _wavenumbers(u0, eps, math)
    _check_width(k, chi, l, eps)
    decay, denom, R = _barrier_kernel(u0, l, k, chi, g, math)
    ik_chi = 1j * k / chi
    T = 2.0 * cmath.exp(-1j * k * l) * decay / denom
    C_l = decay * (1.0 + ik_chi) / denom
    D = (1.0 - ik_chi) / denom
    return k, chi, g, T, R, C_l, D


def _wavenumbers(u0: float, eps, lib):
    """(k, chi, g) by the forms above; lib supplies sqrt: math for one float
    energy, numpy for wavepacket's energy nodes."""
    k = lib.sqrt(eps)
    chi = lib.sqrt(u0 - eps)
    return k, chi, (k * k - chi * chi) / (2.0 * k * chi)


def _check_width(k: float, chi: float, l: float, eps: float) -> None:
    """ValueError, by name, where k l or chi l overflows."""
    if math.isinf(k * l):
        raise ValueError(f"k l overflows at l = {l}, eps = {eps}: the phase "
                         "e^(-ikl) of T is undefined")
    if math.isinf(chi * l):
        raise _theta_overflow(l, eps)


def _theta_overflow(l: float, eps: float) -> ValueError:
    """The error where theta = chi l overflows, at which _q_theta is inf * 0."""
    return ValueError(f"chi l overflows at l = {l}, eps = {eps}: Q(chi l) of "
                      "tau_g and the barrier probability is undefined")


def _barrier_kernel(u0: float, l: float, k, chi, g, lib):
    """(e^{-theta}, denom, R) at theta = chi l.

    With q = e^{-2 theta} and 1 - q = -expm1(-2 theta), denom = (1 + q) -
    i g (1 - q) and R = -i (1 - q) u0 / (2 k chi denom): no term of either
    cancels at any theta.  lib supplies exp and expm1: math for one float
    energy (amplitudes), numpy for the packet's energy nodes (wavepacket);
    the two may differ in the last bit.
    """
    theta = chi * l
    decay = lib.exp(-theta)
    one_minus_q = -lib.expm1(-2.0 * theta)
    denom = (1.0 + decay * decay) - 1j * g * one_minus_q
    return decay, denom, -1j * one_minus_q * u0 / (2.0 * k * chi * denom)


def normalization(eps, lib):
    """Energy-delta normalization constant N = (4 pi sqrt(eps))^(-1/2).

    lib supplies sqrt: math for one float energy, numpy for wavepacket's
    array of energy nodes.  sqrt rounds correctly in both.
    """
    return 1.0 / lib.sqrt(4.0 * math.pi * lib.sqrt(eps))


@dataclass(frozen=True)
class ScatteringSolution:
    """One stationary sub-barrier scattering state at energy eps."""

    barrier: BarrierSpec
    eps: float
    R: complex
    T: complex
    C_l: complex  # C e^{chi l}
    D: complex
    N: float

    @property
    def k(self) -> float:
        """Propagating wavenumber k = sqrt(eps)."""
        return math.sqrt(self.eps)

    @property
    def chi(self) -> float:
        """Evanescent decay constant chi = sqrt(u0 - eps)."""
        return math.sqrt(self.barrier.u0 - self.eps)


def solve(barrier: BarrierSpec, eps: float) -> ScatteringSolution:
    """Solve the matching problem for one sub-barrier energy."""
    T, R, C_l, D = amplitudes(barrier.u0, barrier.l, eps)
    return ScatteringSolution(barrier=barrier, eps=eps, R=R, T=T, C_l=C_l, D=D,
                              N=normalization(eps, math))


def phase_shift(barrier: BarrierSpec, eps: float) -> float:
    """Transmission phase alpha = atan(g tanh(chi l)) - k l: arg T modulo 2 pi,
    continuous in both l and eps, and 0 at l = 0.  A width at which k l or
    chi l overflows raises the ValueError of _state."""
    require_sub_barrier(barrier.u0, eps)
    k, chi, g = _wavenumbers(barrier.u0, eps, math)
    _check_width(k, chi, barrier.l, eps)
    return math.atan(g * math.tanh(chi * barrier.l)) - k * barrier.l


def barrier_probability(sol: ScatteringSolution) -> float:
    """Integral of |N psi_eps|^2 over the barrier region [0, l], in closed form.

    The field is written from the barrier exit: with y = l - x and
    psi(l) = T e^{ikl}, psi = psi(l) [cosh(chi y) - (ik/chi) sinh(chi y)],
    whose cross term vanishes.  With |T|^2 = 4 e^{-2 theta} / |denom|^2 and
    |D|^2 = u0 / (chi^2 |denom|^2) it integrates to
        |T|^2 l + |D|^2 Q(theta) / (2 chi),
        Q(theta) = 2 e^{-2 theta} (sinh 2theta - 2theta)
                 = (1 - e^{-4 theta}) - 4 theta e^{-2 theta},
    two nonnegative terms in which no exponential grows (_q_theta).
    """
    chi, l = sol.chi, sol.barrier.l
    return _probability(sol.N**2, sol.T, sol.D, chi, l, _q_theta(chi * l))


def _probability(N2: float, T: complex, D: complex, chi: float, l: float, Q: float) -> float:
    """N^2 (|T|^2 l + |D|^2 Q / (2 chi)), the closed form of barrier_probability."""
    return N2 * (abs(T) ** 2 * l + abs(D) ** 2 * Q / (2.0 * chi))


def _q_theta(theta: float) -> float:
    """Q = 2 e^{-2 theta} (sinh 2theta - 2theta) of barrier_probability and times.group_delay.

    Below THIN_THETA (sinh 2theta - 2theta)/theta^3 is its Taylor series; above it
    Q = (1 - e^{-4 theta}) - 4 theta e^{-2 theta} >= 0.129 loses at most ~3 bits.
    """
    if theta < THIN_THETA:
        t2 = theta * theta
        excess = 0.0
        for c in reversed(_SINH_EXCESS):
            excess = excess * t2 + c
        return 2.0 * math.exp(-2.0 * theta) * theta * t2 * excess
    return -math.expm1(-4.0 * theta) - 4.0 * theta * math.exp(-2.0 * theta)
