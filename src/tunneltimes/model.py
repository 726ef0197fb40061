"""Dimensionless unit conventions and shared parameter types.

All computation in this package is dimensionless: lengths in units of a
reference length L, energies in units of the recoil energy eps_r = hbar*w_r
with w_r = hbar/(2 m L^2), times in units of 1/w_r.  In these units the free
dispersion is eps = k^2 and the group velocity is 2*sqrt(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def require_sub_barrier(u0: float, eps: float) -> None:
    """Raise ValueError unless 0 < eps < u0.

    NaN is rejected, as every comparison with it is false.
    """
    if not 0.0 < eps < u0:
        raise ValueError(
            f"eps = {eps} is not inside (0, u0 = {u0}); only sub-barrier "
            "energies are supported"
        )


@dataclass(frozen=True)
class BarrierSpec:
    """Rectangular barrier of height u0 on 0 <= x <= l (dimensionless)."""

    u0: float
    l: float

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN fails them too
        if not 0.0 <= self.u0 < math.inf:
            raise ValueError(f"barrier height u0 must be finite and >= 0, got {self.u0}")
        if not 0.0 <= self.l < math.inf:
            raise ValueError(f"barrier width l must be finite and >= 0, got {self.l}")
        if self.l == 0.0:  # and -0.0, kept as +0.0: no time of l = 0 takes its sign
            object.__setattr__(self, "l", 0.0)


def packet_amplitude(b: float) -> float:
    """Normalization amplitude A = sqrt(2/(3 pi b)) of the raised-cosine packet.

    With this A the envelope A*(1 - cos(2x/b)) on (-pi*b, 0) has unit L2 norm:
    the envelope-squared integral equals A^2 * (b/2) * int_0^{2pi} (1-cos u)^2 du
    = A^2 * 3*pi*b/2.
    """
    if not 0.0 < b < math.inf:
        raise ValueError(f"half-width b must be positive and finite, got {b}")
    return math.sqrt(2.0 / (3.0 * math.pi * b))


@dataclass(frozen=True)
class PacketSpec:
    """Initial wave packet A*(1 - cos(2x/b))*exp(i p x) supported on (-pi*b, 0).

    p is the mean momentum (must be positive: the packet moves toward the
    barrier), b the half-width parameter.  The amplitude A is derived so the
    packet has unit norm; the density maximum (and mean, by symmetry) sits at
    -pi*b/2.
    """

    p: float
    b: float
    amplitude: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.p < math.inf:
            raise ValueError(f"mean momentum p must be positive and finite, got {self.p}")
        object.__setattr__(self, "amplitude", packet_amplitude(self.b))
