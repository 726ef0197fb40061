"""Dimensionless unit conventions and shared parameter types.

All computation in this package is dimensionless: lengths in units of a
reference length L, energies in units of the recoil energy eps_r = hbar*w_r
with w_r = hbar/(2 m L^2), times in units of 1/w_r.  In these units the free
dispersion is eps = k^2 and the group velocity is 2*sqrt(eps).  ``UnitScale``
converts results to SI for presentation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HBAR = 1.054571817e-34  # J s

_SCALE_KINDS = ("length", "time", "energy")


@dataclass(frozen=True)
class UnitScale:
    """SI scale factors for one choice of reference length and particle mass."""

    l_ref: float  # meters
    mass: float   # kg

    def __post_init__(self):
        if not (self.l_ref > 0.0 and self.mass > 0.0):
            raise ValueError("l_ref and mass must be positive")

    @property
    def recoil_frequency(self) -> float:
        """w_r = hbar / (2 m L^2), in rad/s."""
        return HBAR / (2.0 * self.mass * self.l_ref**2)

    @property
    def recoil_energy(self) -> float:
        """eps_r = hbar * w_r, in joules."""
        return HBAR * self.recoil_frequency


def to_physical(value: float, kind: str, scale: UnitScale) -> float:
    """Convert a dimensionless value to SI units.

    kind is one of 'length' (-> meters), 'time' (-> seconds) or
    'energy' (-> joules).
    """
    if kind == "length":
        return value * scale.l_ref
    if kind == "time":
        return value / scale.recoil_frequency
    if kind == "energy":
        return value * scale.recoil_energy
    raise ValueError(f"unknown quantity kind {kind!r}, expected one of {_SCALE_KINDS}")


def from_physical(value: float, kind: str, scale: UnitScale) -> float:
    """Inverse of :func:`to_physical`."""
    if kind == "length":
        return value / scale.l_ref
    if kind == "time":
        return value * scale.recoil_frequency
    if kind == "energy":
        return value / scale.recoil_energy
    raise ValueError(f"unknown quantity kind {kind!r}, expected one of {_SCALE_KINDS}")


def require_sub_barrier(u0: float, eps) -> None:
    """Raise ValueError unless 0 < eps < u0, at every entry of an array eps.

    NaN is rejected, as every comparison with it is false.
    """
    if isinstance(eps, np.ndarray):
        outside = ~((eps > 0.0) & (eps < u0))
        if not outside.any():
            return
        eps = eps[outside][0]
    elif 0.0 < eps < u0:
        return
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
