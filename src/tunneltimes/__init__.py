"""Tunneling-time definitions for a 1D rectangular barrier.

Computes and compares the group delay, phase time, two dwell times and
wave-packet crossing times (peak arrival and quantum mean) of sub-barrier
scattering, together with the directional wavenumber decomposition of the
barrier-region stationary solution.  Everything is dimensionless in recoil
units (see model).  The stationary quantities (model, stationary, times)
take one float energy and compute in Python scalars, and the package
re-exports them alone, so importing it loads no numpy.  numpy serves the
packet's energy grids and the wavenumber spectrum: import those names from
tunneltimes.wavepacket and tunneltimes.spectral.
"""

__version__ = "0.1.0"

from .model import BarrierSpec, PacketSpec, packet_amplitude
from .stationary import ScatteringSolution, solve, phase_shift
from .times import TimesReport, compute_times, delay_crossing, group_delay

__all__ = [
    "__version__",
    "BarrierSpec",
    "PacketSpec",
    "ScatteringSolution",
    "TimesReport",
    "compute_times",
    "delay_crossing",
    "group_delay",
    "packet_amplitude",
    "phase_shift",
    "solve",
]
