"""Tunneling-time definitions for a 1D rectangular barrier.

Computes and compares the group delay, phase time, two dwell times and
wave-packet crossing times (peak arrival and quantum mean) of sub-barrier
scattering, together with the directional wavenumber decomposition of the
barrier-region stationary solution.  Everything is dimensionless in recoil
units; see model.UnitScale for SI conversion.
"""

__version__ = "0.1.0"

from .model import (
    BarrierSpec,
    Energy,
    PacketSpec,
    UnitScale,
    from_physical,
    packet_amplitude,
    to_physical,
)
from .stationary import ScatteringSolution, solve, phase_shift
from .times import (
    TimesReport,
    compute_times,
    delay_crossing,
    dwell_time_incident,
    dwell_time_transmitted,
    free_group_time,
    free_phase_time,
    group_delay,
    hartman_limit,
    phase_time,
)
from .wavepacket import (
    ArrivalTime,
    EnergyGridSpec,
    MeanTime,
    SpectralAmplitude,
    TimeSeries,
    arrival_time_of_max,
    free_arrival_time,
    free_spectral_amplitude,
    mean_crossing_time,
    scan_arrival,
    spectral_amplitude,
    synthesize,
)
from .spectral import DirectionalSpectrum, barrier_k_spectrum

__all__ = [
    "__version__",
    "ArrivalTime",
    "BarrierSpec",
    "DirectionalSpectrum",
    "Energy",
    "EnergyGridSpec",
    "MeanTime",
    "PacketSpec",
    "ScatteringSolution",
    "SpectralAmplitude",
    "TimeSeries",
    "TimesReport",
    "UnitScale",
    "arrival_time_of_max",
    "barrier_k_spectrum",
    "compute_times",
    "delay_crossing",
    "dwell_time_incident",
    "dwell_time_transmitted",
    "free_arrival_time",
    "free_group_time",
    "free_phase_time",
    "free_spectral_amplitude",
    "from_physical",
    "group_delay",
    "hartman_limit",
    "mean_crossing_time",
    "packet_amplitude",
    "phase_shift",
    "phase_time",
    "scan_arrival",
    "solve",
    "spectral_amplitude",
    "synthesize",
    "to_physical",
]
