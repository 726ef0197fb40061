import pytest

from tunneltimes.model import BarrierSpec, PacketSpec
from tunneltimes import wavepacket as wp

# the wave-packet configuration exercised throughout: u0 = 31.4, p = 3.6, b = 2
PACKET = PacketSpec(p=3.6, b=2.0)
U0 = 31.4


@pytest.fixture(scope="session")
def arrival_sweep():
    """(t_in, [(l, ArrivalTime, captured_weight)]) for integer widths 1..12."""
    t_in = wp.free_arrival_time(PACKET, U0, t_max=30.0)
    rows = []
    for l in range(1, 13):
        arr, famp = wp.scan_arrival(PACKET, BarrierSpec(U0, float(l)),
                                    t_max=30.0, t_in=t_in)
        rows.append((float(l), arr, famp.captured_weight))
    return t_in, rows


@pytest.fixture(scope="session")
def mean_sweep():
    """[(l, t_mean)] at t_cut = 60 over widths whose endpoint share S passes.

    S ln 2 <= MEAN_DRIFT_TOL t_mean holds up to l = 3.590 for this packet.
    """
    grid = wp.EnergyGridSpec.for_horizon(U0, 60.0)
    rows = []
    for l in (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25):
        famp = wp.spectral_amplitude(PACKET, BarrierSpec(U0, l), grid)
        mean = wp.mean_crossing_time(famp, l, 60.0, dt=0.02)
        rows.append((l, mean.t_mean))
    return rows
