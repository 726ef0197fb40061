import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import initial_wavefunction, packet_center, packet_support
from tunneltimes.model import (
    HBAR,
    BarrierSpec,
    PacketSpec,
    UnitScale,
    from_physical,
    packet_amplitude,
    require_sub_barrier,
    to_physical,
)


class TestUnitScale:
    def test_unit_recoil_frequency_maps_time_one_to_one_second(self):
        mass = 9.109e-31
        scale = UnitScale(l_ref=math.sqrt(HBAR / (2.0 * mass)), mass=mass)
        assert scale.recoil_frequency == pytest.approx(1.0, rel=1e-12)
        assert to_physical(1.0, "time", scale) == pytest.approx(1.0, rel=1e-12)

    def test_length_conversion(self):
        scale = UnitScale(l_ref=1e-9, mass=9.109e-31)
        assert to_physical(2.0, "length", scale) == pytest.approx(2e-9, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("kind", ["length", "time", "energy"])
    def test_round_trip(self, kind):
        scale = UnitScale(l_ref=2.5e-10, mass=1.675e-27)
        for value in (1.0, 3.7, 1e-4, 8.2e5):
            back = from_physical(to_physical(value, kind, scale), kind, scale)
            assert back == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_rejects_unknown_kind(self):
        scale = UnitScale(l_ref=1e-9, mass=1e-30)
        with pytest.raises(ValueError, match="kind"):
            to_physical(1.0, "momentum", scale)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            UnitScale(l_ref=0.0, mass=1e-30)
        with pytest.raises(ValueError):
            UnitScale(l_ref=1e-9, mass=-1.0)


class TestEnergy:
    def test_chi_requires_sub_barrier(self):
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, 13.0)
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, 12.0)
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, np.array([6.0, 12.0]))
        require_sub_barrier(12.0, 11.9)
        require_sub_barrier(12.0, np.array([0.1, 6.0, 11.9]))

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, 0.0)
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, -1.0)
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, np.array([0.0, 6.0]))


class TestBarrierSpec:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            BarrierSpec(-1.0, 1.0)
        with pytest.raises(ValueError):
            BarrierSpec(1.0, -0.5)

    @pytest.mark.parametrize("u0,l", [
        (math.nan, 1.0), (math.inf, 1.0), (12.0, math.nan), (12.0, math.inf),
        (12.0, -math.inf),
    ])
    def test_rejects_non_finite_parameters(self, u0, l):
        with pytest.raises(ValueError, match="finite"):
            BarrierSpec(u0, l)


class TestPacket:
    def test_amplitude_value(self):
        # analytic: int_0^{2pi} (1 - cos u)^2 du = 3 pi, so A = sqrt(2/(3 pi b))
        assert packet_amplitude(2.0) == pytest.approx(0.325735007935280, rel=1e-12, abs=0.0)

    def test_amplitude_unity_case(self):
        assert packet_amplitude(2.0 / (3.0 * math.pi)) == pytest.approx(1.0, rel=1e-12)

    def test_amplitude_rejects_bad_b(self):
        with pytest.raises(ValueError):
            packet_amplitude(0.0)
        with pytest.raises(ValueError):
            packet_amplitude(-2.0)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
    def test_unit_norm_by_quadrature(self, b):
        packet = PacketSpec(p=3.6, b=b)
        norm, _ = quad(lambda x: abs(initial_wavefunction(packet, x)) ** 2,
                       -math.pi * b, 0.0, epsabs=1e-13, limit=200)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_geometry(self):
        packet = PacketSpec(p=3.6, b=2.0)
        assert packet_support(packet) == (-2.0 * math.pi, 0.0)
        assert packet_center(packet) == -math.pi
        assert initial_wavefunction(packet, 1.0) == 0.0
        assert initial_wavefunction(packet, -7.0) == 0.0

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            PacketSpec(p=0.0, b=2.0)
        with pytest.raises(ValueError):
            PacketSpec(p=-3.6, b=2.0)

    @pytest.mark.parametrize("p,b", [
        (math.nan, 2.0), (math.inf, 2.0), (3.6, math.nan), (3.6, math.inf),
    ])
    def test_rejects_non_finite_parameters(self, p, b):
        with pytest.raises(ValueError, match="finite"):
            PacketSpec(p=p, b=b)
