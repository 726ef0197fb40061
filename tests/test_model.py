import math

import pytest
from scipy.integrate import quad

from helpers import initial_wavefunction, packet_center, packet_support
from tunneltimes.model import BarrierSpec, PacketSpec, packet_amplitude, require_sub_barrier


class TestEnergy:
    def test_chi_requires_sub_barrier(self):
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, 13.0)
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, 12.0)
        require_sub_barrier(12.0, 11.9)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, 0.0)
        with pytest.raises(ValueError):
            require_sub_barrier(12.0, -1.0)


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
