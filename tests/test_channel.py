import math

import pytest

from uavfl.channel import (ChannelParams, LinkGeometry, capacity, channel_gain,
                           link_geometry, path_loss_exponent)
from uavfl.errors import CoincidentPositions, InvariantViolation
from uavfl.types import Position3D

REL = 1e-12


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def make_params(beta0=1.0, noise_psd=1e-6, bandwidth=1e6, bs_power=1.0,
                a1=10.39, a2=2.09, a3=0.05, a4=7.37) -> ChannelParams:
    return ChannelParams(beta0=beta0, noise_psd_w=noise_psd, bandwidth_hz=bandwidth,
                         bs_tx_power_w=bs_power, a1=a1, a2=a2, a3=a3, a4=a4)


class TestLinkGeometry:
    def test_vertical_link(self):
        g = link_geometry(Position3D(0, 0, 100), Position3D(0, 0, 0))
        assert g.distance_m == 100.0
        assert g.elevation_deg == 90.0

    def test_right_triangle(self):
        g = link_geometry(Position3D(100, 0, 100), Position3D(0, 0, 0))
        assert rel_err(g.distance_m, math.sqrt(2) * 100.0) <= REL
        assert rel_err(g.elevation_deg, 45.0) <= REL

    def test_coincident_positions(self):
        with pytest.raises(CoincidentPositions):
            link_geometry(Position3D(1, 2, 3), Position3D(1, 2, 3))

    def test_invariants(self):
        with pytest.raises(InvariantViolation):
            LinkGeometry(distance_m=0.0, elevation_deg=10.0)
        with pytest.raises(InvariantViolation):
            LinkGeometry(distance_m=1.0, elevation_deg=91.0)


class TestPathLossExponent:
    def test_hand_evaluated_at_theta_equals_a4(self):
        # theta == a4 makes the exponential exactly 1
        plc = ChannelParams(a1=2.0, a2=2.0, a3=0.1, a4=10.0)
        g = LinkGeometry(distance_m=1.0, elevation_deg=10.0)
        assert rel_err(path_loss_exponent(g, plc), 2.0 / 11.0 + 2.0) <= REL

    def test_hand_evaluated_a3_zero(self):
        plc = ChannelParams(a1=1.0, a2=2.0, a3=0.0, a4=1.0)
        for theta in (0.0, 17.5, 90.0):
            g = LinkGeometry(distance_m=1.0, elevation_deg=theta)
            assert rel_err(path_loss_exponent(g, plc), 2.5) <= REL

    def test_vanishing_numerator_limit(self):
        plc = ChannelParams(a1=1e-300, a2=2.09, a3=0.05, a4=7.37)
        g = LinkGeometry(distance_m=1.0, elevation_deg=30.0)
        assert rel_err(path_loss_exponent(g, plc), 2.09) <= REL


class TestChannelGain:
    def test_unit_distance(self):
        params = make_params(beta0=1.0)
        g = LinkGeometry(distance_m=1.0, elevation_deg=45.0)
        assert channel_gain(g, params) == 1.0

    def test_hand_evaluated_free_space(self):
        # a1 -> 0 forces the exponent to a2 = 2 exactly in float arithmetic
        params = make_params(beta0=1e-4, a1=1e-300, a2=2.0, a3=0.05, a4=7.37)
        g = LinkGeometry(distance_m=100.0, elevation_deg=45.0)
        assert rel_err(channel_gain(g, params), 1e-4) <= REL

    def test_reciprocity(self):
        params = make_params(beta0=1e-4)
        a, b = Position3D(120, 45, 100), Position3D(500, 500, 30)
        h1 = channel_gain(link_geometry(a, b), params)
        h2 = channel_gain(link_geometry(b, a), params)
        assert h1 == h2


class TestCapacity:
    def test_unit_snr(self):
        # P h^2 / (W sigma^2) = 1 with W = 1e6 gives R = 1e6 bits/s exactly
        params = make_params(noise_psd=1e-6, bandwidth=1e6)
        assert rel_err(capacity(1.0, 1.0, params), 1e6) <= REL

    def test_zero_power(self):
        params = make_params()
        assert capacity(1.0, 0.0, params) == 0.0

    def test_zero_gain(self):
        params = make_params()
        assert capacity(0.0, 1.0, params) == 0.0

    def test_power_monotonicity(self):
        params = make_params()
        r1 = capacity(1e-3, 0.1, params)
        r2 = capacity(1e-3, 0.2, params)
        assert r2 > r1

    def test_downlink_matches_uplink_at_equal_power(self):
        params = make_params(bs_power=0.28)
        h = 1e-3
        assert capacity(h, params.bs_tx_power_w, params) == capacity(h, 0.28, params)
