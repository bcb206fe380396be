"""Air-to-ground channel: link geometry, path loss, gains and capacities.

All functions are pure. The channel is reciprocal by construction: the same
amplitude gain applies uplink and downlink; only the transmit power passed
to `capacity` differs between the two directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoincidentPositions, InvariantViolation
from .types import Position3D


@dataclass(frozen=True)
class ChannelParams:
    """The `channel` config section: link budget and path-loss environment."""

    beta0: float = 1e-4            # -40 dB reference gain at 1 m (simulator default)
    noise_psd_w: float = 4e-21     # thermal noise floor, ~ -174 dBm/Hz
    bandwidth_hz: float = 1e6
    bs_tx_power_w: float = 1.0
    # representative suburban constants of the elevation-dependent path-loss
    # exponent; the environment they model is config-supplied, not fixed here
    a1: float = 10.39
    a2: float = 2.09
    a3: float = 0.05
    a4: float = 7.37

    def __post_init__(self):
        for name in ("beta0", "noise_psd_w", "bandwidth_hz", "bs_tx_power_w", "a1"):
            if getattr(self, name) <= 0:
                raise InvariantViolation(f"{name} must be strictly positive")
        # Denominator 1 + a4*exp(a3*(theta - a4)) must stay positive on [0, 90];
        # it is monotone in theta, so checking the endpoints suffices.
        for theta in (0.0, 90.0):
            if 1.0 + self.a4 * math.exp(self.a3 * (theta - self.a4)) <= 0:
                raise InvariantViolation("path-loss denominator not positive on [0, 90] deg")


@dataclass(frozen=True)
class LinkGeometry:
    distance_m: float
    elevation_deg: float  # in [0, 90]

    def __post_init__(self):
        if self.distance_m <= 0:
            raise InvariantViolation("distance_m must be > 0")
        if not 0.0 <= self.elevation_deg <= 90.0:
            raise InvariantViolation("elevation_deg must lie in [0, 90]")


def link_geometry(uav_pos: Position3D, bs_pos: Position3D) -> LinkGeometry:
    """3D distance and elevation angle between a UAV and a base station.

    Elevation is arctan(|altitude difference| / horizontal distance) in
    degrees, 90 for a vertical link.
    """
    dx = uav_pos.x - bs_pos.x
    dy = uav_pos.y - bs_pos.y
    dz = uav_pos.z - bs_pos.z
    horiz = math.hypot(dx, dy)
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        raise CoincidentPositions("UAV and BS positions coincide")
    if horiz == 0.0:
        elev = 90.0
    else:
        elev = math.degrees(math.atan2(abs(dz), horiz))
    return LinkGeometry(distance_m=dist, elevation_deg=elev)


def path_loss_exponent(geom: LinkGeometry, params: ChannelParams) -> float:
    """Elevation-dependent path-loss exponent a1 / (1 + a4*exp(a3*(theta - a4))) + a2."""
    theta = geom.elevation_deg
    return (params.a1 / (1.0 + params.a4 * math.exp(params.a3 * (theta - params.a4)))
            + params.a2)


def channel_gain(geom: LinkGeometry, params: ChannelParams) -> float:
    """Amplitude gain sqrt(beta0) * d^(-alpha/2); identical for both directions."""
    alpha = path_loss_exponent(geom, params)
    return math.sqrt(params.beta0) * geom.distance_m ** (-alpha / 2.0)


def capacity(h: float, tx_power_w: float, params: ChannelParams) -> float:
    """Link rate in bits/s: W * log2(1 + P h^2 / (W sigma^2)).

    P is the UAV transmit power uplink and the BS transmit power downlink.
    """
    snr = tx_power_w * h * h / (params.bandwidth_hz * params.noise_psd_w)
    return params.bandwidth_hz * math.log2(1.0 + snr)
