"""Air-to-ground channel: link geometry, path loss, gains and capacities.

All functions are pure. The channel is reciprocal by construction: the same
amplitude gain applies uplink and downlink; only the transmit power passed
to `capacity` differs between the two directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolation


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
        if not self.bandwidth_hz * self.noise_psd_w > 0:
            raise InvariantViolation("the noise power bandwidth_hz * noise_psd_w underflows to 0")
        # Denominator 1 + a4*exp(a3*(theta - a4)) must be computable and positive
        # on [0, 90]; it is monotone in theta, so checking the endpoints suffices.
        # math.exp raises on a finite overflow but returns inf for an inf exponent.
        for theta in (0.0, 90.0):
            try:
                growth = math.exp(self.a3 * (theta - self.a4))
            except OverflowError:
                growth = math.inf
            if growth == math.inf:
                raise InvariantViolation(f"path-loss term exp(a3*(theta - a4)) overflows "
                                         f"at theta = {theta:g} deg")
            if 1.0 + self.a4 * growth <= 0:
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


def link_geometry(dx: float, dy: float, dz: float) -> LinkGeometry:
    """3D distance and elevation angle of a UAV at offset (dx, dy, dz) meters
    from its base station, dz being the altitude difference.

    Elevation is arctan(|dz| / horizontal distance) in degrees, 90 for a
    vertical link.
    """
    horiz = math.hypot(dx, dy)
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        raise InvariantViolation("UAV and BS positions coincide")
    elev = math.degrees(math.atan2(abs(dz), horiz))  # exactly 90.0 when horiz == 0
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
