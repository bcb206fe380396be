"""Per-round latency and energy accounting, plus battery bookkeeping.

Only local training energy and uplink transmit energy debit the battery;
hover/flight power is excluded (constant for hovering UAVs) and downlink
reception is not charged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyCohort, InsufficientBattery, InvariantViolation, ZeroRate
from .types import UavState


@dataclass(frozen=True)
class CostParams:
    """The `cost` config section: fleet-wide CPU, radio and training constants."""

    cpu_hz: float = 1e7            # cycles/s
    cycles_per_sample: float = 7e4
    chip_coeff: float = 1e-22      # effective J*s^2/cycle^3 constant of the CPU energy model
    tx_power_w: float = 0.28
    epochs_per_round: int = 1
    param_size_bits: int = 32

    def __post_init__(self):
        if self.cpu_hz <= 0 or self.tx_power_w < 0 or self.cycles_per_sample < 0:
            raise InvariantViolation("bad CPU/radio parameters")
        if self.chip_coeff < 0:
            raise InvariantViolation("chip_coeff must be >= 0")
        if self.epochs_per_round < 1 or self.param_size_bits < 1:
            raise InvariantViolation("epochs_per_round and param_size_bits must be >= 1")


@dataclass(frozen=True)
class RoundCost:
    train_time_s: float
    uplink_time_s: float
    downlink_time_s: float
    train_energy_j: float
    tx_energy_j: float

    def __post_init__(self):
        for name in ("train_time_s", "uplink_time_s", "downlink_time_s",
                     "train_energy_j", "tx_energy_j"):
            if getattr(self, name) < 0:
                raise InvariantViolation(f"{name} must be >= 0")

    @property
    def total_time_s(self) -> float:
        return self.train_time_s + self.uplink_time_s + self.downlink_time_s

    @property
    def total_energy_j(self) -> float:
        return self.train_energy_j + self.tx_energy_j


def local_training_time(params: CostParams, shard_size: int) -> float:
    """Seconds to run `epochs_per_round` epochs over one shard on the UAV CPU."""
    return params.epochs_per_round * params.cycles_per_sample * shard_size / params.cpu_hz


def tx_time(params: CostParams, param_count: int, rate_bps: float) -> float:
    """Seconds to send `param_count` model parameters at the given rate, either way."""
    if param_count == 0:
        return 0.0
    if rate_bps <= 0:
        raise ZeroRate("link rate must be > 0")
    return param_count * params.param_size_bits / rate_bps


def round_duration(costs: list[RoundCost]) -> float:
    """Round duration: slowest participant's train + uplink + downlink time."""
    if not costs:
        raise EmptyCohort("round_duration needs at least one participant")
    return max(c.total_time_s for c in costs)


def training_energy(params: CostParams, train_time_s: float) -> float:
    """CPU energy chi * t * gamma^3 for the local training phase."""
    return params.chip_coeff * train_time_s * params.cpu_hz ** 3


def transmit_energy(params: CostParams, uplink_time_s: float) -> float:
    """Radio energy P_u * t_up; downlink reception is not charged."""
    return params.tx_power_w * uplink_time_s


def estimate_round_cost(params: CostParams, param_count: int, shard_size: int,
                        rate_up_bps: float, rate_down_bps: float) -> RoundCost:
    """Full per-round cost for one UAV given the model size, its shard size and
    link rates."""
    t_train = local_training_time(params, shard_size)
    t_up = tx_time(params, param_count, rate_up_bps)
    return RoundCost(
        train_time_s=t_train,
        uplink_time_s=t_up,
        downlink_time_s=tx_time(params, param_count, rate_down_bps),
        train_energy_j=training_energy(params, t_train),
        tx_energy_j=transmit_energy(params, t_up),
    )


def charge_round(uav: UavState, cost: RoundCost) -> float:
    """Debit one round's energy from the UAV battery; returns the new level.

    The caller must have verified feasibility first; a debit that would
    drive the battery negative raises InsufficientBattery and leaves the
    battery untouched.
    """
    debit = cost.total_energy_j
    if debit > uav.battery_j:
        raise InsufficientBattery(
            f"UAV {uav.id}: round needs {debit} J, battery holds {uav.battery_j} J"
        )
    uav.battery_j -= debit
    return uav.battery_j
