"""Shared domain types: images, datasets, UAV state, task and round records.

All types validate their invariants at construction time and raise
InvariantViolation instead of clamping. Everything is an immutable value
type except UavState (battery/alive) and Dataset (dedup), which are only
mutated by the harness between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySubregion, InvariantViolation


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit single-channel raster, stored row-major as a (height, width) array."""

    data: np.ndarray

    def __post_init__(self):
        if not isinstance(self.data, np.ndarray) or self.data.ndim != 2:
            raise InvariantViolation("GrayImage.data must be a 2-D array")
        if self.data.dtype != np.uint8:
            raise InvariantViolation("GrayImage.data must be uint8 (intensities in [0, 255])")
        if self.data.size == 0:
            raise InvariantViolation("GrayImage must be non-empty")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True, eq=False)
class LabeledSample:
    image: GrayImage
    label: int  # 0 = non-fire surrogate, 1 = fire surrogate
    source_id: str = ""

    def __post_init__(self):
        if self.label not in (0, 1):
            raise InvariantViolation(f"label must be 0 or 1, got {self.label}")


@dataclass
class Dataset:
    """Ordered sample collection, sharded into `shard_count` contiguous slices.

    Shard boundaries are a pure function of (len(samples), shard_count):
    the first `len % shard_count` shards get one extra sample, so sizes
    differ by at most one. Shards are 1-based (shard k is trained in round k).
    """

    samples: list[LabeledSample]
    shard_count: int
    dedup_done: bool = False

    def __post_init__(self):
        if self.shard_count < 1:
            raise InvariantViolation("shard_count must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    def shard_bounds(self, k: int) -> tuple[int, int]:
        if not 1 <= k <= self.shard_count:
            raise InvariantViolation(f"shard index {k} outside [1, {self.shard_count}]")
        n = len(self.samples)
        base, rem = divmod(n, self.shard_count)
        i = k - 1
        start = i * base + min(i, rem)
        return start, start + base + (1 if i < rem else 0)

    def shard(self, k: int) -> list[LabeledSample]:
        start, stop = self.shard_bounds(k)
        return self.samples[start:stop]

    def shard_size(self, k: int) -> int:
        start, stop = self.shard_bounds(k)
        return stop - start


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float  # altitude, meters

    def __post_init__(self):
        if self.z < 0:
            raise InvariantViolation("altitude must be >= 0")


@dataclass
class UavState:
    """One UAV: position, battery, local data.

    CPU and radio constants are fleet-wide and live in `cost.CostParams`.
    """

    id: int
    subregion_id: int
    position: Position3D
    battery_j: float
    battery_max_j: float
    dataset: Dataset
    alive: bool = True

    def __post_init__(self):
        if not 0 <= self.battery_j <= self.battery_max_j:
            raise InvariantViolation("battery_j must lie in [0, battery_max_j]")


@dataclass(frozen=True)
class FlTask:
    """Static description of one federated learning task."""

    n_rounds_max: int
    cohort_size: int
    per_subregion_quota: int
    xi: float
    ssim_threshold: float
    epochs_per_round: int
    param_count: int
    param_size_bits: int

    def __post_init__(self):
        if self.n_rounds_max < 1 or self.cohort_size < 1 or self.per_subregion_quota < 1:
            raise InvariantViolation("round/cohort counts must be positive")
        if not 0.0 <= self.xi <= 1.0:
            raise InvariantViolation("xi must lie in [0, 1]")
        if not 0.0 < self.ssim_threshold < 1.0:
            raise InvariantViolation("ssim_threshold must lie in (0, 1)")
        if self.epochs_per_round < 1 or self.param_count < 0 or self.param_size_bits < 1:
            raise InvariantViolation("bad training/model parameters")


@dataclass(frozen=True)
class RoundRecord:
    """Per-round metrics appended by the harness."""

    round_k: int
    selected_ids: tuple[int, ...]
    global_accuracy: float
    global_loss: float
    round_duration_s: float
    cohort_energy_j: float
    dropouts: int
    alive_uavs: int

    def __post_init__(self):
        if not 0.0 <= self.global_accuracy <= 1.0:
            raise InvariantViolation("accuracy must lie in [0, 1]")
        if self.global_loss < 0 or self.cohort_energy_j < 0 or self.round_duration_s < 0:
            raise InvariantViolation("loss/energy/duration must be non-negative")


def validate_scenario(uavs: list[UavState], task: FlTask, subregion_count: int) -> None:
    """Check that the scenario can satisfy the per-sub-region selection quota.

    Raises EmptySubregion if any sub-region holds fewer UAVs than the quota,
    InvariantViolation for structural problems (duplicate ids, bad sub-region
    ids, quota/cohort mismatch).
    """
    if not uavs:
        raise EmptySubregion("no UAVs in scenario")
    if subregion_count < 1:
        raise InvariantViolation("subregion_count must be positive")
    if task.cohort_size != task.per_subregion_quota * subregion_count:
        raise InvariantViolation(
            f"cohort_size {task.cohort_size} != quota {task.per_subregion_quota} "
            f"x {subregion_count} sub-regions"
        )
    ids = [u.id for u in uavs]
    if len(set(ids)) != len(ids):
        raise InvariantViolation("duplicate UAV ids")
    counts: dict[int, int] = {}
    for u in uavs:
        if not 1 <= u.subregion_id <= subregion_count:
            raise InvariantViolation(f"UAV {u.id} has sub-region {u.subregion_id} outside [1, {subregion_count}]")
        counts[u.subregion_id] = counts.get(u.subregion_id, 0) + 1
    for sr in range(1, subregion_count + 1):
        if counts.get(sr, 0) < task.per_subregion_quota:
            raise EmptySubregion(
                f"sub-region {sr} holds {counts.get(sr, 0)} UAVs, quota is {task.per_subregion_quota}"
            )
