"""Shared domain types: sample sets, datasets, UAV state and round records.

All types validate their invariants at construction time and raise
InvariantViolation instead of clamping. Everything is an immutable value
type except UavState (battery/alive) and Dataset (dedup rebinds its
samples), which are only mutated by the harness between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation


@dataclass(frozen=True, eq=False)
class Samples:
    """n images of one shape with their labels and source ids, as read-only
    columns validated once at construction. Slices, index arrays and boolean
    masks give Samples too; a slice shares the parent's memory."""

    images: np.ndarray      # uint8 (n, height, width), intensities in [0, 255]
    labels: np.ndarray      # int8 (n,): 0 = non-fire surrogate, 1 = fire surrogate
    source_ids: np.ndarray | None = None  # str (n,); empty strings when None

    def __post_init__(self):
        images, labels = self.images, np.asarray(self.labels)
        if not isinstance(images, np.ndarray) or images.ndim != 3 or images.dtype != np.uint8:
            raise InvariantViolation("Samples.images must be a uint8 (n, height, width) array")
        if images.shape[1] * images.shape[2] == 0:
            raise InvariantViolation("Samples images must be non-empty")
        ids = np.full(len(images), "") if self.source_ids is None else np.asarray(self.source_ids)
        if labels.shape != (len(images),) or ids.shape != (len(images),):
            raise InvariantViolation(
                f"{len(images)} images with {labels.shape} labels and {ids.shape} source ids")
        if not np.isin(labels, (0, 1)).all():
            raise InvariantViolation(f"labels must be 0 or 1, got {sorted(set(labels.tolist()) - {0, 1})}")
        for name, column in (("images", images), ("labels", labels.astype(np.int8, copy=False)),
                             ("source_ids", ids)):
            view = column.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index) -> "Samples":
        """The samples at a slice, an index array or a boolean mask, in order."""
        return Samples(self.images[index], self.labels[index], self.source_ids[index])


@dataclass
class Dataset:
    """Ordered sample collection, sharded into `shard_count` contiguous slices.

    Shard boundaries are a pure function of (len(samples), shard_count):
    the first `len % shard_count` shards get one extra sample, so sizes
    differ by at most one. Shards are 1-based (shard k is trained in round k).
    """

    samples: Samples
    shard_count: int

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

    def shard(self, k: int) -> Samples:
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

