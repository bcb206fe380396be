"""Shared domain types: sample sets, datasets, UAV state and round records.

All types validate their invariants at construction time and raise
InvariantViolation instead of clamping. Every type is immutable except
Dataset, whose samples dedup rebinds to the ones it keeps. A run holds each
UAV's charge and liveness itself; a UavState keeps the charge it starts with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation


@dataclass(frozen=True, eq=False)
class Samples:
    """n images of one shape with their labels, as read-only columns validated
    at construction. Slices, index arrays and boolean masks give Samples too;
    a slice shares the parent's memory."""

    images: np.ndarray      # uint8 (n, height, width), intensities in [0, 255]
    labels: np.ndarray      # int8 (n,): 0 = non-fire surrogate, 1 = fire surrogate

    def __post_init__(self):
        images, labels = self.images, np.asarray(self.labels)
        if not isinstance(images, np.ndarray) or images.ndim != 3 or images.dtype != np.uint8:
            raise InvariantViolation("Samples.images must be a uint8 (n, height, width) array")
        if images.shape[1] * images.shape[2] == 0:
            raise InvariantViolation("Samples images must be non-empty")
        if labels.shape != (len(images),):
            raise InvariantViolation(f"{len(images)} images with {labels.shape} labels")
        if not ((labels == 0) | (labels == 1)).all():
            raise InvariantViolation(f"labels must be 0 or 1, got {sorted(set(labels.tolist()) - {0, 1})}")
        for name, column in (("images", images), ("labels", labels.astype(np.int8, copy=False))):
            view = column.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index) -> "Samples":
        """The samples at a slice, an index array or a boolean mask, in order."""
        return Samples(self.images[index], self.labels[index])


@dataclass
class Dataset:
    """One UAV's ordered samples; dedup rebinds them to the ones it keeps."""

    samples: Samples


@dataclass(frozen=True)
class UavState:
    """One UAV: its link rates to the base station, initial battery and local data.

    The rates follow from its fixed placement; CPU and radio constants are
    fleet-wide and live in `cost.CostParams`.
    """

    id: int
    subregion_id: int
    rate_up_bps: float
    rate_down_bps: float
    battery_j: float
    battery_max_j: float
    dataset: Dataset

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

