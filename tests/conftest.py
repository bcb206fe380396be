"""Shared fixtures and small factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from uavfl.types import Dataset, FlTask, GrayImage, LabeledSample, Position3D, UavState


def make_image(data) -> GrayImage:
    return GrayImage(np.asarray(data, dtype=np.uint8))


def const_image(value: int, side: int = 8) -> GrayImage:
    return make_image(np.full((side, side), value))


def random_image(rng: np.random.Generator, side: int = 8) -> GrayImage:
    return make_image(rng.integers(0, 256, size=(side, side)))


def make_sample(image: GrayImage, label: int = 0) -> LabeledSample:
    return LabeledSample(image=image, label=label)


def make_uav(uid: int = 1, subregion: int = 1, battery: float = 100.0,
             battery_max: float = 100.0, n_samples: int = 1,
             shard_count: int = 1) -> UavState:
    img = const_image(0, side=4)
    ds = Dataset(samples=[make_sample(img) for _ in range(n_samples)],
                 shard_count=shard_count)
    return UavState(id=uid, subregion_id=subregion,
                    position=Position3D(0.0, 0.0, 10.0),
                    battery_j=battery, battery_max_j=battery_max, dataset=ds)


def make_task(**overrides) -> FlTask:
    defaults = dict(n_rounds_max=1, cohort_size=1, per_subregion_quota=1,
                    xi=0.5, ssim_threshold=0.5, epochs_per_round=1,
                    param_count=10, param_size_bits=32)
    defaults.update(overrides)
    return FlTask(**defaults)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
