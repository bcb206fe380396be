"""Shared fixtures and small factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from uavfl.types import Dataset, Position3D, Samples, UavState


def make_image(data) -> np.ndarray:
    return np.asarray(data, dtype=np.uint8)


def const_image(value: int, side: int = 8) -> np.ndarray:
    return make_image(np.full((side, side), value))


def random_image(rng: np.random.Generator, side: int = 8) -> np.ndarray:
    return make_image(rng.integers(0, 256, size=(side, side)))


def make_samples(images, labels=0) -> Samples:
    """Samples of equally sized 2-D images; `labels` is one label or one per
    image, and each source id is the image's index."""
    labels = np.broadcast_to(labels, (len(images),))
    return Samples(np.stack(images), labels, [str(i) for i in range(len(images))])


def no_samples(side: int = 8) -> Samples:
    return Samples(np.zeros((0, side, side), dtype=np.uint8), [])


def make_uav(uid: int = 1, subregion: int = 1, battery: float = 100.0,
             battery_max: float = 100.0, n_samples: int = 1,
             shard_count: int = 1) -> UavState:
    ds = Dataset(samples=make_samples([const_image(0, side=4)] * n_samples),
                 shard_count=shard_count)
    return UavState(id=uid, subregion_id=subregion,
                    position=Position3D(0.0, 0.0, 10.0),
                    battery_j=battery, battery_max_j=battery_max, dataset=ds)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
