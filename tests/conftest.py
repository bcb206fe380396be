"""Shared fixtures and small factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from uavfl.types import Dataset, Samples, UavState


def make_image(data) -> np.ndarray:
    return np.asarray(data, dtype=np.uint8)


def const_image(value: int, side: int = 8) -> np.ndarray:
    return make_image(np.full((side, side), value))


def random_image(rng: np.random.Generator, side: int = 8) -> np.ndarray:
    return make_image(rng.integers(0, 256, size=(side, side)))


def make_samples(images, labels=0) -> Samples:
    """Samples of equally sized 2-D images; `labels` is one label or one per image."""
    return Samples(np.stack(images), np.broadcast_to(labels, (len(images),)))


def no_samples(side: int = 8) -> Samples:
    return Samples(np.zeros((0, side, side), dtype=np.uint8), [])


def make_uav(uid: int = 1, subregion: int = 1, battery: float = 100.0,
             battery_max: float = 100.0, n_samples: int = 1) -> UavState:
    ds = Dataset(make_samples([const_image(0, side=4)] * n_samples))
    return UavState(id=uid, subregion_id=subregion, rate_up_bps=1e6, rate_down_bps=1e6,
                    battery_j=battery, battery_max_j=battery_max, dataset=ds)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
