import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _oracle_class_pattern, _oracle_walk_frames, oracle_uav_dataset
from uavfl import datagen
from uavfl.datagen import (_BLOCK, GenSpec, _label_track, generate_uav_dataset,
                           subregion_scenes)
from uavfl.errors import InvariantViolation
from uavfl.similarity import SsimParams, dataset_diversity

FAST = GenSpec(samples_min=120, samples_max=150, offset_span=30, test_fraction=0.2)


def generate(spec, subregion_id, uav_id, rng_seed):
    """One UAV's dataset, made from its sub-region's scene as `build_scenario`
    makes it (a scene depends only on its sub-region id and the seed)."""
    scene = next(subregion_scenes(spec, [subregion_id], rng_seed))
    return generate_uav_dataset(spec, scene, uav_id, rng_seed)


def assert_same_data(got, want):
    """Equal images (bytes and shape) and labels, in both halves of the split."""
    for part in ("train", "test"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.images.shape == w.images.shape
        assert g.images.tobytes() == w.images.tobytes()
        assert g.labels.dtype == w.labels.dtype and np.array_equal(g.labels, w.labels)


class TestGenSpec:
    def test_rejects_bad_redundancy(self):
        with pytest.raises(InvariantViolation):
            GenSpec(redundancy=1.5)

    def test_rejects_bad_sample_range(self):
        with pytest.raises(InvariantViolation):
            GenSpec(samples_min=10, samples_max=5)

    def test_rejects_bad_test_fraction(self):
        with pytest.raises(InvariantViolation):
            GenSpec(test_fraction=0.0)


class TestGenerate:
    def test_deterministic(self):
        a = generate(FAST, 1, 1, rng_seed=42)
        b = generate(FAST, 1, 1, rng_seed=42)
        assert len(a.train) == len(b.train)
        assert np.array_equal(a.train.labels, b.train.labels)
        assert np.array_equal(a.train.images, b.train.images)

    def test_different_seeds_differ(self):
        a = generate(FAST, 1, 1, rng_seed=42)
        b = generate(FAST, 1, 1, rng_seed=43)
        assert any(not np.array_equal(ia, ib)
                   for ia, ib in zip(a.train.images, b.train.images))

    def test_split_and_count(self):
        data = generate(FAST, 2, 3, rng_seed=0)
        total = len(data.train) + len(data.test)
        assert FAST.samples_min <= total <= FAST.samples_max
        assert len(data.test) == int(round(FAST.test_fraction * total))

    def test_non_integer_seed_rejected(self):
        with pytest.raises(InvariantViolation):
            next(subregion_scenes(FAST, [1], rng_seed="abc"))
        scene = next(subregion_scenes(FAST, [1], rng_seed=42))
        with pytest.raises(InvariantViolation):
            generate_uav_dataset(FAST, scene, 1, rng_seed="abc")

    def test_full_redundancy_collapses_classes(self):
        spec = dataclasses.replace(FAST, redundancy=1.0)
        train = generate(spec, 1, 1, rng_seed=7).train
        for cls in (0, 1):
            samples = train[train.labels == cls]
            assert len(samples) >= 2
            assert (samples.images == samples.images[0]).all()
            assert dataset_diversity(samples).mean_pairwise_ssim == 1.0

    def test_zero_redundancy_near_zero_mean_ssim(self):
        # default-size dataset so short-range walk correlation is a small
        # fraction of all sampled pairs
        spec = GenSpec(redundancy=0.0)
        data = generate(spec, 1, 1, rng_seed=7)
        d = dataset_diversity(data.train, SsimParams(max_pairs=800))
        assert abs(d.mean_pairwise_ssim) < 0.05

    def test_redundancy_monotonicity(self):
        means = []
        for rho in (0.1, 0.5, 0.9):
            spec = dataclasses.replace(FAST, redundancy=rho)
            data = generate(spec, 1, 1, rng_seed=7)
            means.append(dataset_diversity(data.train,
                                           SsimParams(max_pairs=500)).mean_pairwise_ssim)
        assert means[0] < means[1] < means[2]

    def test_same_subregion_shares_scene(self):
        # two UAVs of one sub-region sample the same walk; with zero offset
        # span their frames coincide up to per-UAV noise
        spec = dataclasses.replace(FAST, offset_span=0, walk_weight=1.0,
                                   samples_min=140, samples_max=140,
                                   test_fraction=0.01)
        scene = next(subregion_scenes(spec, [1], rng_seed=5))
        a = generate_uav_dataset(spec, scene, 1, rng_seed=5)
        b = generate_uav_dataset(spec, scene, 2, rng_seed=5)

        def frames(data):
            """Every image's bytes, train and test together, in one order."""
            return sorted(image.tobytes() for part in (data.train, data.test)
                          for image in part.images)

        assert frames(a) == frames(b)


# the oracle test's base spec: the walk buffer holds 87 rows, not a multiple
# of the window of 8 or of _BLOCK
SMALL = GenSpec(image_side=8, samples_min=50, samples_max=70, offset_span=10,
                test_fraction=0.2)


class TestBlockedGeneratorMatchesOracle:
    """`subregion_scenes` + `generate_uav_dataset` against the per-image,
    per-UAV-walk generator in `oracles.py`, byte for byte."""

    @pytest.mark.parametrize("overrides", [
        {"samples_min": _BLOCK - 1, "samples_max": _BLOCK - 1},
        {"samples_min": 2 * _BLOCK, "samples_max": 2 * _BLOCK},
        {"samples_min": 2 * _BLOCK + 1, "samples_max": 2 * _BLOCK + 1},
        {"walk_window": 5, "offset_span": 7},
        {"walk_window": 1},
        {"redundancy": 0.0},
        {"redundancy": 1.0},
        {"image_side": 32},
    ], ids=["n_below_block", "n_at_block", "n_above_block", "walk_not_multiple_of_window",
            "window_1", "redundancy_0", "redundancy_1", "side_32"])
    def test_several_uavs_of_one_pass(self, overrides):
        spec = dataclasses.replace(SMALL, **overrides)
        span = spec.offset_span + spec.samples_max
        seen = []
        # out of order: a scene depends only on its sub-region id, not on
        # which walk the reused buffer held before
        for scene in subregion_scenes(spec, (3, 1, 2), rng_seed=9):
            sr = scene.subregion_id
            assert scene.frames.tobytes() == _oracle_walk_frames(9, sr, span, spec).tobytes()
            assert np.array_equal(scene.labels, _label_track(9, sr, span, spec))
            for c in (0, 1):
                assert (scene.patterns[c].tobytes()
                        == _oracle_class_pattern(9, c, sr, spec).tobytes())
            for uid in (sr, sr + 3):  # two UAVs per scene, as build_scenario numbers them
                assert_same_data(generate_uav_dataset(spec, scene, uid, rng_seed=9),
                                 oracle_uav_dataset(spec, sr, uid, rng_seed=9))
                seen.append(uid)
        assert sorted(seen) == list(range(1, 7))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3 * _BLOCK + 1),
           window=st.integers(1, 12), offset_span=st.integers(0, 40),
           redundancy=st.floats(0.0, 1.0), side=st.sampled_from([4, 8]))
    def test_random_specs(self, seed, n, window, offset_span, redundancy, side):
        spec = GenSpec(image_side=side, samples_min=n, samples_max=n, walk_window=window,
                       offset_span=offset_span, redundancy=redundancy, test_fraction=0.3)
        for scene in subregion_scenes(spec, (1, 2), seed):
            assert_same_data(generate_uav_dataset(spec, scene, scene.subregion_id, seed),
                             oracle_uav_dataset(spec, scene.subregion_id,
                                                scene.subregion_id, seed))


class TestSceneCost:
    @pytest.mark.parametrize("k", [1, 4])
    def test_shared_class_fields_built_once_per_pass(self, k, monkeypatch):
        calls = []

        def spy(entropy, side):
            calls.append(entropy[1])
            return real(entropy, side)

        real = datagen._smooth_field
        monkeypatch.setattr(datagen, "_smooth_field", spy)
        assert len(list(subregion_scenes(SMALL, range(1, k + 1), rng_seed=9))) == k
        assert len(calls) == 2 + 2 * k
        assert calls.count(101) == 2  # the shared fields; the rest are local

    def test_scene_build_peak_stays_near_the_walk_buffer(self):
        # compare_calibrated's scene size: a 1570-frame span of 32x32 images.
        # A temporary the size of the walk (12.3 MiB) would break the bound.
        spec = GenSpec(samples_min=1470, samples_max=1470, offset_span=100)
        side = spec.image_side
        walk_bytes = (spec.offset_span + spec.samples_max + spec.walk_window - 1) * side * side * 8
        tracemalloc.start()
        try:
            scene = next(subregion_scenes(spec, [1], rng_seed=11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scene.frames.shape == (1570, side, side)
        assert peak <= walk_bytes + 2 * 2**20
