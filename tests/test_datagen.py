import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _oracle_walk_frames, oracle_uav_dataset
from uavfl.datagen import (_BLOCK, GenSpec, MANIFEST_HEADER, _class_pattern,
                           _label_track, generate_uav_dataset, load_manifest, read_pgm,
                           subregion_scenes, write_pgm)
from uavfl.errors import (BadHeader, BadPgmMagic, DimensionMismatch, InvariantViolation,
                          LabelOutOfRange, MissingFile, UavFlError)
from uavfl.similarity import SsimParams, dataset_diversity

FAST = GenSpec(samples_min=120, samples_max=150, offset_span=30, test_fraction=0.2)


def generate(spec, subregion_id, uav_id, rng_seed):
    """One UAV's dataset, made from its sub-region's scene as `build_scenario`
    makes it; the last scene drawn is still valid."""
    scene = list(subregion_scenes(spec, subregion_id, rng_seed))[-1]
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
            next(subregion_scenes(FAST, 1, rng_seed="abc"))
        scene = next(subregion_scenes(FAST, 1, rng_seed=42))
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
        scene = next(subregion_scenes(spec, 1, rng_seed=5))
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
        for scene in subregion_scenes(spec, 3, rng_seed=9):
            sr = scene.subregion_id
            assert scene.frames.tobytes() == _oracle_walk_frames(9, sr, span, spec).tobytes()
            assert np.array_equal(scene.labels, _label_track(9, sr, span, spec))
            for c in (0, 1):
                assert np.array_equal(scene.patterns[c], _class_pattern(9, c, sr, spec))
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
        for scene in subregion_scenes(spec, 2, seed):
            assert_same_data(generate_uav_dataset(spec, scene, scene.subregion_id, seed),
                             oracle_uav_dataset(spec, scene.subregion_id,
                                                scene.subregion_id, seed))


class TestPgmIo:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(13, 9)).astype(np.uint8)
        path = str(tmp_path / "img.pgm")
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.dtype == np.uint8 and back.shape == (13, 9)
        assert np.array_equal(back, img)

    @pytest.mark.parametrize("image", [np.zeros((2, 2)), np.zeros((1, 2, 2), dtype=np.uint8)])
    def test_write_rejects_non_2d_uint8(self, tmp_path, image):
        with pytest.raises(InvariantViolation):
            write_pgm(str(tmp_path / "x.pgm"), image)

    def test_write_into_missing_dir_is_uavflerror(self, tmp_path):
        with pytest.raises(UavFlError, match="cannot write"):
            write_pgm(str(tmp_path / "missing" / "x.pgm"), np.zeros((2, 2), dtype=np.uint8))

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        img = read_pgm(str(path))
        assert img.tolist() == [[0, 1], [2, 3]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x01\x02\x03")
        with pytest.raises(BadPgmMagic):
            read_pgm(str(path))

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(BadHeader):
            read_pgm(str(path))

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(BadHeader):
            read_pgm(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            read_pgm(str(tmp_path / "nope.pgm"))


class TestManifest:
    def _write_images(self, tmp_path, n, shapes=((4, 4),)):
        """n images, image i filled with i and shaped shapes[i % len(shapes)]."""
        paths = []
        for i in range(n):
            rel = f"img{i}.pgm"
            write_pgm(str(tmp_path / rel),
                      np.full(shapes[i % len(shapes)], i, dtype=np.uint8))
            paths.append(rel)
        return paths

    def test_header_only_gives_empty_mapping(self, tmp_path):
        mpath = tmp_path / "m.csv"
        mpath.write_text(",".join(MANIFEST_HEADER) + "\n")
        assert load_manifest(str(mpath)) == {}

    def test_four_rows_two_uavs(self, tmp_path):
        rels = self._write_images(tmp_path, 4)
        rows = [",".join(MANIFEST_HEADER)]
        for i, rel in enumerate(rels):
            rows.append(f"{rel},{i % 2},1,{1 + i // 2}")
        mpath = tmp_path / "m.csv"
        mpath.write_text("\n".join(rows) + "\n")
        samples = load_manifest(str(mpath), image_root=str(tmp_path))
        assert sorted(samples) == [1, 2]
        assert all(len(s) == 2 for s in samples.values())
        assert samples[1].images[:, 0, 0].tolist() == [0, 1]
        assert samples[2].labels.tolist() == [0, 1]
        assert samples[2].images[:, 0, 0].tolist() == [2, 3]

    def test_label_out_of_range(self, tmp_path):
        rels = self._write_images(tmp_path, 1)
        mpath = tmp_path / "m.csv"
        mpath.write_text(",".join(MANIFEST_HEADER) + f"\n{rels[0]},2,1,1\n")
        with pytest.raises(LabelOutOfRange):
            load_manifest(str(mpath), image_root=str(tmp_path))

    @pytest.mark.parametrize("row,error", [("{rel},x,1,1", LabelOutOfRange),
                                           ("{rel},1,1,u1", BadHeader)])
    def test_non_integer_cell(self, tmp_path, row, error):
        rels = self._write_images(tmp_path, 1)
        mpath = tmp_path / "m.csv"
        mpath.write_text(",".join(MANIFEST_HEADER) + "\n" + row.format(rel=rels[0]) + "\n")
        with pytest.raises(error, match="m.csv, line 2: "):
            load_manifest(str(mpath), image_root=str(tmp_path))

    def test_mixed_shapes_for_one_uav_fail_at_load(self, tmp_path):
        rels = self._write_images(tmp_path, 3, shapes=((4, 4), (4, 5)))
        rows = [",".join(MANIFEST_HEADER)] + [f"{rel},0,1,1" for rel in rels]
        mpath = tmp_path / "m.csv"
        mpath.write_text("\n".join(rows) + "\n")
        with pytest.raises(DimensionMismatch, match="UAV 1"):
            load_manifest(str(mpath), image_root=str(tmp_path))

    def test_wrong_header(self, tmp_path):
        mpath = tmp_path / "m.csv"
        mpath.write_text("a,b,c,d\n")
        with pytest.raises(BadHeader):
            load_manifest(str(mpath))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_manifest(str(tmp_path / "none.csv"))
