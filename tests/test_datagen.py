import dataclasses
import os

import numpy as np
import pytest

from uavfl.datagen import (GenSpec, MANIFEST_HEADER, generate_uav_dataset,
                           load_manifest, read_pgm, write_pgm)
from uavfl.errors import (BadHeader, BadPgmMagic, DimensionMismatch, InvariantViolation,
                          LabelOutOfRange, MissingFile, UavFlError)
from uavfl.similarity import SsimParams, dataset_diversity

FAST = GenSpec(samples_min=120, samples_max=150, offset_span=30, test_fraction=0.2)


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
        a = generate_uav_dataset(FAST, 1, 1, rng_seed=42, shard_count=1)
        b = generate_uav_dataset(FAST, 1, 1, rng_seed=42, shard_count=1)
        assert len(a.train) == len(b.train)
        assert np.array_equal(a.train.samples.labels, b.train.samples.labels)
        assert np.array_equal(a.train.samples.images, b.train.samples.images)

    def test_different_seeds_differ(self):
        a = generate_uav_dataset(FAST, 1, 1, rng_seed=42, shard_count=1)
        b = generate_uav_dataset(FAST, 1, 1, rng_seed=43, shard_count=1)
        assert any(not np.array_equal(ia, ib)
                   for ia, ib in zip(a.train.samples.images, b.train.samples.images))

    def test_split_and_count(self):
        data = generate_uav_dataset(FAST, 2, 3, rng_seed=0, shard_count=1)
        total = len(data.train) + len(data.test)
        assert FAST.samples_min <= total <= FAST.samples_max
        assert len(data.test) == int(round(FAST.test_fraction * total))

    def test_non_integer_seed_rejected(self):
        with pytest.raises(InvariantViolation):
            generate_uav_dataset(FAST, 1, 1, rng_seed="abc", shard_count=1)

    def test_full_redundancy_collapses_classes(self):
        spec = dataclasses.replace(FAST, redundancy=1.0)
        data = generate_uav_dataset(spec, 1, 1, rng_seed=7, shard_count=1)
        train = data.train.samples
        for cls in (0, 1):
            samples = train[train.labels == cls]
            assert len(samples) >= 2
            assert (samples.images == samples.images[0]).all()
            assert dataset_diversity(samples).mean_pairwise_ssim == 1.0

    def test_zero_redundancy_near_zero_mean_ssim(self):
        # default-size dataset so short-range walk correlation is a small
        # fraction of all sampled pairs
        spec = GenSpec(redundancy=0.0)
        data = generate_uav_dataset(spec, 1, 1, rng_seed=7, shard_count=1)
        d = dataset_diversity(data.train.samples, SsimParams(max_pairs=800))
        assert abs(d.mean_pairwise_ssim) < 0.05

    def test_redundancy_monotonicity(self):
        means = []
        for rho in (0.1, 0.5, 0.9):
            spec = dataclasses.replace(FAST, redundancy=rho)
            data = generate_uav_dataset(spec, 1, 1, rng_seed=7, shard_count=1)
            means.append(dataset_diversity(data.train.samples,
                                           SsimParams(max_pairs=500)).mean_pairwise_ssim)
        assert means[0] < means[1] < means[2]

    def test_same_subregion_shares_scene(self):
        # two UAVs of one sub-region sample the same walk; with zero offset
        # span their frames coincide up to per-UAV noise
        spec = dataclasses.replace(FAST, offset_span=0, walk_weight=1.0,
                                   samples_min=140, samples_max=140,
                                   test_fraction=0.01)
        a = generate_uav_dataset(spec, 1, 1, rng_seed=5, shard_count=1)
        b = generate_uav_dataset(spec, 1, 2, rng_seed=5, shard_count=1)

        def by_frame(data):
            frames = {}
            for part in (data.train.samples, data.test):
                for source_id, image in zip(part.source_ids, part.images):
                    frames[source_id.rsplit("/f", 1)[1]] = image
            return frames

        fa, fb = by_frame(a), by_frame(b)
        assert fa.keys() == fb.keys()
        assert all(np.array_equal(fa[t], fb[t]) for t in fa)


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
        assert load_manifest(str(mpath), 1) == {}

    def test_four_rows_two_uavs(self, tmp_path):
        rels = self._write_images(tmp_path, 4)
        rows = [",".join(MANIFEST_HEADER)]
        for i, rel in enumerate(rels):
            rows.append(f"{rel},{i % 2},1,{1 + i // 2}")
        mpath = tmp_path / "m.csv"
        mpath.write_text("\n".join(rows) + "\n")
        datasets = load_manifest(str(mpath), 1, image_root=str(tmp_path))
        assert sorted(datasets) == [1, 2]
        assert all(len(ds) == 2 for ds in datasets.values())
        assert datasets[1].samples.source_ids.tolist() == rels[:2]
        assert datasets[2].samples.labels.tolist() == [0, 1]
        assert datasets[2].samples.images[:, 0, 0].tolist() == [2, 3]

    def test_label_out_of_range(self, tmp_path):
        rels = self._write_images(tmp_path, 1)
        mpath = tmp_path / "m.csv"
        mpath.write_text(",".join(MANIFEST_HEADER) + f"\n{rels[0]},2,1,1\n")
        with pytest.raises(LabelOutOfRange):
            load_manifest(str(mpath), 1, image_root=str(tmp_path))

    @pytest.mark.parametrize("row,error", [("{rel},x,1,1", LabelOutOfRange),
                                           ("{rel},1,1,u1", BadHeader)])
    def test_non_integer_cell(self, tmp_path, row, error):
        rels = self._write_images(tmp_path, 1)
        mpath = tmp_path / "m.csv"
        mpath.write_text(",".join(MANIFEST_HEADER) + "\n" + row.format(rel=rels[0]) + "\n")
        with pytest.raises(error, match="m.csv, line 2: "):
            load_manifest(str(mpath), 1, image_root=str(tmp_path))

    def test_mixed_shapes_for_one_uav_fail_at_load(self, tmp_path):
        rels = self._write_images(tmp_path, 3, shapes=((4, 4), (4, 5)))
        rows = [",".join(MANIFEST_HEADER)] + [f"{rel},0,1,1" for rel in rels]
        mpath = tmp_path / "m.csv"
        mpath.write_text("\n".join(rows) + "\n")
        with pytest.raises(DimensionMismatch, match="UAV 1"):
            load_manifest(str(mpath), 1, image_root=str(tmp_path))

    def test_wrong_header(self, tmp_path):
        mpath = tmp_path / "m.csv"
        mpath.write_text("a,b,c,d\n")
        with pytest.raises(BadHeader):
            load_manifest(str(mpath), 1)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_manifest(str(tmp_path / "none.csv"), 1)
