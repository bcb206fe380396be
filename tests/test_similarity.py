import numpy as np
import pytest

from conftest import const_image, make_image, make_sample, random_image
from uavfl.errors import (AlreadyDeduplicated, DimensionMismatch, InvariantViolation,
                          TooFewSamples)
from uavfl.similarity import (SsimParams, dataset_diversity, deduplicate, ssim_pair)
from uavfl.types import Dataset

# hand-evaluated extreme-contrast pair: zero variances and covariance reduce
# SSIM to c1*c2 / ((255^2 + c1) * c2) = 6.5025 / 65031.5025
EXTREME_PAIR_SSIM = 6.5025 / 65031.5025


class TestSsimParams:
    def test_stabilizers(self):
        p = SsimParams()
        assert p.c1 == pytest.approx((0.01 * 255) ** 2, rel=1e-15)
        assert p.c2 == pytest.approx((0.03 * 255) ** 2, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvariantViolation):
            SsimParams(k1=0.0)


class TestSsimPair:
    def test_identity_is_exactly_one(self, rng):
        for _ in range(50):
            img = random_image(rng, side=16)
            assert ssim_pair(img, img) == 1.0

    def test_symmetry_and_bounds(self, rng):
        for _ in range(1000):
            a, b = random_image(rng), random_image(rng)
            s_ab = ssim_pair(a, b)
            assert s_ab == ssim_pair(b, a)
            assert abs(s_ab) <= 1.0 + 1e-12

    def test_extreme_contrast_pair(self):
        s = ssim_pair(const_image(0), const_image(255))
        assert s == pytest.approx(EXTREME_PAIR_SSIM, abs=1e-9)
        assert s == pytest.approx(9.9990e-5, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ssim_pair(const_image(0, side=8), const_image(0, side=9))


class TestDatasetDiversity:
    def test_identical_images_mean_one(self):
        shard = [make_sample(const_image(7)) for _ in range(5)]
        d = dataset_diversity(shard)
        assert d.mean_pairwise_ssim == 1.0
        assert d.pairs_evaluated == 10

    def test_extreme_pair(self):
        shard = [make_sample(const_image(0)), make_sample(const_image(255))]
        d = dataset_diversity(shard)
        assert d.mean_pairwise_ssim == pytest.approx(EXTREME_PAIR_SSIM, abs=1e-9)

    def test_sampled_mode_degenerates_to_exhaustive(self, rng):
        shard = [make_sample(random_image(rng)) for _ in range(8)]
        exact = dataset_diversity(shard, SsimParams(max_pairs=1000))
        sampled = dataset_diversity(shard, SsimParams(max_pairs=28))  # exactly C(8, 2)
        assert exact.mean_pairwise_ssim == sampled.mean_pairwise_ssim
        assert exact.pairs_evaluated == sampled.pairs_evaluated == 28

    def test_sampling_is_seed_deterministic(self, rng):
        shard = [make_sample(random_image(rng)) for _ in range(30)]
        d1 = dataset_diversity(shard, SsimParams(max_pairs=50), rng_seed=3)
        d2 = dataset_diversity(shard, SsimParams(max_pairs=50), rng_seed=3)
        assert d1 == d2
        assert d1.pairs_evaluated == 50

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            dataset_diversity([make_sample(const_image(0))])

    def test_bad_max_pairs(self):
        with pytest.raises(InvariantViolation):
            SsimParams(max_pairs=0)


def dedup_oracle(samples, th, p=SsimParams()):
    """Reference greedy keep-first dedup built directly on ssim_pair."""
    kept = []
    for s in samples:
        if all(ssim_pair(k.image, s.image, p) <= th for k in kept):
            kept.append(s)
    return kept


class TestDeduplicate:
    def test_identical_triplet(self):
        ds = Dataset(samples=[make_sample(const_image(3)) for _ in range(3)],
                     shard_count=1)
        assert deduplicate(ds, 0.5) == 2
        assert len(ds) == 1

    def test_dissimilar_pair_kept(self):
        ds = Dataset(samples=[make_sample(const_image(0)), make_sample(const_image(255))],
                     shard_count=1)
        assert deduplicate(ds, 0.5) == 0
        assert len(ds) == 2

    def test_threshold_bounds(self):
        ds = Dataset(samples=[make_sample(const_image(0))], shard_count=1)
        for th in (0.0, 1.0):
            with pytest.raises(InvariantViolation):
                deduplicate(ds, th)

    def test_double_dedup_rejected(self):
        ds = Dataset(samples=[make_sample(const_image(0))], shard_count=1)
        deduplicate(ds, 0.5)
        with pytest.raises(AlreadyDeduplicated):
            deduplicate(ds, 0.5)

    def test_empty_dataset(self):
        ds = Dataset(samples=[], shard_count=1)
        assert deduplicate(ds, 0.5) == 0
        assert ds.dedup_done

    def test_matches_pairwise_oracle(self, rng):
        # correlated images so both keeps and removals occur
        base = rng.integers(60, 196, size=(8, 8))
        samples = []
        for _ in range(40):
            noisy = np.clip(base + rng.normal(0, rng.uniform(2, 60), size=(8, 8)), 0, 255)
            samples.append(make_sample(make_image(noisy)))
        for th in (0.1, 0.5, 0.9):
            ds = Dataset(samples=list(samples), shard_count=1)
            deduplicate(ds, th)
            expected = dedup_oracle(samples, th)
            assert [id(s) for s in ds.samples] == [id(s) for s in expected]

    def test_soundness_and_idempotence(self, rng):
        base = rng.integers(40, 216, size=(8, 8))
        samples = []
        for _ in range(60):
            noisy = np.clip(base + rng.normal(0, rng.uniform(1, 40), size=(8, 8)), 0, 255)
            samples.append(make_sample(make_image(noisy)))
        ds = Dataset(samples=samples, shard_count=1)
        th = 0.5
        deduplicate(ds, th)
        kept = ds.samples
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert ssim_pair(kept[i].image, kept[j].image) <= th + 1e-9
        rerun = Dataset(samples=list(kept), shard_count=1)
        assert deduplicate(rerun, th) == 0
