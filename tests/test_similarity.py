import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import const_image, make_image, make_samples, no_samples, random_image
from uavfl.errors import DimensionMismatch, InvariantViolation, TooFewSamples
from uavfl.similarity import (DEDUP_BLOCK, SsimParams, dataset_diversity, deduplicate,
                              ssim_pair)
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
        shard = make_samples([const_image(7)] * 5)
        d = dataset_diversity(shard)
        assert d.mean_pairwise_ssim == 1.0
        assert d.pairs_evaluated == 10

    def test_extreme_pair(self):
        shard = make_samples([const_image(0), const_image(255)])
        d = dataset_diversity(shard)
        assert d.mean_pairwise_ssim == pytest.approx(EXTREME_PAIR_SSIM, abs=1e-9)

    def test_sampled_mode_degenerates_to_exhaustive(self, rng):
        shard = make_samples([random_image(rng) for _ in range(8)])
        exact = dataset_diversity(shard, SsimParams(max_pairs=1000))
        sampled = dataset_diversity(shard, SsimParams(max_pairs=28))  # exactly C(8, 2)
        assert exact.mean_pairwise_ssim == sampled.mean_pairwise_ssim
        assert exact.pairs_evaluated == sampled.pairs_evaluated == 28

    def test_sampling_is_seed_deterministic(self, rng):
        shard = make_samples([random_image(rng) for _ in range(30)])
        d1 = dataset_diversity(shard, SsimParams(max_pairs=50), rng_seed=3)
        d2 = dataset_diversity(shard, SsimParams(max_pairs=50), rng_seed=3)
        assert d1 == d2
        assert d1.pairs_evaluated == 50

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            dataset_diversity(make_samples([const_image(0)]))

    def test_bad_max_pairs(self):
        with pytest.raises(InvariantViolation):
            SsimParams(max_pairs=0)


def dedup_oracle(samples, th, p=SsimParams()):
    """Reference greedy keep-first dedup built directly on ssim_pair; returns
    the kept indices."""
    kept = []
    for i, image in enumerate(samples.images):
        if all(ssim_pair(samples.images[k], image, p) <= th for k in kept):
            kept.append(i)
    return kept


def kept_only(ds, samples, kept):
    """Whether dedup left exactly samples[kept] in ds, in order. Compares the
    image arrays: an image set may repeat an image."""
    return np.array_equal(ds.samples.images, samples.images[kept])


class TestDeduplicate:
    def test_identical_triplet(self):
        ds = Dataset(make_samples([const_image(3)] * 3))
        assert deduplicate(ds, 0.5) == 2
        assert len(ds) == 1

    def test_dissimilar_pair_kept(self):
        ds = Dataset(make_samples([const_image(0), const_image(255)]))
        assert deduplicate(ds, 0.5) == 0
        assert len(ds) == 2

    def test_threshold_bounds(self):
        ds = Dataset(make_samples([const_image(0)]))
        for th in (0.0, 1.0):
            with pytest.raises(InvariantViolation):
                deduplicate(ds, th)

    def test_empty_dataset(self):
        ds = Dataset(no_samples())
        assert deduplicate(ds, 0.5) == 0
        assert len(ds) == 0

    def test_matches_pairwise_oracle(self, rng):
        # correlated images so both keeps and removals occur
        base = rng.integers(60, 196, size=(8, 8))
        images = []
        for _ in range(40):
            noisy = np.clip(base + rng.normal(0, rng.uniform(2, 60), size=(8, 8)), 0, 255)
            images.append(make_image(noisy))
        samples = make_samples(images)
        for th in (0.1, 0.5, 0.9):
            ds = Dataset(samples)
            deduplicate(ds, th)
            assert kept_only(ds, samples, dedup_oracle(samples, th))

    def test_soundness_and_idempotence(self, rng):
        base = rng.integers(40, 216, size=(8, 8))
        images = []
        for _ in range(60):
            noisy = np.clip(base + rng.normal(0, rng.uniform(1, 40), size=(8, 8)), 0, 255)
            images.append(make_image(noisy))
        ds = Dataset(make_samples(images))
        th = 0.5
        deduplicate(ds, th)
        kept = ds.samples.images
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert ssim_pair(kept[i], kept[j]) <= th + 1e-9
        assert deduplicate(ds, th) == 0
        assert np.array_equal(ds.samples.images, kept)


# Reference kernels: the per-pair and per-candidate loops the module used
# before it stacked moments per call. The stacked kernels must match them bit
# for bit on power-of-two image sizes (see the similarity module docstring).

def moments_oracle(img):
    x = img.astype(np.float64).ravel()
    mu = float(np.mean(x))
    xc = x - mu
    return xc, mu, float(np.dot(xc, xc)) / x.size


def ssim_oracle(a, b, p):
    ac, mu_a, var_a = moments_oracle(a)
    bc, mu_b, var_b = moments_oracle(b)
    cov = float(np.dot(ac, bc)) / ac.size
    num = (2.0 * mu_a * mu_b + p.c1) * (2.0 * cov + p.c2)
    den = (mu_a * mu_a + mu_b * mu_b + p.c1) * (var_a + var_b + p.c2)
    return num / den


def diversity_oracle(shard, p, rng_seed):
    n = len(shard)
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    if len(pairs) > p.max_pairs:
        rng = np.random.default_rng(rng_seed)
        idx = rng.choice(len(pairs), size=p.max_pairs, replace=False)
        pairs = [pairs[i] for i in np.sort(idx)]
    total = 0.0
    for i, j in pairs:
        total += ssim_oracle(shard.images[i], shard.images[j], p)
    return total / len(pairs), len(pairs)


def gemv_dedup_oracle(samples, th, p):
    """Sequential greedy dedup: one matrix-vector product per candidate;
    returns the kept indices."""
    if not samples:
        return []
    moments = [moments_oracle(image) for image in samples.images]
    centered = np.array([m[0] for m in moments])
    mus = np.array([m[1] for m in moments])
    vars_ = np.array([m[2] for m in moments])
    kept = []
    for i in range(len(samples)):
        if kept:
            cov = centered[kept] @ centered[i] / centered.shape[1]
            num = (2.0 * mus[kept] * mus[i] + p.c1) * (2.0 * cov + p.c2)
            den = (mus[kept] ** 2 + mus[i] ** 2 + p.c1) * (vars_[kept] + vars_[i] + p.c2)
            if np.any(num > th * den):
                continue
        kept.append(i)
    return kept


def image_set(seed, n, side):
    """Samples of n correlated uint8 images: noisy copies of a few bases, with
    exact duplicates and flat images mixed in, so dedup both keeps and removes."""
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 256, size=(3, side, side))
    out = []
    for _ in range(n):
        kind = rng.integers(0, 10)
        if kind == 0 and out:
            out.append(out[rng.integers(0, len(out))])
            continue
        if kind == 1:
            data = np.full((side, side), rng.integers(0, 256))
        else:
            noise = rng.normal(0, rng.uniform(1, 90), size=(side, side))
            data = np.clip(bases[rng.integers(0, 3)] + noise, 0, 255)
        out.append(make_image(data))
    return make_samples(out) if out else no_samples(side)


sides = st.sampled_from([8, 32])
params = st.builds(SsimParams, k1=st.sampled_from([0.01, 0.05]),
                   k2=st.sampled_from([0.03, 0.1]), max_pairs=st.integers(1, 300))
thresholds = st.floats(0.05, 0.95)


@st.composite
def image_pairs(draw):
    side = draw(sides)
    return [make_image(draw(arrays(np.uint8, (side, side)))) for _ in range(2)]


class TestStackedKernelsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(image_pairs(), params)
    def test_ssim_pair(self, pair, p):
        a, b = pair
        s = ssim_pair(a, b, p)
        assert s == ssim_oracle(a, b, p)
        assert s == ssim_pair(b, a, p)
        assert -1.0 <= s <= 1.0
        assert ssim_pair(a, a, p) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), sides, params,
           st.integers(0, 2**16))
    def test_dataset_diversity(self, seed, n, side, p, rng_seed):
        # max_pairs up to 300 against C(n, 2) up to 780: both modes occur
        shard = image_set(seed, n, side)
        got = dataset_diversity(shard, p, rng_seed=rng_seed)
        assert (got.mean_pairwise_ssim, got.pairs_evaluated) == \
            diversity_oracle(shard, p, rng_seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([0, 1, DEDUP_BLOCK - 1, DEDUP_BLOCK, DEDUP_BLOCK + 1,
                            3 * DEDUP_BLOCK + 5]),
           sides, thresholds, params)
    def test_deduplicate_and_idempotence(self, seed, n, side, th, p):
        samples = image_set(seed, n, side)
        ds = Dataset(samples)
        removed = deduplicate(ds, th, p)
        expected = gemv_dedup_oracle(samples, th, p)
        assert kept_only(ds, samples, expected)
        assert removed == n - len(expected)
        assert deduplicate(ds, th, p) == 0
        assert kept_only(ds, samples, expected)
