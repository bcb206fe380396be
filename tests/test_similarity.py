import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import const_image, make_image, make_samples, no_samples, random_image
from uavfl.errors import InvariantViolation
from uavfl.similarity import (C1, C2, DEDUP_BLOCK, DiversityScore, SsimParams, _pairs,
                              dataset_diversity, deduplicate, ssim_pair)
from uavfl.types import Dataset

# hand-evaluated extreme-contrast pair: zero variances and covariance reduce
# SSIM to C1*C2 / ((255^2 + C1) * C2) = 6.5025 / 65031.5025
EXTREME_PAIR_SSIM = 6.5025 / 65031.5025


class TestSsimParams:
    def test_stabilizers(self):
        # Wang et al.'s K1 = 0.01 and K2 = 0.03 at the uint8 range, bit for bit
        assert C1.hex() == ((0.01 * 255.0) ** 2).hex() == "0x1.a028f5c28f5c4p+2"
        assert C2.hex() == ((0.03 * 255.0) ** 2).hex() == "0x1.d42e147ae147ap+5"

    def test_rejects_nonpositive(self):
        with pytest.raises(InvariantViolation, match="max_pairs must be >= 1"):
            SsimParams(max_pairs=-1)


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
        with pytest.raises(InvariantViolation, match=r"ssim_pair needs two equal 2-D images, "
                                                     r"got \(8, 8\) and \(9, 9\)"):
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

    def test_pairs_are_cached_read_only(self, rng):
        i, j = _pairs(9)
        assert _pairs(9)[0] is i and _pairs(9)[1] is j
        assert all(np.array_equal(a, b) for a, b in zip((i, j), np.triu_indices(9, 1)))
        assert not i.flags.writeable and not j.flags.writeable
        shard = make_samples([random_image(rng) for _ in range(9)])
        assert dataset_diversity(shard, SsimParams(max_pairs=20)) == \
            dataset_diversity(shard, SsimParams(max_pairs=20))

    def test_too_few_samples(self):
        # a shard with no pair carries no evidence of redundancy
        for shard in (no_samples(), make_samples([const_image(0)])):
            assert dataset_diversity(shard) == DiversityScore(mean_pairwise_ssim=0.0,
                                                              pairs_evaluated=0)

    def test_bad_max_pairs(self):
        with pytest.raises(InvariantViolation):
            SsimParams(max_pairs=0)


def dedup_oracle(samples, th):
    """Reference greedy keep-first dedup built directly on ssim_pair; returns
    the kept indices."""
    kept = []
    for i, image in enumerate(samples.images):
        if all(ssim_pair(samples.images[k], image) <= th for k in kept):
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
        assert len(ds.samples) == 1

    def test_dissimilar_pair_kept(self):
        ds = Dataset(make_samples([const_image(0), const_image(255)]))
        assert deduplicate(ds, 0.5) == 0
        assert len(ds.samples) == 2

    def test_threshold_bounds(self):
        ds = Dataset(make_samples([const_image(0)]))
        for th in (0.0, 1.0):
            with pytest.raises(InvariantViolation):
                deduplicate(ds, th)

    def test_empty_dataset(self):
        ds = Dataset(no_samples())
        assert deduplicate(ds, 0.5) == 0
        assert len(ds.samples) == 0

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
# They write out the SSIM stabilizers themselves rather than import C1 and C2.
ORACLE_C1 = (0.01 * 255.0) ** 2
ORACLE_C2 = (0.03 * 255.0) ** 2

def moments_oracle(img):
    x = img.astype(np.float64).ravel()
    mu = float(np.mean(x))
    xc = x - mu
    return xc, mu, float(np.dot(xc, xc)) / x.size


def ssim_oracle(a, b):
    ac, mu_a, var_a = moments_oracle(a)
    bc, mu_b, var_b = moments_oracle(b)
    cov = float(np.dot(ac, bc)) / ac.size
    num = (2.0 * mu_a * mu_b + ORACLE_C1) * (2.0 * cov + ORACLE_C2)
    den = (mu_a * mu_a + mu_b * mu_b + ORACLE_C1) * (var_a + var_b + ORACLE_C2)
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
        total += ssim_oracle(shard.images[i], shard.images[j])
    return total / len(pairs), len(pairs)


def gemv_dedup_oracle(samples, th):
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
            num = (2.0 * mus[kept] * mus[i] + ORACLE_C1) * (2.0 * cov + ORACLE_C2)
            den = (mus[kept] ** 2 + mus[i] ** 2 + ORACLE_C1) * (vars_[kept] + vars_[i] + ORACLE_C2)
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
# 64 is the largest exact size (N = 4096); 12 has a pixel count that is not a power of two
dedup_sides = st.sampled_from([8, 12, 32, 64])
params = st.builds(SsimParams, max_pairs=st.integers(1, 300))
thresholds = st.floats(0.05, 0.95)


@st.composite
def image_pairs(draw):
    side = draw(sides)
    return [make_image(draw(arrays(np.uint8, (side, side)))) for _ in range(2)]


class TestStackedKernelsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(image_pairs())
    def test_ssim_pair(self, pair):
        a, b = pair
        s = ssim_pair(a, b)
        assert s == ssim_oracle(a, b)
        assert s == ssim_pair(b, a)
        assert -1.0 <= s <= 1.0
        assert ssim_pair(a, a) == 1.0

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
           dedup_sides, thresholds)
    def test_deduplicate_and_idempotence(self, seed, n, side, th):
        samples = image_set(seed, n, side)
        ds = Dataset(samples)
        removed = deduplicate(ds, th)
        expected = gemv_dedup_oracle(samples, th)
        assert kept_only(ds, samples, expected)
        assert removed == n - len(expected)
        assert deduplicate(ds, th) == 0
        assert kept_only(ds, samples, expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, DEDUP_BLOCK + 6), sides, st.data())
    def test_deduplicate_decides_pairs_on_the_threshold(self, seed, n, side, data):
        # a threshold within one ulp of a pair's SSIM lies far inside the float32
        # error bound, so that pair is decided by the float64 recheck
        samples = image_set(seed, n, side)
        j = data.draw(st.integers(1, n - 1), label="j")
        s = ssim_oracle(samples.images[0], samples.images[j])
        th = data.draw(st.sampled_from([np.nextafter(s, 0.0), s, np.nextafter(s, 1.0)]),
                       label="th")
        assume(0.0 < th < 1.0)
        ds = Dataset(samples)
        deduplicate(ds, th)
        assert kept_only(ds, samples, gemv_dedup_oracle(samples, th))
