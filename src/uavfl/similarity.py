"""Structural similarity between images, dataset diversity, and dedup.

The SSIM here is the global-statistics form: one window spanning the whole
image, population (divisor N) variance and covariance. Values differ from
sliding-window SSIM implementations on purpose; this is the form the
selection score and dedup threshold are defined on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AlreadyDeduplicated, DimensionMismatch, InvariantViolation,
                     TooFewSamples)
from .types import Dataset, GrayImage, LabeledSample


DYNAMIC_RANGE = 255.0  # intensity range of the uint8 pixels of a GrayImage


@dataclass(frozen=True)
class SsimParams:
    """The `ssim` config section: SSIM stabilizers and the diversity pair cap."""

    k1: float = 0.01
    k2: float = 0.03
    max_pairs: int = 1000  # most pairs one shard-diversity estimate evaluates

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise InvariantViolation("stabilizers must be positive")
        if self.max_pairs < 1:
            raise InvariantViolation("max_pairs must be >= 1")

    @property
    def c1(self) -> float:
        return (self.k1 * DYNAMIC_RANGE) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * DYNAMIC_RANGE) ** 2


@dataclass(frozen=True)
class DiversityScore:
    mean_pairwise_ssim: float
    pairs_evaluated: int


def _moments(img: GrayImage) -> tuple[np.ndarray, float, float]:
    """Flattened float pixels, their mean, and population variance."""
    x = img.data.astype(np.float64).ravel()
    mu = float(np.mean(x))
    xc = x - mu
    var = float(np.dot(xc, xc)) / x.size
    return xc, mu, var


def _ssim_from_moments(mu_a: float, var_a: float, mu_b: float, var_b: float,
                       cov: float, p: SsimParams) -> float:
    num = (2.0 * mu_a * mu_b + p.c1) * (2.0 * cov + p.c2)
    den = (mu_a * mu_a + mu_b * mu_b + p.c1) * (var_a + var_b + p.c2)
    return num / den


def ssim_pair(a: GrayImage, b: GrayImage, p: SsimParams = SsimParams()) -> float:
    """Global-statistics SSIM of two equally sized images, in [-1, 1].

    Exactly 1.0 when both images have identical means, variances and
    covariance (in particular when a and b are the same image).
    """
    if a.data.shape != b.data.shape:
        raise DimensionMismatch(f"image shapes differ: {a.data.shape} vs {b.data.shape}")
    ac, mu_a, var_a = _moments(a)
    bc, mu_b, var_b = _moments(b)
    cov = float(np.dot(ac, bc)) / ac.size
    return _ssim_from_moments(mu_a, var_a, mu_b, var_b, cov, p)


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n)]


def dataset_diversity(shard: list[LabeledSample], p: SsimParams = SsimParams(),
                      rng_seed=0) -> DiversityScore:
    """Mean SSIM over unordered sample pairs of one shard.

    Exhaustive when the shard has at most `p.max_pairs` pairs; otherwise a
    seeded without-replacement sample of `p.max_pairs` distinct pairs. The
    mean is accumulated in a fixed order, so results are deterministic.
    """
    n = len(shard)
    if n < 2:
        raise TooFewSamples("diversity needs at least 2 samples")
    pairs = _all_pairs(n)
    if len(pairs) > p.max_pairs:
        rng = np.random.default_rng(rng_seed)
        idx = rng.choice(len(pairs), size=p.max_pairs, replace=False)
        pairs = [pairs[i] for i in np.sort(idx)]
    total = 0.0
    for i, j in pairs:
        total += ssim_pair(shard[i].image, shard[j].image, p)
    return DiversityScore(mean_pairwise_ssim=total / len(pairs), pairs_evaluated=len(pairs))


def deduplicate(d: Dataset, ssim_th: float, p: SsimParams = SsimParams()) -> int:
    """Greedy forward near-duplicate removal; returns the number removed.

    Scans samples in order and keeps a sample iff its SSIM with every
    already-kept sample is <= ssim_th. Keep-first makes the result
    deterministic and order-stable; rerunning on the output removes nothing.
    """
    if d.dedup_done:
        raise AlreadyDeduplicated("dataset already deduplicated")
    if not 0.0 < ssim_th < 1.0:
        raise InvariantViolation("ssim_th must lie in (0, 1)")
    n = len(d.samples)
    if n == 0:
        d.dedup_done = True
        return 0

    shape = d.samples[0].image.data.shape
    centered = np.empty((n, shape[0] * shape[1]), dtype=np.float64)
    mus = np.empty(n)
    vars_ = np.empty(n)
    for i, s in enumerate(d.samples):
        if s.image.data.shape != shape:
            raise DimensionMismatch("dedup requires uniformly sized images")
        centered[i], mus[i], vars_[i] = _moments(s.image)

    npix = centered.shape[1]
    kept: list[int] = []
    # kept rows are packed into a reusable buffer so each candidate is checked
    # against all kept samples with a single matrix-vector product
    buf = np.empty_like(centered)
    kept_mu = np.empty(n)
    kept_var = np.empty(n)
    for i in range(n):
        k = len(kept)
        if k:
            cov = buf[:k] @ centered[i] / npix
            num = (2.0 * kept_mu[:k] * mus[i] + p.c1) * (2.0 * cov + p.c2)
            den = (kept_mu[:k] ** 2 + mus[i] ** 2 + p.c1) * (kept_var[:k] + vars_[i] + p.c2)
            if np.any(num > ssim_th * den):
                continue
        buf[k] = centered[i]
        kept_mu[k] = mus[i]
        kept_var[k] = vars_[i]
        kept.append(i)

    removed = n - len(kept)
    d.samples = [d.samples[i] for i in kept]
    d.dedup_done = True
    return removed
