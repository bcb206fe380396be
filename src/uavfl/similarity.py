"""Structural similarity between images, dataset diversity, and dedup.

The SSIM here is the global-statistics form: one window spanning the whole
image, population (divisor N) variance and covariance. Values differ from
sliding-window SSIM implementations on purpose; this is the form the
selection score and dedup threshold are defined on.

Each call stacks its images once into centered float64 rows with per-image
means and variances; covariances come from matrix products (a Gram matrix
for diversity, blocked GEMMs for dedup). For N = h*w pixels, N a power of two
<= 4096, no result depends on summation order, BLAS blocking or thread count:
the mean, every centered pixel and every product of two are exact, and every
partial sum of products lies on a 2^(-2 log2 N) grid below 2^(16 + log2 N),
within 16 + 3 log2 N <= 52 bits. Other sizes may move in the last ulp between
kernels; no shipped configuration uses one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, TooFewSamples
from .types import Dataset, Samples


DYNAMIC_RANGE = 255.0  # intensity range of uint8 pixels
DEDUP_BLOCK = 64  # dedup candidates per GEMM against the kept rows and per self-GEMM


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


def _stack_moments(images: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, N) centered float64 pixel rows, means and population variances of (n, h, w) images."""
    x = images.reshape(len(images), -1).astype(np.float64)
    mu = x.mean(axis=1)
    x -= mu[:, None]
    return x, mu, np.einsum("ij,ij->i", x, x) / x.shape[1]


def _ssim_terms(mu_a, var_a, mu_b, var_b, cov, p: SsimParams):
    """SSIM numerator and denominator; broadcasts over arrays, SSIM = num / den."""
    num = (2.0 * mu_a * mu_b + p.c1) * (2.0 * cov + p.c2)
    den = (mu_a * mu_a + mu_b * mu_b + p.c1) * (var_a + var_b + p.c2)
    return num, den


def ssim_pair(a: np.ndarray, b: np.ndarray, p: SsimParams = SsimParams()) -> float:
    """Global-statistics SSIM of two equally sized 2-D uint8 images, in [-1, 1].

    Exactly 1.0 when both images have identical means, variances and
    covariance (in particular when a and b are the same image).
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionMismatch(f"ssim_pair needs two equal 2-D images, got {a.shape} and {b.shape}")
    c, mu, var = _stack_moments(np.stack([a, b]))
    # the same einsum kernel as the variances, so a self-pair gives cov == var
    cov = np.einsum("i,i->", c[0], c[1]) / c.shape[1]
    num, den = _ssim_terms(mu[0], var[0], mu[1], var[1], cov, p)
    return float(num / den)


def dataset_diversity(shard: Samples, p: SsimParams = SsimParams(),
                      rng_seed=0) -> DiversityScore:
    """Mean SSIM over unordered sample pairs of one shard.

    Exhaustive when the shard has at most `p.max_pairs` pairs; otherwise a
    seeded without-replacement sample of `p.max_pairs` distinct pairs. Pairs
    are taken in (i, j) row-major order and their mean is accumulated
    sequentially in that order, so results are deterministic.
    """
    n = len(shard)
    if n < 2:
        raise TooFewSamples("diversity needs at least 2 samples")
    c, mu, var = _stack_moments(shard.images)
    i, j = np.triu_indices(n, 1)
    if i.size > p.max_pairs:
        idx = np.sort(np.random.default_rng(rng_seed).choice(i.size, p.max_pairs, replace=False))
        i, j = i[idx], j[idx]
    cov = (c @ c.T)[i, j] / c.shape[1]
    num, den = _ssim_terms(mu[i], var[i], mu[j], var[j], cov, p)
    # cumsum adds left to right; np.sum's pairwise order would change the bits
    total = float(np.cumsum(num / den)[-1])
    return DiversityScore(mean_pairwise_ssim=total / i.size, pairs_evaluated=i.size)


def deduplicate(d: Dataset, ssim_th: float, p: SsimParams = SsimParams()) -> int:
    """Greedy forward near-duplicate removal; returns the number removed.

    Scans samples in order and keeps a sample iff its SSIM with every
    already-kept sample is <= ssim_th. Keep-first makes the result
    deterministic and order-stable; rerunning on the output removes nothing.
    """
    if not 0.0 < ssim_th < 1.0:
        raise InvariantViolation("ssim_th must lie in (0, 1)")
    n = len(d.samples)
    if n == 0:
        return 0

    c, mu, var = _stack_moments(d.samples.images)

    def trips(rows: slice, block: slice) -> np.ndarray:
        """[r, b]: SSIM of kept-side row r with candidate b exceeds ssim_th."""
        num, den = _ssim_terms(mu[rows, None], var[rows, None], mu[block], var[block],
                               c[rows] @ c[block].T / c.shape[1], p)
        return num > ssim_th * den

    kept: list[int] = []  # kept rows are compacted in place to the front of c, mu, var
    for start in range(0, n, DEDUP_BLOCK):
        block, k = slice(start, min(start + DEDUP_BLOCK, n)), len(kept)
        within = trips(block, block)
        local: list[int] = []
        for b in np.flatnonzero(~trips(slice(0, k), block).any(axis=0)):
            if not within[local, b].any():
                local.append(b)
        kept.extend(start + b for b in local)
        fresh = slice(k, len(kept))
        c[fresh], mu[fresh], var[fresh] = c[kept[fresh]], mu[kept[fresh]], var[kept[fresh]]

    d.samples = d.samples[kept]
    return n - len(kept)
