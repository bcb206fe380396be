"""Structural similarity between images, dataset diversity, and dedup.

The SSIM here is the global-statistics form: one window spanning the whole
image, population (divisor N) variance and covariance. Values differ from
sliding-window SSIM implementations on purpose; this is the form the
selection score and dedup threshold are defined on. Its stabilizers are the
module constants C1 = (0.01 * 255)^2 and C2 = (0.03 * 255)^2 of Wang et al.
(IEEE TIP 13(4), 2004); C1 > 0 holds by construction, as the dedup proof needs.

Each call stacks its images once into centered float64 rows with per-image
means and variances; covariances come from matrix products (a Gram matrix
for diversity, blocked GEMMs for dedup). For N = h*w pixels, N a power of two
<= 4096, no result depends on summation order, BLAS blocking or thread count:
the mean, every centered pixel and every product of two are exact, and every
partial sum of products lies on a 2^(-2 log2 N) grid below 2^(16 + log2 N),
within 16 + 3 log2 N <= 52 bits. Other sizes may move in the last ulp between
kernels; no shipped configuration uses one.

Dedup keeps those float64 means and variances for every N, block by block,
but multiplies float32 copies of the centered rows. It decides a pair from
the float32 product only where that provably gives the float64 kernel's
decision, and recomputes the rest in float64. With u = 2^-24, u64 = 2^-53 and
Higham's gamma_n = n u / (1 - n u) (Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 3.1):
- Rows. At N = 2^k <= 4096 the float32 rows equal the float64 ones: N(x - mu)
  = N x - S is an integer of magnitude below 255 N < 2^20 (below 2^18 at
  N = 1024), which float32's 24-bit significand holds. At other N each
  element rounds by at most u relative.
- GEMM. For float64 rows a, b let G = a.b, the float64 kernel's covariance
  times N. The float32 value g obeys |g - a32.b32| <= gamma_N |a32|.|b32| in
  any summation order or blocking, with or without FMA; no product
  underflows (a nonzero one is at least 2^-106). As |a|.|b| <= ||a|| ||b||,
  |g - G| <= beta ||a|| ||b||. At N = 2^k <= 4096, where G is exact,
  beta = gamma_N. At other N, beta = gamma_N (1 + u)^2 + 2u + u^2 +
  gamma64_N: the extra terms cover the rounded float32 rows and G's own
  float64 rounding, in any order.
- Norms. ||a||^2 = N var_a at N = 2^k <= 4096 and at most
  N var_a / ((1 - u64)(1 - gamma64_N)) at other N. The bound is evaluated as
  E = sqrt(w var_a) sqrt(w var_b) with w = beta (1 + 2^-20) N; that factor
  covers the quotient and the float64 roundings of w, the square roots and
  the product for every N < 2^24. Beyond that gamma_N is infinite, E is not
  finite, and every pair is recomputed.
- Decision. The float64 test is num > ssim_th * den with num =
  (2 mu_a mu_b + C1)(2 cov + C2) and cov = G / N. Since mu >= 0,
  2 mu_a mu_b + C1 > 0, and rounding is monotone, so the computed num is a
  non-decreasing function of G, its own rounding included. The same float64
  expressions, evaluated at g - E <= G and at g + E >= G (rounding either
  sum does not cross the float64 G), bracket the test: the pair trips if
  the lower end trips and does not if the upper end does not. A pair
  between the two is recomputed from float64 rows rebuilt from its pixels
  with the float64 kernel, exact at N = 2^k <= 4096 like the GEMM. So every
  decision is the float64 kernel's, for every threshold and image size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .types import Dataset, Samples


DYNAMIC_RANGE = 255.0  # intensity range of uint8 pixels
C1 = (0.01 * DYNAMIC_RANGE) ** 2  # SSIM stabilizers, K1 = 0.01 and K2 = 0.03
C2 = (0.03 * DYNAMIC_RANGE) ** 2
DEDUP_BLOCK = 64  # dedup candidates per GEMM against the kept rows and themselves


@dataclass(frozen=True)
class SsimParams:
    """The `ssim` config section: the diversity pair cap."""

    max_pairs: int = 1000  # most pairs one shard-diversity estimate evaluates

    def __post_init__(self):
        if self.max_pairs < 1:
            raise InvariantViolation("max_pairs must be >= 1")


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


_U32, _U64 = 2.0 ** -24, 2.0 ** -53  # unit roundoffs of float32 and float64


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: an n-term dot product rounded with unit roundoff u, in
    any order, errs by at most gamma_n |x|.|y|."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def _gemm_error_weight(size: int) -> float:
    """w such that sqrt(w var_a) sqrt(w var_b) bounds how far dedup's float32
    product of two centered rows of `size` pixels lies from the float64 one
    (the module docstring proves it)."""
    beta = _gamma(size, _U32)
    if size & (size - 1) or size > 4096:  # rows round to float32, and the float64 sum rounds
        beta = beta * (1.0 + _U32) ** 2 + 2.0 * _U32 + _U32 ** 2 + _gamma(size, _U64)
    return beta * (1.0 + 2.0 ** -20) * size


def _ssim_terms(mu_a, var_a, mu_b, var_b, cov):
    """SSIM numerator and denominator; broadcasts over arrays, SSIM = num / den."""
    num = (2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2)
    den = (mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2)
    return num, den


def ssim_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Global-statistics SSIM of two equally sized 2-D uint8 images, in [-1, 1].

    Exactly 1.0 when both images have identical means, variances and
    covariance (in particular when a and b are the same image).
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise InvariantViolation(f"ssim_pair needs two equal 2-D images, "
                                 f"got {a.shape} and {b.shape}")
    c, mu, var = _stack_moments(np.stack([a, b]))
    # the same einsum kernel as the variances, so a self-pair gives cov == var
    cov = np.einsum("i,i->", c[0], c[1]) / c.shape[1]
    num, den = _ssim_terms(mu[0], var[0], mu[1], var[1], cov)
    return float(num / den)


@functools.lru_cache(maxsize=128)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, read-only: the (i, j) pairs, i < j, in
    row-major order. Shard sizes repeat round after round, so each is built once."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


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
        raise InvariantViolation("diversity needs at least 2 samples")
    c, mu, var = _stack_moments(shard.images)
    i, j = _pairs(n)
    if i.size > p.max_pairs:
        idx = np.sort(np.random.default_rng(rng_seed).choice(i.size, p.max_pairs, replace=False))
        i, j = i[idx], j[idx]
    cov = (c @ c.T)[i, j] / c.shape[1]
    num, den = _ssim_terms(mu[i], var[i], mu[j], var[j], cov)
    # cumsum adds left to right; np.sum's pairwise order would change the bits
    total = float(np.cumsum(num / den)[-1])
    return DiversityScore(mean_pairwise_ssim=total / i.size, pairs_evaluated=i.size)


def deduplicate(d: Dataset, ssim_th: float) -> int:
    """Greedy forward near-duplicate removal; returns the number removed.

    Scans samples in order and keeps a sample iff its SSIM with every
    already-kept sample is <= ssim_th. Keep-first makes the result
    deterministic and order-stable; rerunning on the output removes nothing.
    Every decision is the float64 kernel's; most are read off float32 GEMMs
    (see the module docstring).
    """
    if not 0.0 < ssim_th < 1.0:
        raise InvariantViolation("ssim_th must lie in (0, 1)")
    n = len(d.samples)
    if n == 0:
        return 0

    pixels = d.samples.images.reshape(n, -1)
    size = pixels.shape[1]
    weight = _gemm_error_weight(size)
    mu, mu2, musq, var, err = np.empty((5, n))  # per-sample terms, filled block by block
    c = np.empty((2 * DEDUP_BLOCK, size), np.float32)  # centered rows: the kept, then a block
    ids = np.empty(n, dtype=np.intp)  # the sample behind each row of c

    def recheck(ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """Whether SSIM(ia[i], ib[i]) exceeds ssim_th, by the float64 kernel."""
        cov = np.einsum("ij,ij->i", pixels[ia] - mu[ia, None], pixels[ib] - mu[ib, None]) / size
        num, den = _ssim_terms(mu[ia], var[ia], mu[ib], var[ib], cov)
        return num > ssim_th * den

    def trips(rows: slice, block: slice) -> np.ndarray:
        """[r, b]: SSIM of kept-side row r with candidate b exceeds ssim_th."""
        ia, ib = ids[rows], ids[block]
        g = c[rows] @ c[block].T
        e = err[ia, None] * err[ib]  # bounds |g - G|
        a = mu2[ia, None] * mu[ib] + C1
        t = ssim_th * ((musq[ia, None] + musq[ib] + C1) * (var[ia, None] + var[ib] + C2))
        lo, hi = g - e, g + e
        for end in (lo, hi):  # _ssim_terms' num at cov = end / size, in its order of operations
            end /= size
            end *= 2.0
            end += C2
            end *= a
        above = lo > t
        r, b = np.nonzero(~(above | (hi <= t)))
        if r.size:
            above[r, b] = recheck(ia[r], ib[b])
        return above

    k = 0  # samples kept so far; their rows lead c
    for start in range(0, n, DEDUP_BLOCK):
        block = slice(start, min(start + DEDUP_BLOCK, n))
        rows = slice(k, k + block.stop - start)  # the block's rows in c
        if rows.stop > len(c):
            c = np.concatenate((c, np.empty_like(c)))
        c[rows], mu[block], var[block] = _stack_moments(d.samples.images[block])
        mu2[block], musq[block] = 2.0 * mu[block], mu[block] * mu[block]
        err[block] = np.sqrt(weight * var[block])
        ids[rows] = np.arange(block.start, block.stop)
        tripped = trips(slice(0, rows.stop), rows)  # by each kept row, then by each candidate
        dead = tripped[:k].any(axis=0)
        for j, row in enumerate(range(rows.start, rows.stop)):
            if not dead[j]:
                dead |= tripped[row]
                c[k], ids[k] = c[row], ids[row]
                k += 1

    d.samples = d.samples[ids[:k]]
    return n - k
