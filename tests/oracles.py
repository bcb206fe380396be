"""Reference implementations the tests check the package against.

`ssim_pair` is the SSIM reference: the global-statistics SSIM of one image
pair, from that pair's own moments. Acceptance criterion 2 and the
similarity tests check the diversity and dedup kernels against it, and
criterion 7 reads the generator's calibration anchor with it.
`oracle_select` is the exhaustive selection oracle that the selection tests
and acceptance criterion 4 check `deeps_select` against; combinatorial in the
fleet size, so it is guarded to tiny instances. `oracle_uav_dataset` is the
one-image-at-a-time generator, with a per-UAV walk summed by `np.cumsum` and
class patterns built per UAV, that `test_datagen` checks the blocked
generator against byte for byte. `oracle_local_train` is the
textbook Adam loop over the whole parameter vector, with its own backward
pass and a fresh array per operation, that `test_learning` checks the
buffered, active-rows step of `local_train` against bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from uavfl.cost import RoundCost, is_feasible
from uavfl.datagen import (BASE_LEVEL, GenSpec, UavData, _entropy, _label_track,
                           _smooth_field)
from uavfl.errors import CohortInfeasible, InvariantViolation, UavFlError
from uavfl.learning import ADAM_BETA1, ADAM_BETA2, ModelSpec, check_params, samples_to_matrix
from uavfl.selection import Selection, deeps_score
from uavfl.similarity import C1, C2, DiversityScore
from uavfl.types import Samples, UavState


class InstanceTooLarge(UavFlError):
    pass


def ssim_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Global-statistics SSIM of two equally sized 2-D uint8 images, in [-1, 1].

    Exactly 1.0 when both images have identical means, variances and
    covariance (in particular when a and b are the same image).
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise InvariantViolation(f"ssim_pair needs two equal 2-D images, "
                                 f"got {a.shape} and {b.shape}")
    c = np.stack([a, b]).reshape(2, -1).astype(np.float64)
    mu = c.mean(axis=1)
    c -= mu[:, None]
    var = np.einsum("ij,ij->i", c, c) / c.shape[1]
    # the same einsum kernel as the variances, so a self-pair gives cov == var
    cov = np.einsum("i,i->", c[0], c[1]) / c.shape[1]
    num = (2.0 * mu[0] * mu[1] + C1) * (2.0 * cov + C2)
    den = (mu[0] * mu[0] + mu[1] * mu[1] + C1) * (var[0] + var[1] + C2)
    return float(num / den)


def oracle_select(uavs: list[UavState], cohort_size: int, quota: int, xi: float,
                  diversity_cache: dict[int, DiversityScore],
                  cost_estimates: dict[int, RoundCost],
                  max_uavs: int = 20) -> Selection:
    """Exhaustive search over all feasible cohorts meeting the quota constraints,
    each UAV at the charge it starts with.

    Maximizes the summed score; ties break toward the lexicographically
    smallest sorted id list.
    """
    if len(uavs) > max_uavs:
        raise InstanceTooLarge(f"{len(uavs)} UAVs > enumeration guard {max_uavs}")

    candidates = []
    for u in sorted(uavs, key=lambda x: x.id):
        cost = cost_estimates[u.id]
        if not is_feasible(u.battery_j, cost):
            continue
        score = deeps_score(u.battery_j, u.battery_max_j, diversity_cache[u.id], cost, xi)
        candidates.append((u.id, u.subregion_id, score))

    subregions = sorted({u.subregion_id for u in uavs})
    best: tuple[float, tuple[int, ...], tuple] | None = None
    for combo in itertools.combinations(candidates, cohort_size):
        counts = {sr: 0 for sr in subregions}
        for _, sr, _ in combo:
            counts[sr] += 1
        if any(c < quota for c in counts.values()):
            continue
        total = sum(c[2] for c in combo)
        ids = tuple(sorted(c[0] for c in combo))
        if best is None or total > best[0] or (total == best[0] and ids < best[1]):
            best = (total, ids, combo)
    if best is None:
        raise CohortInfeasible("no feasible cohort satisfies the quota constraints")
    return Selection(chosen=tuple(sorted(best[2])))


def _oracle_walk_frames(seed, subregion_id: int, length: int, spec: GenSpec) -> np.ndarray:
    """First `length` frames of the sub-region scene walk, from fresh arrays."""
    rng = np.random.default_rng(np.random.SeedSequence([_entropy(seed), 104, subregion_id]))
    w = spec.walk_window
    side = spec.image_side
    innovations = rng.standard_normal((length + w - 1, side, side))
    innovations -= innovations.mean(axis=(1, 2), keepdims=True)
    std = innovations.std(axis=(1, 2), keepdims=True)
    std[std == 0] = 1.0
    innovations /= std
    csum = np.cumsum(innovations, axis=0)
    frames = np.empty((length, side, side))
    frames[0] = csum[w - 1]
    frames[1:] = csum[w:] - csum[:length - 1]
    return frames / np.sqrt(w)


def _oracle_class_pattern(seed, cls: int, subregion_id: int, spec: GenSpec) -> np.ndarray:
    """Class `cls`'s pattern in one sub-region, its shared and local fields
    built for this call alone."""
    shared = _smooth_field([_entropy(seed), 101, cls], spec.image_side)
    local = _smooth_field([_entropy(seed), 102, subregion_id, cls], spec.image_side)
    mu = spec.class_share
    return mu * shared + np.sqrt(1.0 - mu * mu) * local


def oracle_uav_dataset(spec: GenSpec, subregion_id: int, uav_id: int,
                       rng_seed: int) -> UavData:
    """One UAV's dataset made one image at a time, with the sub-region's walk,
    label track and patterns rebuilt for this UAV alone."""
    rng_u = np.random.default_rng(np.random.SeedSequence([_entropy(rng_seed), 105,
                                                          subregion_id, uav_id]))
    n = int(rng_u.integers(spec.samples_min, spec.samples_max + 1))
    offset = int(rng_u.integers(0, spec.offset_span + 1))

    span = spec.offset_span + spec.samples_max
    frames = _oracle_walk_frames(rng_seed, subregion_id, span, spec)
    labels = _label_track(rng_seed, subregion_id, span, spec)
    patterns = {c: _oracle_class_pattern(rng_seed, c, subregion_id, spec) for c in (0, 1)}

    rho = spec.redundancy
    wv = spec.walk_weight
    eta_norm = np.sqrt(wv * wv + (1.0 - wv) ** 2)
    images = np.empty((n, spec.image_side, spec.image_side), dtype=np.uint8)
    for i in range(n):
        t = offset + i
        noise = rng_u.standard_normal((spec.image_side, spec.image_side))
        varying = (wv * frames[t] + (1.0 - wv) * noise) / eta_norm
        field = rho * patterns[int(labels[t])] + (1.0 - rho) * varying
        images[i] = np.clip(np.rint(BASE_LEVEL + spec.contrast * field), 0, 255)
    samples = Samples(images, labels[offset:offset + n])

    test = np.zeros(n, dtype=bool)
    test[rng_u.permutation(n)[:int(round(spec.test_fraction * n))]] = True
    return UavData(train=samples[~test], test=samples[test])


def _oracle_grad(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                 spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the batch's mean BCE over the whole parameter vector, from
    fresh arrays, and which hidden units fired (z1 > 0) on some sample."""
    d, h = X.shape[1], spec.hidden_dim
    w1, b1 = params[:d * h].reshape(h, d), params[d * h:d * h + h]
    w2, b2 = params[d * h + h:d * h + 2 * h], params[-1]
    z1 = X @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    p = 1.0 / (1.0 + np.exp(-(a1 @ w2 + b2)))
    dz2 = (p - y) / X.shape[0]
    gw2 = a1.T @ dz2
    gb2 = float(np.sum(dz2))
    dz1 = np.outer(dz2, w2) * (z1 > 0.0)
    gw1 = dz1.T @ X
    gb1 = dz1.sum(axis=0)
    return np.concatenate([gw1.ravel(), gb1, gw2, [gb2]]), (z1 > 0.0).any(axis=0)


def oracle_local_train(params_in: np.ndarray, shard: Samples, spec: ModelSpec,
                       epochs: int, rng_seed, firing: list | None = None) -> np.ndarray:
    """Mini-batch Adam written as the textbook update on every parameter, one
    expression per moment; the batches are `local_train`'s. `firing`, when
    given, gets each batch's fired units in batch order."""
    X, y = samples_to_matrix(shard)
    params = check_params(params_in, X.shape[1], spec).copy()
    rng = np.random.default_rng(rng_seed)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0
    n = len(shard)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            sel = order[start:start + spec.batch_size]
            grad, fired = _oracle_grad(params, X[sel], y[sel], spec)
            if firing is not None:
                firing.append(fired)
            t += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            mhat = m / (1.0 - ADAM_BETA1 ** t)
            vhat = v / (1.0 - ADAM_BETA2 ** t)
            params -= spec.learning_rate * mhat / (np.sqrt(vhat) + spec.adam_eps)
    return params
