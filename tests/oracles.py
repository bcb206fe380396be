"""Reference implementations the tests check the package against.

`oracle_select` is the exhaustive selection oracle that the selection tests
and acceptance criterion 4 check `deeps_select` against; combinatorial in the
fleet size, so it is guarded to tiny instances. `oracle_uav_dataset` is the
one-image-at-a-time generator, with a per-UAV walk, that `test_datagen` checks
the blocked generator against byte for byte.
"""

from __future__ import annotations

import itertools

import numpy as np

from uavfl.cost import RoundCost
from uavfl.datagen import (BASE_LEVEL, GenSpec, UavData, _class_pattern, _entropy,
                           _label_track)
from uavfl.errors import CohortInfeasible, UavFlError
from uavfl.selection import Selection, deeps_score, is_feasible
from uavfl.similarity import DiversityScore
from uavfl.types import Samples, UavState


class InstanceTooLarge(UavFlError):
    pass


def oracle_select(uavs: list[UavState], cohort_size: int, quota: int, xi: float,
                  diversity_cache: dict[int, DiversityScore],
                  cost_estimates: dict[int, RoundCost],
                  max_uavs: int = 20) -> Selection:
    """Exhaustive search over all feasible cohorts meeting the quota constraints.

    Maximizes the summed score; ties break toward the lexicographically
    smallest sorted id list.
    """
    if len(uavs) > max_uavs:
        raise InstanceTooLarge(f"{len(uavs)} UAVs > enumeration guard {max_uavs}")

    candidates = []
    for u in sorted(uavs, key=lambda x: x.id):
        if not u.alive:
            continue
        cost = cost_estimates[u.id]
        if not is_feasible(u, cost):
            continue
        score = deeps_score(u, diversity_cache[u.id], cost, xi)
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
    patterns = {c: _class_pattern(rng_seed, c, subregion_id, spec) for c in (0, 1)}

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
