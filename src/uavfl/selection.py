"""Participant selection: diversity/battery scoring, per-sub-region ranking,
the random baseline, and an exhaustive oracle for small instances.

The score combines shard diversity (1 - mean SSIM) with the post-cost
residual battery fraction; candidates must satisfy the battery feasibility
constraint (round energy <= residual battery) before they can be ranked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cost import RoundCost
from .errors import CohortInfeasible, InstanceTooLarge
from .similarity import DiversityScore
from .types import UavState


@dataclass(frozen=True)
class Selection:
    chosen: tuple[tuple[int, int, float], ...]  # (uav_id, subregion_id, score)
    degraded_subregions: tuple[int, ...] = field(default=())

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.chosen)


def deeps_score(uav: UavState, shard_diversity: DiversityScore,
                est_cost: RoundCost, xi: float) -> float:
    """xi * (1 - mean SSIM) + (1 - xi) * (B - E_train - E_tx) / B_max."""
    diversity = 1.0 - shard_diversity.mean_pairwise_ssim
    residual = (uav.battery_j - est_cost.train_energy_j - est_cost.tx_energy_j) / uav.battery_max_j
    return xi * diversity + (1.0 - xi) * residual


def is_feasible(uav: UavState, est_cost: RoundCost) -> bool:
    """Battery feasibility: the round's training + transmit energy fits the battery."""
    return est_cost.total_energy_j <= uav.battery_j


def deeps_select(uavs: list[UavState], quota: int, xi: float,
                 diversity_cache: dict[int, DiversityScore],
                 cost_estimates: dict[int, RoundCost]) -> Selection:
    """Per sub-region, take the `quota` highest-scoring alive+feasible UAVs.

    Ties break toward the lower UAV id. Sub-regions without any feasible
    candidate are reported in `degraded_subregions` and the cohort shrinks.
    """
    by_subregion: dict[int, list[tuple[float, int]]] = {}
    for u in uavs:
        if not u.alive:
            continue
        cost = cost_estimates[u.id]
        if not is_feasible(u, cost):
            continue
        score = deeps_score(u, diversity_cache[u.id], cost, xi)
        by_subregion.setdefault(u.subregion_id, []).append((score, u.id))

    chosen: list[tuple[int, int, float]] = []
    degraded: list[int] = []
    for sr in sorted({u.subregion_id for u in uavs}):
        ranked = sorted(by_subregion.get(sr, []), key=lambda t: (-t[0], t[1]))
        if len(ranked) < quota:
            degraded.append(sr)
        for score, uid in ranked[:quota]:
            chosen.append((uid, sr, score))

    return Selection(chosen=tuple(chosen), degraded_subregions=tuple(degraded))


def random_select(uavs: list[UavState], cohort_size: int, rng_seed) -> Selection:
    """Uniform cohort of `cohort_size` alive UAVs, no sub-region or feasibility filter."""
    alive = sorted((u for u in uavs if u.alive), key=lambda u: u.id)
    if len(alive) < cohort_size:
        raise CohortInfeasible(f"{len(alive)} alive UAVs < cohort size {cohort_size}")
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(len(alive), size=cohort_size, replace=False)
    chosen = sorted(
        (alive[i].id, alive[i].subregion_id, 0.0) for i in picks
    )
    return Selection(chosen=tuple(chosen))


def oracle_select(uavs: list[UavState], cohort_size: int, quota: int, xi: float,
                  diversity_cache: dict[int, DiversityScore],
                  cost_estimates: dict[int, RoundCost],
                  max_uavs: int = 20) -> Selection:
    """Exhaustive search over all feasible cohorts meeting the quota constraints.

    Maximizes the summed score; ties break toward the lexicographically
    smallest sorted id list. Guarded to tiny instances: enumeration is
    combinatorial in N.
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
