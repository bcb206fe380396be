"""Participant selection: diversity/battery scoring, per-sub-region ranking
and the random baseline.

The score combines shard diversity (1 - mean SSIM) with the post-cost
residual battery fraction. Both strategies rank or draw from exactly the UAVs
they are given: the harness's retire pass decides which UAVs can fund a round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import RoundCost
from .errors import CohortInfeasible
from .similarity import DiversityScore
from .types import UavState


@dataclass(frozen=True)
class Selection:
    chosen: tuple[tuple[int, int, float], ...]  # (uav_id, subregion_id, score)
    degraded_subregions: tuple[int, ...] = field(default=())

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.chosen)


def deeps_score(battery_j: float, battery_max_j: float, shard_diversity: DiversityScore,
                est_cost: RoundCost, xi: float) -> float:
    """xi * (1 - mean SSIM) + (1 - xi) * (B - E_train - E_tx) / B_max."""
    diversity = 1.0 - shard_diversity.mean_pairwise_ssim
    residual = (battery_j - est_cost.train_energy_j - est_cost.tx_energy_j) / battery_max_j
    return xi * diversity + (1.0 - xi) * residual


def deeps_select(uavs: list[UavState], battery: dict[int, float], subregion_count: int,
                 quota: int, xi: float, diversity_cache: dict[int, DiversityScore],
                 cost_estimates: dict[int, RoundCost]) -> Selection:
    """Per sub-region 1..subregion_count, take the `quota` highest-scoring UAVs
    of `uavs`, scored at their charge in `battery`.

    Ties break toward the lower UAV id. Sub-regions with fewer than `quota`
    candidates are reported in `degraded_subregions` and the cohort shrinks.
    """
    by_subregion = {sr: [] for sr in range(1, subregion_count + 1)}
    for u in uavs:
        score = deeps_score(battery[u.id], u.battery_max_j, diversity_cache[u.id],
                            cost_estimates[u.id], xi)
        by_subregion[u.subregion_id].append((score, u.id))

    chosen: list[tuple[int, int, float]] = []
    degraded: list[int] = []
    for sr, scored in by_subregion.items():
        ranked = sorted(scored, key=lambda t: (-t[0], t[1]))
        if len(ranked) < quota:
            degraded.append(sr)
        for score, uid in ranked[:quota]:
            chosen.append((uid, sr, score))

    return Selection(chosen=tuple(chosen), degraded_subregions=tuple(degraded))


def random_select(uavs: list[UavState], cohort_size: int, rng_seed) -> Selection:
    """Uniform cohort of `cohort_size` of the given UAVs, with no sub-region quota."""
    alive = sorted(uavs, key=lambda u: u.id)
    if len(alive) < cohort_size:
        raise CohortInfeasible(f"{len(alive)} alive UAVs < cohort size {cohort_size}")
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(len(alive), size=cohort_size, replace=False)
    chosen = sorted(
        (alive[i].id, alive[i].subregion_id, 0.0) for i in picks
    )
    return Selection(chosen=tuple(chosen))
