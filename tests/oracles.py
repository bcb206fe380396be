"""Exhaustive selection oracle that the selection tests and acceptance
criterion 4 check `deeps_select` against; combinatorial in the fleet size,
so it is guarded to tiny instances."""

from __future__ import annotations

import itertools

from uavfl.cost import RoundCost
from uavfl.errors import CohortInfeasible, UavFlError
from uavfl.selection import Selection, deeps_score, is_feasible
from uavfl.similarity import DiversityScore
from uavfl.types import UavState


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
