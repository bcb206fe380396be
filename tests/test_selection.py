import numpy as np
import pytest

from conftest import make_uav
from uavfl.cost import RoundCost
from uavfl.errors import CohortInfeasible, InstanceTooLarge
from uavfl.selection import (deeps_score, deeps_select, is_feasible, oracle_select,
                             random_select)
from uavfl.similarity import DiversityScore

REL = 1e-12


def cost_of(e_train=0.0, e_tx=0.0) -> RoundCost:
    return RoundCost(train_time_s=0.0, uplink_time_s=0.0, downlink_time_s=0.0,
                     train_energy_j=e_train, tx_energy_j=e_tx)


def diversity_of(ssim: float) -> DiversityScore:
    return DiversityScore(mean_pairwise_ssim=ssim, pairs_evaluated=1)


class TestDeepsScore:
    def test_hand_evaluated(self):
        uav = make_uav(battery=5000.0, battery_max=10000.0)
        score = deeps_score(uav, diversity_of(0.2), cost_of(0.35, 0.009), 0.5)
        expected = 0.5 * 0.8 + 0.5 * (5000.0 - 0.359) / 10000.0
        assert abs(score - expected) / expected <= REL
        assert score == pytest.approx(0.64998, abs=1e-5)

    def test_pure_diversity(self):
        uav = make_uav(battery=5000.0, battery_max=10000.0)
        score = deeps_score(uav, diversity_of(0.2), cost_of(1.0, 1.0), 1.0)
        assert score == pytest.approx(0.8, rel=1e-15)

    def test_pure_energy(self):
        uav = make_uav(battery=5000.0, battery_max=10000.0)
        score = deeps_score(uav, diversity_of(0.2), cost_of(), 0.0)
        assert score == pytest.approx(0.5, rel=1e-15)


class TestFeasibility:
    def test_boundary_is_feasible(self):
        uav = make_uav(battery=0.359, battery_max=1.0)
        assert is_feasible(uav, cost_of(0.35, 0.009))

    def test_over_budget_is_not(self):
        uav = make_uav(battery=0.358, battery_max=1.0)
        assert not is_feasible(uav, cost_of(0.35, 0.009))


class TestDeepsSelect:
    def test_argmax_per_subregion(self):
        uavs = [make_uav(uid=1), make_uav(uid=2)]
        diversity = {1: diversity_of(0.3), 2: diversity_of(0.4)}  # scores 0.7 / 0.6
        sel = deeps_select(uavs, 1, 1.0, diversity, {1: cost_of(), 2: cost_of()})
        assert sel.ids == (1,)
        assert sel.chosen[0][2] == pytest.approx(0.7, rel=1e-15)

    def test_tie_breaks_to_lower_id(self):
        uavs = [make_uav(uid=7), make_uav(uid=3)]
        diversity = {3: diversity_of(0.5), 7: diversity_of(0.5)}
        sel = deeps_select(uavs, 1, 1.0, diversity, {3: cost_of(), 7: cost_of()})
        assert sel.ids == (3,)

    def test_infeasible_candidates_are_skipped(self):
        rich = make_uav(uid=1, battery=100.0)
        poor = make_uav(uid=2, battery=0.5)
        diversity = {1: diversity_of(0.9), 2: diversity_of(0.0)}  # poor scores higher
        costs = {1: cost_of(1.0), 2: cost_of(1.0)}
        sel = deeps_select([rich, poor], 1, 1.0, diversity, costs)
        assert sel.ids == (1,)

    def test_degraded_subregion_reported(self):
        ok = make_uav(uid=1, subregion=1, battery=100.0)
        dead = make_uav(uid=2, subregion=2, battery=0.0)
        diversity = {1: diversity_of(0.1), 2: diversity_of(0.1)}
        costs = {1: cost_of(1.0), 2: cost_of(1.0)}
        sel = deeps_select([ok, dead], 1, 1.0, diversity, costs)
        assert sel.ids == (1,)
        assert sel.degraded_subregions == (2,)

    def test_dead_uavs_ignored(self):
        downed = make_uav(uid=1)
        downed.alive = False
        alive = make_uav(uid=2)
        diversity = {1: diversity_of(0.0), 2: diversity_of(0.9)}
        sel = deeps_select([downed, alive], 1, 1.0, diversity,
                           {1: cost_of(), 2: cost_of()})
        assert sel.ids == (2,)


class TestRandomSelect:
    def _fleet(self, n=40, subregions=10):
        return [make_uav(uid=i, subregion=(i - 1) % subregions + 1)
                for i in range(1, n + 1)]

    def test_forced_full_cohort(self):
        uavs = self._fleet(n=4, subregions=4)
        sel = random_select(uavs, 4, np.random.SeedSequence([0, 4, 1]))
        assert sel.ids == (1, 2, 3, 4)

    def test_same_seed_same_cohort(self):
        uavs = self._fleet()
        s1 = random_select(uavs, 10, np.random.SeedSequence([9, 4, 1]))
        s2 = random_select(uavs, 10, np.random.SeedSequence([9, 4, 1]))
        assert s1.ids == s2.ids

    def test_golden_cohort(self):
        # frozen output of the seeded sampler; guards the selection stream
        # against accidental reordering or generator changes
        uavs = self._fleet()
        sel = random_select(uavs, 10, np.random.SeedSequence([123, 4, 1]))
        assert sel.ids == (2, 3, 6, 7, 10, 15, 25, 30, 31, 37)

    def test_too_few_alive(self):
        uavs = self._fleet(n=9, subregions=9)
        with pytest.raises(CohortInfeasible):
            random_select(uavs, 10, np.random.SeedSequence(0))


class TestOracleSelect:
    def test_instance_guard(self):
        uavs = [make_uav(uid=i) for i in range(1, 22)]
        with pytest.raises(InstanceTooLarge):
            oracle_select(uavs, 1, 1, 0.5, {}, {})

    def test_single_feasible_cohort(self):
        uavs = [make_uav(uid=1, subregion=1), make_uav(uid=2, subregion=2)]
        diversity = {1: diversity_of(0.5), 2: diversity_of(0.5)}
        costs = {1: cost_of(), 2: cost_of()}
        sel = oracle_select(uavs, 2, 1, 0.5, diversity, costs)
        assert sel.ids == (1, 2)

    def test_no_feasible_cohort(self):
        uavs = [make_uav(uid=1, subregion=1, battery=0.0),
                make_uav(uid=2, subregion=2)]
        diversity = {1: diversity_of(0.5), 2: diversity_of(0.5)}
        costs = {1: cost_of(1.0), 2: cost_of()}
        with pytest.raises(CohortInfeasible):
            oracle_select(uavs, 2, 1, 0.5, diversity, costs)

    def test_matches_greedy_on_random_instances(self, rng):
        # the per-sub-region quota makes the objective separable, so the
        # greedy per-cell argmax must equal the exhaustive optimum
        for case in range(50):
            n_sub = int(rng.integers(2, 6))
            n = int(rng.integers(n_sub * 2, 21))
            uavs, diversity, costs = [], {}, {}
            for uid in range(1, n + 1):
                sr = (uid - 1) % n_sub + 1
                u = make_uav(uid=uid, subregion=sr,
                             battery=float(rng.uniform(1.0, 100.0)),
                             battery_max=100.0)
                uavs.append(u)
                diversity[uid] = diversity_of(float(rng.uniform(0.0, 1.0)))
                costs[uid] = cost_of(float(rng.uniform(0.0, 2.0)),
                                     float(rng.uniform(0.0, 0.1)))
            greedy = deeps_select(uavs, 1, 0.5, diversity, costs)
            exact = oracle_select(uavs, n_sub, 1, 0.5, diversity, costs)
            assert sorted(greedy.ids) == sorted(exact.ids), \
                f"case {case}: {greedy.ids} != {exact.ids}"
