import numpy as np
import pytest

from conftest import make_uav
from oracles import InstanceTooLarge, oracle_select
from uavfl.cost import RoundCost, is_feasible
from uavfl.errors import CohortInfeasible
from uavfl.selection import deeps_score, deeps_select, random_select
from uavfl.similarity import DiversityScore

REL = 1e-12


def cost_of(e_train=0.0, e_tx=0.0) -> RoundCost:
    return RoundCost(train_time_s=0.0, uplink_time_s=0.0, downlink_time_s=0.0,
                     train_energy_j=e_train, tx_energy_j=e_tx)


def diversity_of(ssim: float) -> DiversityScore:
    return DiversityScore(mean_pairwise_ssim=ssim, pairs_evaluated=1)


def select(uavs, subregion_count, diversity, costs):
    """deeps_select with quota 1 and xi 1.0, each UAV at its initial charge."""
    return deeps_select(uavs, {u.id: u.battery_j for u in uavs}, subregion_count, 1, 1.0,
                        diversity, costs)


class TestDeepsScore:
    def test_hand_evaluated(self):
        score = deeps_score(5000.0, 10000.0, diversity_of(0.2), cost_of(0.35, 0.009), 0.5)
        expected = 0.5 * 0.8 + 0.5 * (5000.0 - 0.359) / 10000.0
        assert abs(score - expected) / expected <= REL
        assert score == pytest.approx(0.64998, abs=1e-5)

    def test_pure_diversity(self):
        score = deeps_score(5000.0, 10000.0, diversity_of(0.2), cost_of(1.0, 1.0), 1.0)
        assert score == pytest.approx(0.8, rel=1e-15)

    def test_pure_energy(self):
        score = deeps_score(5000.0, 10000.0, diversity_of(0.2), cost_of(), 0.0)
        assert score == pytest.approx(0.5, rel=1e-15)


class TestFeasibility:
    def test_boundary_is_feasible(self):
        assert is_feasible(0.359, cost_of(0.35, 0.009))

    def test_over_budget_is_not(self):
        assert not is_feasible(0.358, cost_of(0.35, 0.009))


class TestDeepsSelect:
    def test_argmax_per_subregion(self):
        uavs = [make_uav(uid=1), make_uav(uid=2)]
        diversity = {1: diversity_of(0.3), 2: diversity_of(0.4)}  # scores 0.7 / 0.6
        sel = select(uavs, 1, diversity, {1: cost_of(), 2: cost_of()})
        assert sel.ids == (1,)
        assert sel.chosen[0][2] == pytest.approx(0.7, rel=1e-15)

    def test_tie_breaks_to_lower_id(self):
        uavs = [make_uav(uid=7), make_uav(uid=3)]
        diversity = {3: diversity_of(0.5), 7: diversity_of(0.5)}
        sel = select(uavs, 1, diversity, {3: cost_of(), 7: cost_of()})
        assert sel.ids == (3,)

    def test_scores_at_the_given_charge(self):
        # the run's charge, not the UAV's initial one, enters the score
        uavs = [make_uav(uid=1, battery=100.0), make_uav(uid=2, battery=10.0)]
        diversity = {1: diversity_of(0.5), 2: diversity_of(0.5)}
        sel = deeps_select(uavs, {1: 10.0, 2: 90.0}, 1, 1, 0.0, diversity,
                           {1: cost_of(), 2: cost_of()})
        assert sel.ids == (2,)
        assert sel.chosen[0][2] == pytest.approx(0.9, rel=1e-15)

    def test_degraded_subregion_reported(self):
        # sub-region 2 has no candidate: every UAV there has been retired
        ok = make_uav(uid=1, subregion=1)
        sel = select([ok], 2, {1: diversity_of(0.1)}, {1: cost_of(1.0)})
        assert sel.ids == (1,)
        assert sel.degraded_subregions == (2,)

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
            # the UAVs the harness's retire pass would hand deeps_select
            flying = [u for u in uavs if is_feasible(u.battery_j, costs[u.id])]
            greedy = deeps_select(flying, {u.id: u.battery_j for u in flying}, n_sub, 1, 0.5,
                                  diversity, costs)
            exact = oracle_select(uavs, n_sub, 1, 0.5, diversity, costs)
            assert sorted(greedy.ids) == sorted(exact.ids), \
                f"case {case}: {greedy.ids} != {exact.ids}"
