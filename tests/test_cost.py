import pytest

from uavfl.cost import (CostParams, RoundCost, charge_round, estimate_round_cost,
                        local_training_time, round_duration, training_energy,
                        transmit_energy, tx_time)
from uavfl.errors import InvariantViolation

REL = 1e-12


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def cost_of(train=0.0, up=0.0, down=0.0, e_train=0.0, e_tx=0.0) -> RoundCost:
    return RoundCost(train_time_s=train, uplink_time_s=up, downlink_time_s=down,
                     train_energy_j=e_train, tx_energy_j=e_tx)


class TestTrainingTime:
    def test_hand_evaluated(self):
        params = CostParams(cpu_hz=1e7, cycles_per_sample=7e4, epochs_per_round=5)
        assert rel_err(local_training_time(params, 100), 3.5) <= REL

    def test_empty_shard(self):
        params = CostParams(cpu_hz=1e7, cycles_per_sample=7e4)
        assert local_training_time(params, 0) == 0.0

    def test_doubling_cpu_halves_time(self):
        t1 = local_training_time(CostParams(cpu_hz=1e7, cycles_per_sample=7e4,
                                            epochs_per_round=3), 50)
        t2 = local_training_time(CostParams(cpu_hz=2e7, cycles_per_sample=7e4,
                                            epochs_per_round=3), 50)
        assert rel_err(t1, 2.0 * t2) <= REL


class TestTransmissionTime:
    def test_uplink_hand_evaluated(self):
        assert rel_err(tx_time(CostParams(param_size_bits=32), 1000, 1e6), 0.032) <= REL

    def test_downlink_hand_evaluated(self):
        assert rel_err(tx_time(CostParams(param_size_bits=32), 1000, 2e6), 0.016) <= REL

    def test_nothing_to_send(self):
        assert tx_time(CostParams(), 0, 1e6) == 0.0

    def test_rate_limit(self):
        assert tx_time(CostParams(param_size_bits=32), 1000, 1e15) < 1e-7

    def test_symmetry(self):
        # one parameter vector each way: equal rates give equal up/down times
        c = estimate_round_cost(CostParams(param_size_bits=32), 1000, 10,
                                rate_up_bps=5e5, rate_down_bps=5e5)
        assert c.uplink_time_s == c.downlink_time_s

    def test_zero_rate(self):
        with pytest.raises(InvariantViolation, match="link rate must be > 0"):
            tx_time(CostParams(), 1000, 0.0)

    def test_zero_rate_is_rejected_with_nothing_to_send(self):
        with pytest.raises(InvariantViolation, match="link rate must be > 0"):
            tx_time(CostParams(), 0, 0.0)


class TestRoundDuration:
    def test_singleton(self):
        c = cost_of(train=3.5, up=0.032, down=0.032)
        assert rel_err(round_duration([c]), 3.564) <= REL

    def test_slowest_wins(self):
        fast = cost_of(train=2.0)
        slow = cost_of(train=3.5, up=0.032, down=0.032)
        assert rel_err(round_duration([slow, fast]), 3.564) <= REL

    def test_empty_cohort(self):
        with pytest.raises(InvariantViolation,
                           match="round_duration needs at least one participant"):
            round_duration([])


class TestEnergy:
    def test_training_energy_hand_evaluated(self):
        params = CostParams(cpu_hz=1e7, chip_coeff=1e-22)
        assert rel_err(training_energy(params, 1.0), 0.1) <= REL

    def test_zero_time(self):
        assert training_energy(CostParams(cpu_hz=1e7, chip_coeff=1e-22), 0.0) == 0.0

    def test_doubling_cpu_quadruples_energy(self):
        # t scales as 1/cpu_hz, energy as cpu_hz^3 * t, so energy scales as cpu_hz^2
        p1 = CostParams(cpu_hz=1e7, cycles_per_sample=7e4, chip_coeff=1e-22,
                        epochs_per_round=1)
        p2 = CostParams(cpu_hz=2e7, cycles_per_sample=7e4, chip_coeff=1e-22,
                        epochs_per_round=1)
        e1 = training_energy(p1, local_training_time(p1, 100))
        e2 = training_energy(p2, local_training_time(p2, 100))
        assert rel_err(e2, 4.0 * e1) <= REL

    def test_transmit_energy_hand_evaluated(self):
        params = CostParams(tx_power_w=0.28)
        assert rel_err(transmit_energy(params, 0.032), 0.00896) <= REL

    def test_transmit_energy_degenerate(self):
        assert transmit_energy(CostParams(tx_power_w=0.28), 0.0) == 0.0
        with pytest.raises(InvariantViolation, match="tx_power_w must be > 0"):
            CostParams(tx_power_w=0.0)  # a silent radio has no uplink rate


class TestRoundCost:
    def test_rejects_negative_fields(self):
        with pytest.raises(InvariantViolation):
            cost_of(train=-1.0)

    def test_totals(self):
        c = cost_of(train=3.5, up=0.032, down=0.032, e_train=0.35, e_tx=0.009)
        assert rel_err(c.total_time_s, 3.564) <= REL
        assert rel_err(c.total_energy_j, 0.359) <= REL

    def test_estimate_round_cost_composes(self):
        params = CostParams(cpu_hz=1e7, cycles_per_sample=7e4, chip_coeff=1e-22,
                            tx_power_w=0.28, epochs_per_round=5, param_size_bits=32)
        c = estimate_round_cost(params, 1000, 100, rate_up_bps=1e6, rate_down_bps=1e6)
        assert rel_err(c.train_time_s, 3.5) <= REL
        assert rel_err(c.uplink_time_s, 0.032) <= REL
        assert rel_err(c.train_energy_j, 1e-22 * 3.5 * 1e21) <= REL
        assert rel_err(c.tx_energy_j, 0.00896) <= REL


class TestChargeRound:
    def test_hand_evaluated_debit(self):
        left = charge_round(5000.0, cost_of(e_train=0.35, e_tx=0.009))
        assert rel_err(left, 4999.641) <= REL

    def test_exact_exhaustion_is_allowed(self):
        assert charge_round(0.359, cost_of(e_train=0.35, e_tx=0.009)) == pytest.approx(0.0, abs=1e-15)

    def test_insufficient_battery_leaves_state_untouched(self):
        with pytest.raises(InvariantViolation, match="round needs .* J, battery holds 0.1 J"):
            charge_round(0.1, cost_of(e_train=0.35, e_tx=0.009))
