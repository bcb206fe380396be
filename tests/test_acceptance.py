"""Acceptance gate: eight criteria, one PASS/FAIL line each.

Every test prints its verdict line to the real terminal (outside pytest's
capture) so a full `pytest -v` run shows the acceptance summary inline.
Criterion 7 drives the calibrated end-to-end experiment and dominates the
runtime of the suite (a few minutes); everything else is seconds.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from oracles import oracle_select
from uavfl.channel import (ChannelParams, LinkGeometry, capacity, channel_gain,
                           link_geometry, path_loss_exponent)
from uavfl.config import config_from_dict, load_config
from uavfl.cost import (CostParams, RoundCost, local_training_time, training_energy,
                        transmit_energy, tx_time)
from uavfl.datagen import generate_uav_dataset, subregion_scenes
from uavfl.harness import build_scenario, compare_strategies, run_experiment
from uavfl.learning import ModelSpec, aggregate, loss_and_grad
from uavfl.selection import deeps_score, deeps_select
from uavfl.similarity import DiversityScore, SsimParams, ssim_pair
from uavfl.types import Dataset, Samples, UavState

HERE = os.path.dirname(__file__)
CALIBRATED_CONFIG = os.path.join(HERE, "..", "configs", "scenario1_calibrated.json")


def verdict(capsys, ok: bool, message: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {message}")
    assert ok, message


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def make_uav(**overrides) -> UavState:
    samples = Samples(np.zeros((1, 4, 4), dtype=np.uint8), [0])
    defaults = dict(id=1, subregion_id=1, rate_up_bps=1e6, rate_down_bps=1e6,
                    battery_j=5000.0, battery_max_j=10000.0, dataset=Dataset(samples))
    defaults.update(overrides)
    return UavState(**defaults)


def test_criterion_1_formula_exactness(capsys):
    t0 = time.time()
    checks = []

    # channel: geometry, path-loss exponent, gain, capacity
    g = link_geometry(100, 0, 100)
    checks.append(rel_err(g.distance_m, 100.0 * math.sqrt(2)))
    checks.append(rel_err(g.elevation_deg, 45.0))
    plc = ChannelParams(a1=2.0, a2=2.0, a3=0.1, a4=10.0)
    geo10 = LinkGeometry(distance_m=1.0, elevation_deg=10.0)
    checks.append(rel_err(path_loss_exponent(geo10, plc), 2.0 / 11.0 + 2.0))
    checks.append(rel_err(path_loss_exponent(
        LinkGeometry(1.0, 30.0), ChannelParams(a1=1.0, a2=2.0, a3=0.0, a4=1.0)), 2.5))
    free_space = ChannelParams(beta0=1e-4, noise_psd_w=1e-6, bandwidth_hz=1e6,
                               bs_tx_power_w=1.0, a1=1e-300, a2=2.0, a3=0.05, a4=7.37)
    checks.append(rel_err(channel_gain(LinkGeometry(100.0, 45.0), free_space), 1e-4))
    unit_snr = ChannelParams(beta0=1.0, noise_psd_w=1e-6, bandwidth_hz=1e6,
                             bs_tx_power_w=1.0, a1=10.39, a2=2.09, a3=0.05, a4=7.37)
    checks.append(rel_err(capacity(1.0, 1.0, unit_snr), 1e6))

    # latency
    params = CostParams(cpu_hz=1e7, cycles_per_sample=7e4, chip_coeff=1e-22,
                        tx_power_w=0.28, epochs_per_round=1, param_size_bits=32)
    params5 = CostParams(cpu_hz=1e7, cycles_per_sample=7e4, epochs_per_round=5)
    checks.append(rel_err(local_training_time(params5, 100), 3.5))
    checks.append(rel_err(tx_time(params, 1000, 1e6), 0.032))
    checks.append(rel_err(tx_time(params, 1000, 2e6), 0.016))

    # energy
    checks.append(rel_err(training_energy(params, 1.0), 0.1))
    checks.append(rel_err(transmit_energy(params, 0.032), 0.00896))

    # selection score
    cost = RoundCost(train_time_s=3.5, uplink_time_s=0.032, downlink_time_s=0.032,
                     train_energy_j=0.35, tx_energy_j=0.009)
    score = deeps_score(make_uav(), DiversityScore(0.2, 1), cost, 0.5)
    checks.append(rel_err(score, 0.5 * 0.8 + 0.5 * (5000.0 - 0.359) / 10000.0))

    elapsed = time.time() - t0
    worst = max(checks)
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(capsys, ok,
            f"criterion 1: formula exactness, {len(checks)} hand-evaluated checks, "
            f"worst rel err {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_2_ssim_correctness(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2)

    identity_ok = all(
        ssim_pair(img, img) == 1.0
        for img in (rng.integers(0, 256, (32, 32)).astype(np.uint8) for _ in range(50)))

    sym_ok, bound_ok = True, True
    for _ in range(1000):
        a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        b = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        s = ssim_pair(a, b)
        sym_ok &= (s == ssim_pair(b, a))
        bound_ok &= (abs(s) <= 1.0 + 1e-12)

    extreme = ssim_pair(np.zeros((8, 8), dtype=np.uint8),
                        np.full((8, 8), 255, dtype=np.uint8))
    extreme_err = abs(extreme - 9.9990e-5)

    elapsed = time.time() - t0
    ok = identity_ok and sym_ok and bound_ok and extreme_err <= 1e-9 and elapsed < 10.0
    verdict(capsys, ok,
            f"criterion 2: SSIM identity/symmetry/bounds on 50+1000 cases, "
            f"extreme pair err {extreme_err:.2e} (tol 1e-9), {elapsed:.2f}s (< 10s)")


def test_criterion_3_gradient_check(capsys):
    t0 = time.time()
    rng = np.random.default_rng(3)
    spec, d = ModelSpec(hidden_dim=3), 9
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        params = rng.normal(0, 0.5, spec.param_count(d))
        X = rng.uniform(0, 1, size=(3, d))
        y = rng.integers(0, 2, size=3).astype(np.float64)
        _, grad = loss_and_grad(params, X, y, spec)
        num = np.empty_like(grad)
        for i in range(spec.param_count(d)):
            hi, lo = params.copy(), params.copy()
            hi[i] += h
            lo[i] -= h
            num[i] = (loss_and_grad(hi, X, y, spec)[0]
                      - loss_and_grad(lo, X, y, spec)[0]) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(grad - num)
                                 / max(np.linalg.norm(num), 1e-12)))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    verdict(capsys, ok,
            f"criterion 3: analytic vs central-difference gradients on 100 cases, "
            f"worst rel err {worst:.2e} (tol 1e-4), {elapsed:.2f}s (< 30s)")


def test_criterion_4_selection_oracle_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(50):
        n_sub = int(rng.integers(2, 6))
        n = int(rng.integers(n_sub * 2, 21))
        uavs, diversity, costs = [], {}, {}
        for uid in range(1, n + 1):
            uavs.append(make_uav(id=uid, subregion_id=(uid - 1) % n_sub + 1,
                                 battery_j=float(rng.uniform(1.0, 100.0)),
                                 battery_max_j=100.0))
            diversity[uid] = DiversityScore(float(rng.uniform(0, 1)), 1)
            costs[uid] = RoundCost(0.0, 0.0, 0.0,
                                   float(rng.uniform(0, 2)),
                                   float(rng.uniform(0, 0.1)))
        greedy = deeps_select(uavs, 1, 0.5, diversity, costs)
        exact = oracle_select(uavs, n_sub, 1, 0.5, diversity, costs)
        mismatches += sorted(greedy.ids) != sorted(exact.ids)
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0
    verdict(capsys, ok,
            f"criterion 4: deeps_select == oracle_select on 50 random instances "
            f"(N <= 20, 2-5 sub-regions), {mismatches} mismatches, "
            f"{elapsed:.2f}s (< 60s)")


def test_criterion_5_fedavg_exactness(capsys):
    t0 = time.time()
    rng = np.random.default_rng(5)

    exact_ok = (aggregate([(1, np.array([1.0]), 1), (2, np.array([3.0]), 3)])[0]
                == pytest.approx(2.5, rel=1e-15))
    a, b = rng.normal(size=6), rng.normal(size=6)
    mean_ok = np.allclose(aggregate([(1, a, 4), (2, b, 4)]), (a + b) / 2, rtol=1e-14)

    perm_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 8))
        updates = [(i, rng.normal(size=12), int(rng.integers(1, 50)))
                   for i in range(k)]
        ref = aggregate(updates)
        shuffled = [updates[i] for i in rng.permutation(k)]
        perm_ok &= np.array_equal(aggregate(shuffled), ref)

    elapsed = time.time() - t0
    ok = exact_ok and mean_ok and perm_ok and elapsed < 5.0
    verdict(capsys, ok,
            f"criterion 5: FedAvg weighted-mean exactness and bitwise permutation "
            f"invariance over 100 update sets, {elapsed:.2f}s (< 5s)")


def test_criterion_6_energy_closure(capsys):
    config = config_from_dict({"scenario": "scenario1", "master_seed": 7})
    summary = run_experiment(config)
    drawdown = summary.initial_battery_total_j - summary.final_battery_total_j
    spent = sum(r.cohort_energy_j for r in summary.records)
    rel = abs(drawdown - spent) / max(spent, 1e-300)
    ok = len(summary.records) == 200 and spent > 0.0 and rel <= 1e-9
    verdict(capsys, ok,
            f"criterion 6: energy closure over a full scenario1 run "
            f"({len(summary.records)} rounds, {spent:.1f} J spent), "
            f"rel err {rel:.2e} (tol 1e-9)")


@pytest.mark.slow
def test_criterion_7_qualitative_ordering(capsys):
    t0 = time.time()
    base = load_config(CALIBRATED_CONFIG)
    assert base.generator.image_side == 32
    assert base.n_rounds_max <= 200

    # generator calibration anchor: consecutive same-class samples of one UAV
    # sit near SSIM 0.85; these are the training samples build_scenario gives
    # UAV 1 (sub-region 1)
    scene = next(subregion_scenes(base.generator, [1], base.master_seed))
    samples = generate_uav_dataset(base.generator, scene, 1, base.master_seed).train
    consec = [ssim_pair(samples.images[i], samples.images[i + 1])
              for i in range(400)
              if samples.labels[i] == samples.labels[i + 1]]
    anchor = float(np.mean(consec))

    finals = {"d1": [], "d5": [], "r": []}
    lambdas = {"d1": [], "d5": [], "r": []}
    energy_rounds = {"d1": [], "d5": [], "r": []}
    for seed in (11, 12, 13, 14, 15):
        config = load_config(CALIBRATED_CONFIG)
        config.master_seed = seed
        shared = build_scenario(config)
        for key, strategy, th in (("d1", "deeps", 0.1), ("d5", "deeps", 0.5),
                                  ("r", "random", None)):
            s = run_experiment(config, scenario=shared, strategy=strategy,
                               ssim_threshold=th)
            finals[key].append(s.final_accuracy)
            lambdas[key].append(s.avg_round_time_s)
            energy_rounds[key].append([r.cohort_energy_j for r in s.records])

    med = {k: statistics.median(v) for k, v in finals.items()}
    lam = {k: statistics.median(v) for k, v in lambdas.items()}
    gap_d1_d5 = med["d1"] - med["d5"]
    gap_d5_r = med["d5"] - med["r"]
    acc_ok = gap_d1_d5 >= 0.02 and gap_d5_r >= 0.02
    lam_ok = lam["d1"] < lam["r"] and lam["d5"] < lam["r"]

    # per-round cohort energy: deeps below random for every round both ran
    # (deeps dedups its first cohort before round 1 spends energy)
    horizon = min(len(e) for e in energy_rounds["r"])
    energy_ok = True
    for k in range(horizon):
        e_r = statistics.median(e[k] for e in energy_rounds["r"])
        for key in ("d1", "d5"):
            energy_ok &= statistics.median(e[k] for e in energy_rounds[key]) < e_r

    elapsed = time.time() - t0
    ok = (0.80 <= anchor <= 0.90 and acc_ok and lam_ok and energy_ok
          and elapsed < 900.0)
    verdict(capsys, ok,
            f"criterion 7: qualitative ordering over 5 seeds -- median final acc "
            f"deeps(0.1)={med['d1']:.3f} > deeps(0.5)={med['d5']:.3f} > "
            f"random={med['r']:.3f} (gaps {gap_d1_d5 * 100:.1f}/{gap_d5_r * 100:.1f} pts, "
            f"need >= 2), median lambda_t {lam['d1']:.1f}/{lam['d5']:.1f} < "
            f"{lam['r']:.1f}s, per-round energy deeps < random for all "
            f"{horizon} common rounds, same-class SSIM anchor {anchor:.3f} "
            f"(~0.85), {elapsed:.0f}s (< 900s)")


def test_criterion_8_determinism(capsys, tmp_path):
    t0 = time.time()
    strategies = [("deeps", 0.1), ("deeps", 0.5), ("random", None)]
    tiny = {
        "scenario": "custom", "n_uavs": 4, "cohort_size": 2,
        "subregion_count": 2, "per_subregion_quota": 1, "n_rounds_max": 3,
        "master_seed": 5, "ssim": {"max_pairs": 30},
        "generator": {"image_side": 8, "samples_min": 40, "samples_max": 60,
                      "offset_span": 10, "test_fraction": 0.2},
    }
    outputs = []
    for i, workers in enumerate((1, 4)):
        config = config_from_dict({**tiny, "workers": workers})
        out = str(tmp_path / f"run{i}")
        compare_strategies(config, strategies, out_dir=out)
        blob = {}
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                blob[name] = open(os.path.join(out, name), "rb").read()
        outputs.append(blob)

    same_files = outputs[0].keys() == outputs[1].keys()
    identical = same_files and all(outputs[0][n] == outputs[1][n]
                                   for n in outputs[0])
    elapsed = time.time() - t0
    ok = identical and len(outputs[0]) == 4
    verdict(capsys, ok,
            f"criterion 8: byte-identical CSV artifacts across repeated compare "
            f"runs with workers=1 vs workers=4 ({len(outputs[0])} files), "
            f"{elapsed:.1f}s")
