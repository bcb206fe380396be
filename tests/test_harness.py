import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import const_image, make_samples, no_samples
from uavfl import harness
from uavfl.config import config_from_dict
from uavfl.datagen import GenSpec
from uavfl.cost import estimate_round_cost
from uavfl.errors import ConfigError, InvariantViolation, UavFlError
from uavfl.harness import (CSV_HEADER, RunSummary, _find_convergence, build_scenario,
                           compare_strategies, emit_csv, emit_metadata,
                           emit_summary_csv, run_experiment)
from uavfl.learning import blas_info, samples_to_matrix
from uavfl.types import RoundRecord, Samples

TINY = {
    "n_uavs": 4,
    "cohort_size": 2,
    "subregion_count": 2,
    "per_subregion_quota": 1,
    "n_rounds_max": 3,
    "master_seed": 5,
    "ssim": {"max_pairs": 30},
    "generator": {"image_side": 8, "samples_min": 40, "samples_max": 60,
                  "offset_span": 10, "test_fraction": 0.2},
}


def tiny_config(**overrides):
    data = {**TINY, **overrides}
    return config_from_dict(data)


def exact(value):
    """value with every float written as float.hex, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return {f.name: exact(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def scenario_bytes(sc):
    """Every byte and float a scenario holds, in UAV-id order."""
    out = [a.tobytes() for a in samples_to_matrix(sc.test)]
    for u in sc.uavs:
        out += [u.dataset.samples.images.tobytes(), u.dataset.samples.labels.tobytes(),
                exact(dataclasses.replace(u, dataset=None))]
    return out


# three sub-regions: 2 workers split them into uneven strides, and 5 workers
# outnumber them
THREE_SUBREGIONS = {"n_uavs": 7, "cohort_size": 3, "subregion_count": 3}


def table_rows(capsys) -> list[list[str]]:
    """The strategy and rounds columns of each row of the printed table."""
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["strategy", "rounds"]
    return [row.split()[:2] for row in rows]


def record(k=1, acc=0.5, energy=1.0):
    return RoundRecord(round_k=k, selected_ids=(1, 2), global_accuracy=acc,
                       global_loss=0.7, round_duration_s=2.5,
                       cohort_energy_j=energy, dropouts=0, alive_uavs=4)


class TestScenarioBuild:
    def test_generator_section_is_the_genspec(self):
        spec = tiny_config().generator
        assert isinstance(spec, GenSpec)
        assert spec.image_side == 8
        assert spec.samples_min == 40

    def test_build(self):
        sc = build_scenario(tiny_config())
        assert len(sc.uavs) == 4
        assert sc.test.images.shape[1:] == (8, 8) and len(sc.test) > 0
        assert sc.test.images.dtype == np.uint8  # scaled at each evaluation
        assert [u.id for u in sc.uavs] == [1, 2, 3, 4]
        assert all(u.rate_up_bps > 0 and u.rate_down_bps > 0 for u in sc.uavs)

    @pytest.mark.parametrize("workers,strides", [
        (1, [(1, 2, 3)]), (2, [(1, 3), (2,)]), (5, [(1,), (2,), (3,)])])
    def test_pooled_build_is_byte_identical(self, workers, strides, monkeypatch):
        want = scenario_bytes(build_scenario(tiny_config(**THREE_SUBREGIONS)))
        calls = []

        def spy(spec, subregion_ids, rng_seed):
            calls.append(tuple(subregion_ids))
            return real(spec, subregion_ids, rng_seed)

        real = harness.subregion_scenes
        monkeypatch.setattr(harness, "subregion_scenes", spy)
        sc = build_scenario(tiny_config(**THREE_SUBREGIONS, workers=workers))
        assert scenario_bytes(sc) == want
        # one walk buffer per call, so at most min(workers, 3) exist at once
        assert sorted(calls) == strides

    def test_empty_test_pool_fails_at_build(self):
        # 60 samples at 1% would give one test sample, but seed 8 draws 47,
        # 41, 42 and 49, which all round to none
        config = tiny_config(master_seed=8, generator={**TINY["generator"],
                                                       "test_fraction": 0.01})
        for run in (build_scenario, run_experiment):
            with pytest.raises(ConfigError, match="generator.test_fraction 0.01"):
                run(config)

    def test_fresh_copy_isolates_mutation(self):
        sc = build_scenario(tiny_config())
        sizes = [len(u.dataset.samples) for u in sc.uavs]
        s1 = run_experiment(tiny_config(), scenario=sc)
        s2 = run_experiment(tiny_config(), scenario=sc)
        assert [r.global_accuracy for r in s1.records] == \
               [r.global_accuracy for r in s2.records]
        assert s1.final_battery_total_j == s2.final_battery_total_j
        # the copies share the read-only samples; dedup rebinds only its copy's
        assert s1.dedup_removed_total > 0
        assert [len(u.dataset.samples) for u in sc.uavs] == sizes


class TestRunExperiment:
    def test_deeps_runs_all_rounds(self):
        s = run_experiment(tiny_config())
        assert len(s.records) == 3
        assert s.strategy == "deeps"
        assert all(len(r.selected_ids) == 2 for r in s.records)
        assert all(0.0 <= r.global_accuracy <= 1.0 for r in s.records)

    def test_random_baseline_runs(self):
        s = run_experiment(tiny_config(strategy="random"))
        assert s.strategy == "random"
        assert s.ssim_threshold is None
        assert len(s.records) == 3

    def test_single_uav_single_round(self):
        config = tiny_config(n_uavs=1, cohort_size=1, subregion_count=1,
                             per_subregion_quota=1, n_rounds_max=1)
        s = run_experiment(config)
        assert len(s.records) == 1
        assert s.records[0].selected_ids == (1,)

    def test_deterministic_across_runs(self, tmp_path):
        paths = []
        for i in range(2):
            s = run_experiment(tiny_config())
            p = str(tmp_path / f"r{i}.csv")
            emit_csv(s.records, p)
            paths.append(p)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_worker_count_does_not_change_results(self, monkeypatch):
        """Workers 1, 2 and 3 give the same bits in every field of every record
        and of the summary; round 1 deduplicates three new participants on the
        pool."""
        dedup_threads = []

        def spy(*args, **kwargs):
            dedup_threads.append(threading.get_ident())
            return real(*args, **kwargs)

        real = harness.deduplicate
        monkeypatch.setattr(harness, "deduplicate", spy)
        runs = {}
        for workers in (1, 2, 3):
            dedup_threads.clear()
            s = run_experiment(tiny_config(**THREE_SUBREGIONS, workers=workers))
            runs[workers] = exact(s)
            assert len(s.records[0].selected_ids) == 3 and len(dedup_threads) >= 3
            main = threading.main_thread().ident
            assert (set(dedup_threads) == {main}) == (workers == 1)
        assert runs[1]["dedup_removed_total"] > 0
        assert runs[1] == runs[2] == runs[3]

    def test_one_pool_per_build_and_per_run_sized_by_its_tasks(self, monkeypatch):
        sizes = []

        class Recorder(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        s = run_experiment(tiny_config(**THREE_SUBREGIONS, workers=64))
        assert len(s.records) == 3
        # the run's pool and its build's, none per round; each is capped by its
        # tasks (3 sub-regions, a cohort of 3), not by workers
        assert sizes == [3, 3]

    def test_a_run_on_one_worker_never_loads_the_pool(self):
        code = ("import sys\n"
                "from uavfl.config import config_from_dict\n"
                "from uavfl.harness import run_experiment\n"
                f"run_experiment(config_from_dict({dict(TINY, workers=1)!r}))\n"
                "print('concurrent.futures' in sys.modules)\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_energy_closure(self):
        s = run_experiment(tiny_config())
        drawdown = s.initial_battery_total_j - s.final_battery_total_j
        spent = sum(r.cohort_energy_j for r in s.records)
        assert spent > 0.0
        assert abs(drawdown - spent) <= 1e-9 * spent

    def test_dedup_runs_once_per_selected_uav(self):
        s = run_experiment(tiny_config(ssim_threshold=0.1))
        assert s.dedup_removed_total >= 0
        # reruns with the same config agree on the dedup total
        assert run_experiment(tiny_config(ssim_threshold=0.1)).dedup_removed_total \
            == s.dedup_removed_total

    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    def test_full_cohorts_neither_degrade_nor_abort(self, strategy):
        s = run_experiment(tiny_config(strategy=strategy))
        assert (s.degraded_rounds, s.aborted_infeasible) == (0, False)

    def test_drained_fleet_degrades_deeps_and_aborts_random(self):
        # batteries below a few rounds' cost: the fleet dies within the run
        drained = {"battery": {"min_j": 0.0, "max_j": 0.03}, "n_rounds_max": 6}
        deeps = run_experiment(tiny_config(**drained))
        short = sum(len(r.selected_ids) < TINY["cohort_size"] for r in deeps.records)
        assert deeps.degraded_rounds == short > 0  # quota 1: a short cohort misses a sub-region
        assert not deeps.aborted_infeasible
        random = run_experiment(tiny_config(**drained, strategy="random"))
        assert (len(random.records), random.aborted_infeasible) == (2, True)
        assert random.degraded_rounds == 0
        # deeps flies on with an empty cohort once its last UAV is retired
        assert deeps.records[-1].selected_ids == ()
        assert (deeps.rounds_flown, random.rounds_flown) == (len(deeps.records) - 1, 2)
        for s in (deeps, random):
            drawdown = s.initial_battery_total_j - s.final_battery_total_j
            assert s.cohort_energy_total_j > 0.0
            assert abs(s.cohort_energy_total_j - drawdown) <= 1e-9 * drawdown

    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_round_updates_are_freed_before_the_next_round_trains(self, monkeypatch,
                                                                  workers, strategy):
        updates: dict[int, list] = {}  # round -> weak refs to its trained vectors
        alive_at_next_round: dict[int, int] = {}

        def spy(*args):
            k = args[4].entropy[2]  # the training seed is [seed, tag, round, uav]
            with lock:  # the round's first call, under workers 2 on a pool thread
                if k not in updates:
                    updates[k] = []
                    alive_at_next_round[k - 1] = sum(
                        ref() is not None for ref in updates.get(k - 1, []))
            out = real(*args)
            updates[k].append(weakref.ref(out))
            return out

        lock = threading.Lock()
        real = harness.local_train
        monkeypatch.setattr(harness, "local_train", spy)
        run_experiment(tiny_config(strategy=strategy, workers=workers, n_rounds_max=3))
        assert sorted(updates) == [1, 2, 3] and all(len(refs) == 2 for refs in updates.values())
        assert alive_at_next_round == {0: 0, 1: 0, 2: 0}

    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    def test_a_round_holds_one_earlier_update_while_the_next_trains(self, monkeypatch,
                                                                    strategy):
        updates: dict[int, list] = {}  # round -> weak refs to its trained vectors
        alive_at_call: dict[int, list[int]] = {}  # round -> its earlier vectors alive per call

        def spy(*args):
            k = args[4].entropy[2]  # the training seed is [seed, tag, round, uav]
            refs = updates.setdefault(k, [])
            alive_at_call.setdefault(k, []).append(sum(ref() is not None for ref in refs))
            out = real(*args)
            refs.append(weakref.ref(out))
            return out

        real = harness.local_train
        monkeypatch.setattr(harness, "local_train", spy)
        run_experiment(tiny_config(**THREE_SUBREGIONS, strategy=strategy, workers=1))
        # the round's first vector is aggregate's anchor; each later one is
        # freed once it has been added
        assert alive_at_call == {k: [0, 1, 1] for k in (1, 2, 3)}

    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    def test_a_pooled_round_drops_each_update_once_added(self, monkeypatch, strategy):
        alive_at_take: list[list[int]] = []  # per round: earlier vectors alive per take

        def merge(updates):
            made, alive = [], []

            def spy(take):
                def call():
                    alive.append(sum(ref() is not None for ref in made))
                    out = take()
                    made.append(weakref.ref(out))
                    return out
                return call

            alive_at_take.append(alive)
            return real([(uid, spy(take), size) for uid, take, size in updates])

        real = harness.aggregate
        monkeypatch.setattr(harness, "aggregate", merge)
        run_experiment(tiny_config(**THREE_SUBREGIONS, strategy=strategy, workers=2))
        # the pool trains ahead, but once taken and added a vector is dropped,
        # though the caller's list still holds its callable
        assert alive_at_take == [[0, 1, 1]] * 3

    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_previous_global_model_is_freed_before_evaluation(self, monkeypatch,
                                                              workers, strategy):
        models: dict[int, weakref.ref] = {}  # round -> the global model it trained from
        alive_at_evaluation = []

        def train(*args):
            k = args[4].entropy[2]  # the training seed is [seed, tag, round, uav]
            models.setdefault(k, weakref.ref(args[0]))
            return real_train(*args)

        def evaluate(*args):
            alive_at_evaluation.append(models[len(alive_at_evaluation) + 1]() is not None)
            return real_evaluate(*args)

        real_train, real_evaluate = harness.local_train, harness.evaluate_matrix
        monkeypatch.setattr(harness, "local_train", train)
        monkeypatch.setattr(harness, "evaluate_matrix", evaluate)
        run_experiment(tiny_config(**THREE_SUBREGIONS, strategy=strategy, workers=workers))
        assert sorted(models) == [1, 2, 3]
        assert alive_at_evaluation == [False, False, False]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_training_error_propagates_and_leaves_no_thread(self, monkeypatch, workers):
        calls = []

        def train(*args):
            with lock:
                calls.append(None)
                failing = len(calls) == 2
            if failing:  # raised inside aggregate, at workers 2 through Future.result()
                raise InvariantViolation("training failed")
            return real(*args)

        lock = threading.Lock()
        real = harness.local_train
        monkeypatch.setattr(harness, "local_train", train)
        before = threading.active_count()
        with pytest.raises(InvariantViolation, match="training failed"):
            run_experiment(tiny_config(**THREE_SUBREGIONS, workers=workers))
        assert threading.active_count() == before

    def test_a_pooled_training_error_cancels_the_rest_of_the_round(self, monkeypatch):
        calls = []

        def train(*args):
            with lock:
                calls.append(None)
                failing = len(calls) == 1
            if failing:
                raise InvariantViolation("training failed")
            time.sleep(0.2)
            return real(*args)

        lock = threading.Lock()
        real = harness.local_train
        monkeypatch.setattr(harness, "local_train", train)
        with pytest.raises(InvariantViolation, match="training failed"):
            run_experiment(tiny_config(n_uavs=12, cohort_size=6, per_subregion_quota=3,
                                       workers=2))
        # the failing call and the one beside it, and at most one more: the
        # thread the failure frees can take the next job before the error
        # reaches the caller, who then cancels the other three of the six
        assert len(calls) <= 3

    def test_threshold_override_changes_label(self):
        s = run_experiment(tiny_config(), ssim_threshold=0.1)
        assert s.label == "deeps_th0.1"

    @pytest.mark.parametrize("overrides,message", [
        ({"strategy": "greedy"}, "unknown strategy 'greedy'"),
        ({"ssim_threshold": 1.5}, "ssim_threshold must lie in"),
    ], ids=["strategy", "ssim_threshold"])
    def test_bad_override_fails_like_a_loaded_config(self, overrides, message):
        sc = build_scenario(tiny_config())
        for scenario in (None, sc):
            with pytest.raises(ConfigError, match=message):
                run_experiment(tiny_config(), scenario=scenario, **overrides)


class TestShard:
    """Round k trains shard k of n_rounds_max, the k-th of that many contiguous
    slices of a UAV's samples."""

    def test_shard_sizes_differ_by_at_most_one_and_cover_all(self):
        for n, count in [(10, 3), (7, 7), (200, 200), (13, 5), (3, 8)]:
            samples = make_samples([const_image(i) for i in range(n)])
            shards = [harness._shard(samples, k, count) for k in range(1, count + 1)]
            sizes = [len(part) for part in shards]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            # the first n % count shards hold the extra samples
            assert sizes == sorted(sizes, reverse=True)
            # contiguous, in order, no overlap
            seen = [int(part.images[i, 0, 0]) for part in shards for i in range(len(part))]
            assert seen == list(range(n))

    def test_shard_index_out_of_range(self):
        samples = make_samples([const_image(0)])
        for k in (0, 3):
            with pytest.raises(InvariantViolation, match=rf"^shard index {k} outside \[1, 2\]$"):
                harness._shard(samples, k, 2)
            with pytest.raises(InvariantViolation, match=rf"^shard index {k} outside \[1, 2\]$"):
                harness._shard_bounds(1, k, 2)

    def test_rejects_nonpositive_shard_count(self):
        for count in (0, -1):
            with pytest.raises(InvariantViolation, match="shard count must be positive"):
                harness._shard(no_samples(), 1, count)
            with pytest.raises(InvariantViolation, match="shard count must be positive"):
                harness._shard_bounds(0, 1, count)

    def test_bounds_give_the_shard_length(self):
        # the cost estimates read a shard's length from its bounds alone
        for n in range(301):
            samples = Samples(np.zeros((n, 1, 1), dtype=np.uint8), np.zeros(n))
            for count in range(1, 21):
                for k in range(1, count + 1):
                    start, stop = harness._shard_bounds(n, k, count)
                    assert stop - start == len(harness._shard(samples, k, count))

    def test_shard_is_a_view(self):
        samples = make_samples([const_image(i) for i in range(10)])
        part = harness._shard(samples, 2, 3)
        assert len(part) == 3 and np.shares_memory(part.images, samples.images)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 300))
    def test_shards_concatenate_to_the_samples(self, n, count):
        samples = Samples((np.arange(n) % 256).astype(np.uint8).reshape(n, 1, 1),
                          np.arange(n) % 2)
        shards = [harness._shard(samples, k, count) for k in range(1, count + 1)]
        assert np.array_equal(np.concatenate([part.images for part in shards]), samples.images)
        assert np.array_equal(np.concatenate([part.labels for part in shards]), samples.labels)


class TestRetire:
    """A UAV whose battery cannot fund its round-1 cost never flies."""

    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    def test_round_one_retires_unfunded_uavs(self, strategy):
        # TINY's round-1 costs are 0.011-0.023 J; this range leaves UAVs 1 and 2
        # below theirs, and random's round-1 draw over all four picks UAV 2
        config = tiny_config(strategy=strategy, battery={"min_j": 0.0, "max_j": 0.04})
        sc = build_scenario(config)
        param_count = config.model.param_count(config.generator.image_side ** 2)
        unfunded = {u.id for u in sc.uavs
                    if estimate_round_cost(config.cost, param_count,
                                           len(harness._shard(u.dataset.samples, 1,
                                                              config.n_rounds_max)),
                                           u.rate_up_bps, u.rate_down_bps
                                           ).total_energy_j > u.battery_j}
        assert 0 < len(unfunded) <= len(sc.uavs) - config.cohort_size

        s = run_experiment(config, scenario=sc)
        assert not unfunded & {uid for r in s.records for uid in r.selected_ids}
        assert s.records[0].dropouts >= len(unfunded)
        retired = 0
        for r in s.records:
            retired += r.dropouts
            assert r.alive_uavs == len(sc.uavs) - retired
        drawdown = s.initial_battery_total_j - s.final_battery_total_j
        spent = sum(r.cohort_energy_j for r in s.records)
        assert spent > 0.0
        assert abs(drawdown - spent) <= 1e-9 * spent

    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    def test_selection_sees_only_funded_alive_uavs(self, monkeypatch, strategy):
        """Every candidate handed to a selector can fund its round's cost at the
        charge its earlier rounds left, and was a candidate in every earlier
        round; retire is the only gate, and the selectors do not filter."""
        config = tiny_config(strategy=strategy, battery={"min_j": 0.0, "max_j": 0.03},
                             n_rounds_max=6)
        calls: list[dict[int, int]] = []  # per round: candidate id -> its dataset's length
        seen = {}  # id -> the run's UavState, whose dataset ends deduplicated

        def spy(real):
            def selector(uavs, *args):
                calls.append({u.id: len(u.dataset.samples) for u in uavs})
                seen.update((u.id, u) for u in uavs)
                return real(uavs, *args)
            return selector

        for name in ("deeps_select", "random_select"):
            monkeypatch.setattr(harness, name, spy(getattr(harness, name)))
        sc = build_scenario(config)
        s = run_experiment(config, scenario=sc)
        param_count = config.model.param_count(config.generator.image_side ** 2)
        rates = {u.id: (u.rate_up_bps, u.rate_down_bps) for u in sc.uavs}

        def cost(uid: int, k: int, n: int):
            start, stop = harness._shard_bounds(n, k, config.n_rounds_max)
            return stop - start, estimate_round_cost(config.cost, param_count, stop - start,
                                                     *rates[uid])

        battery = {u.id: u.battery_j for u in sc.uavs}
        retired: set[int] = set()
        for k, candidates in enumerate(calls, 1):
            for uid, n in candidates.items():
                assert uid not in retired, f"round {k}: UAV {uid} was retired"
                assert cost(uid, k, n)[1].total_energy_j <= battery[uid], \
                    f"round {k}: UAV {uid} cannot fund its round"
            retired |= battery.keys() - candidates.keys()
            if k <= len(s.records):  # a random run that aborts records no round k
                for uid in s.records[k - 1].selected_ids:
                    size, spent = cost(uid, k, len(seen[uid].dataset.samples))
                    if size:
                        battery[uid] -= spent.total_energy_j
        assert calls[0].keys() - calls[-1].keys(), "no UAV retired after round 1"
        assert s.final_battery_total_j == sum(battery.values())


class TestConvergence:
    def test_finds_earliest_stable_window(self):
        accs = [0.3, 0.5, 0.70, 0.701, 0.702, 0.7]
        assert _find_convergence(accs, window=3, tol=0.005) == 5

    def test_no_convergence(self):
        assert _find_convergence([0.1, 0.5, 0.9], window=3, tol=0.005) is None


class TestEmission:
    def test_csv_single_record(self, tmp_path):
        path = str(tmp_path / "one.csv")
        emit_csv([record()], path)
        lines = open(path).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("1,0.5,0.7,2.5,1,")

    def test_csv_re_emission_identical(self, tmp_path):
        records = [record(k=i, acc=0.4 + 0.001 * i) for i in range(1, 201)]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_csv(records, p1)
        emit_csv(records, p2)
        b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
        assert b1 == b2
        assert b1.count(b"\n") == 201

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(UavFlError):
            emit_csv([], str(tmp_path / "x.csv"))

    def test_metadata(self, tmp_path):
        config = tiny_config()
        path = str(tmp_path / "meta.json")
        emit_metadata(config, path)
        meta = json.load(open(path))
        assert meta["master_seed"] == 5
        assert meta["config_hash"] == config.config_hash()
        assert meta["config"]["n_uavs"] == 4
        assert meta["blas"] == blas_info()  # kernel, pinned threads, numpy version

    def test_summary_csv_unwritable_dir(self, tmp_path):
        s = RunSummary(strategy="random", ssim_threshold=None, avg_round_time_s=2.5,
                       rounds_to_convergence=1, time_to_convergence_min=0.04,
                       final_accuracy=0.5, converged=False, records=[record()],
                       initial_battery_total_j=10.0, final_battery_total_j=9.0)
        with pytest.raises(UavFlError, match="cannot write"):
            emit_summary_csv([s], str(tmp_path / "missing" / "summary.csv"))

    def test_metadata_unwritable_dir(self, tmp_path):
        with pytest.raises(UavFlError, match="cannot write"):
            emit_metadata(tiny_config(), str(tmp_path / "missing" / "meta.json"))


class TestCompare:
    def test_three_strategies(self, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        summaries = compare_strategies(
            tiny_config(), [("deeps", 0.1), ("deeps", 0.5), ("random", None)],
            out_dir=out)
        assert [s.label for s in summaries] == ["deeps_th0.1", "deeps_th0.5", "random"]
        for name in ("rounds_deeps_th0.1.csv", "rounds_deeps_th0.5.csv",
                     "rounds_random.csv", "summary.csv", "metadata.json"):
            assert os.path.exists(os.path.join(out, name))
        table = capsys.readouterr().out
        assert "deeps(0.1)" in table and "random" in table
        summary_lines = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert len(summary_lines) == 4

    def test_one_strategy(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        summaries = compare_strategies(tiny_config(), [("random", None)], out_dir=str(out))
        assert [s.label for s in summaries] == ["random"]
        assert sorted(os.listdir(out)) == ["metadata.json", "rounds_random.csv", "run_random.json",
                                           "summary.csv"]
        assert table_rows(capsys) == [["random", "3"]]

    @pytest.mark.parametrize("overrides,chi_r,rho_t,converged", [
        # the drained fleet of test_drained_fleet_degrades_deeps_and_aborts_random:
        # random aborts after 2 rounds, so chi_r would be the run's length
        ({"battery": {"min_j": 0.0, "max_j": 0.03}, "n_rounds_max": 6}, "—", "—", "false"),
        # a one-round window converges at round 1
        ({"convergence_window": 1}, "1", None, "true"),
    ], ids=["aborted", "converged"])
    def test_table_ranks_only_converged_runs(self, tmp_path, capsys, overrides, chi_r, rho_t,
                                             converged):
        summary, = compare_strategies(tiny_config(**overrides),
                                      [("random", None)], out_dir=str(tmp_path))
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[-1] == "converged"
        # strategy, rounds, lambda_t, chi_r, rho_t, final acc, converged
        cells = row.split()
        assert len(cells) == 7 and (cells[3], cells[6]) == (chi_r, converged)
        assert cells[4] == (rho_t or f"{summary.time_to_convergence_min:.2f}")
        # summary.csv keeps the run's length as chi_r
        assert open(tmp_path / "summary.csv").read().splitlines()[1].split(",")[3] \
            == str(summary.rounds_to_convergence)

    def test_run_json_holds_what_no_csv_holds(self, tmp_path, capsys):
        drained = {"battery": {"min_j": 0.0, "max_j": 0.03}, "n_rounds_max": 6}
        summaries = compare_strategies(tiny_config(**drained),
                                       [("deeps", 0.5), ("random", None)], out_dir=str(tmp_path))
        deeps, random = (json.loads((tmp_path / f"run_{s.label}.json").read_text())
                         for s in summaries)
        # float == compares bits, so the battery totals round-trip at full precision
        assert [deeps, random] == [{name: getattr(s, name) for name in harness.RUN_FIELDS}
                                   for s in summaries]
        assert deeps["degraded_rounds"] > 0 and deeps["dedup_removed_total"] > 0
        assert (random["aborted_infeasible"], random["converged"]) == (True, False)

    def test_one_strategy_builds_its_own_scenario(self, tmp_path, monkeypatch, capsys):
        # a shared scenario would hold every UAV's pre-dedup samples next to
        # the run's deduplicated copies
        def no_copy(self):
            raise AssertionError("a single run copied a shared scenario")

        monkeypatch.setattr(harness.Scenario, "fresh_copy", no_copy)
        summaries = compare_strategies(tiny_config(), [("deeps", 0.5)], out_dir=str(tmp_path))
        assert summaries[0].dedup_removed_total > 0

    @staticmethod
    def no_build(config):
        raise AssertionError("the scenario was built before every strategy was checked")

    def test_unwritable_metadata_fails_before_any_work(self, tmp_path, monkeypatch):
        # metadata.json depends on the config alone, so it is written first
        monkeypatch.setattr(harness, "build_scenario", self.no_build)
        (tmp_path / "metadata.json").mkdir()
        with pytest.raises(UavFlError, match="cannot write .*metadata.json"):
            compare_strategies(tiny_config(), [("deeps", 0.1), ("random", None)],
                               out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == ["metadata.json"]

    def test_bad_strategy_fails_before_any_work(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "build_scenario", self.no_build)
        out = tmp_path / "cmp"
        with pytest.raises(ConfigError, match=r"ssim_threshold must lie in \(0, 1\), got 2.0"):
            compare_strategies(tiny_config(), [("deeps", 0.1), ("random", None), ("deeps", 2.0)],
                               out_dir=str(out))
        assert not out.exists()

    def test_strategies_sharing_a_label_fail_before_any_work(self, tmp_path, monkeypatch):
        # both thresholds print as 0.1, so both runs would write rounds_deeps_th0.1.csv
        monkeypatch.setattr(harness, "build_scenario", self.no_build)
        out = tmp_path / "cmp"
        with pytest.raises(UavFlError, match=r"share the run label deeps_th0\.1$"):
            compare_strategies(tiny_config(), [("deeps", 0.1), ("deeps", 0.1000001)],
                               out_dir=str(out))
        assert not out.exists()
