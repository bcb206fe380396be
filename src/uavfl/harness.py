"""Experiment orchestration: scenario build, round loop, metrics, CSV output.

Seed discipline: the master seed feeds purpose-tagged numpy SeedSequences so
that every random stream is independent of the others. Harness tags:
1 placement, 2 batteries, 3 training (per round+UAV), 4 random selection
(per round), 5 diversity sampling (per round+UAV), 6 model init. The data
generator uses its own 10x tags internally. Fixing the master seed makes a
whole run bit-reproducible on one BLAS kernel, independent of the BLAS thread
count and of `workers`: `run_experiment` runs OpenBLAS on one thread and gives
the caller's thread count back when it returns. `workers` threads share data
generation, dedup and training; every UAV's work draws only on its own
streams and writes only its own results, which are merged in UAV-id order.
Each such piece of work is a `later(fn, *args)` callable from `_pool`: with
one worker it runs when it is called, with a pool it starts at once and the
call waits for its result. A round's training is handed to `aggregate` as
one such callable per UAV, which it calls in UAV-id order as it folds each
update into the mean. When one raises, the work that has not started is
cancelled, so a failed round does not train the rest of its cohort.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import capacity, channel_gain, link_geometry
from .config import ExperimentConfig
from .cost import RoundCost, charge_round, estimate_round_cost, is_feasible, round_duration
from .datagen import UavData, generate_uav_dataset, subregion_scenes
from .errors import CohortInfeasible, ConfigError, InvariantViolation, UavFlError
from .learning import (aggregate, blas_info, evaluate_matrix, local_train, model_init,
                       one_blas_thread, samples_to_matrix)
from .selection import deeps_select, random_select
from .similarity import dataset_diversity, deduplicate
from .types import Dataset, RoundRecord, Samples, UavState

_TAG_PLACEMENT = 1
_TAG_BATTERY = 2
_TAG_TRAINING = 3
_TAG_SELECTION = 4
_TAG_DIVERSITY = 5
_TAG_MODEL_INIT = 6


@dataclass(frozen=True)
class Scenario:
    """What `build_scenario` generates from a config: the fleet and the pooled
    test set, kept as uint8 `Samples` and scaled at each evaluation. Copied
    per run only because dedup rebinds each UAV's dataset."""

    uavs: list[UavState]
    test: Samples

    def fresh_copy(self) -> "Scenario":
        # samples are read-only, so the copies share them; dedup rebinds its own
        uavs = [dataclasses.replace(u, dataset=dataclasses.replace(u.dataset))
                for u in self.uavs]
        return dataclasses.replace(self, uavs=uavs)


@dataclass(frozen=True)
class RunSummary:
    strategy: str
    ssim_threshold: float | None
    avg_round_time_s: float
    rounds_to_convergence: int
    time_to_convergence_min: float
    final_accuracy: float
    converged: bool
    records: list[RoundRecord]
    initial_battery_total_j: float
    final_battery_total_j: float
    dedup_removed_total: int = 0
    degraded_rounds: int = 0
    aborted_infeasible: bool = False

    @property
    def label(self) -> str:
        return _label(self.strategy, self.ssim_threshold)

    @property
    def rounds_flown(self) -> int:
        """Rounds with at least one participant."""
        return sum(1 for r in self.records if r.selected_ids)

    @property
    def cohort_energy_total_j(self) -> float:
        """The energy every round's cohort spent, summed in round order."""
        return sum(r.cohort_energy_j for r in self.records)


def _label(strategy: str, ssim_threshold: float | None) -> str:
    return f"deeps_th{ssim_threshold:g}" if strategy == "deeps" else strategy


def _with_strategy(config: ExperimentConfig, strategy: str | None,
                   ssim_threshold: float | None) -> ExperimentConfig:
    """`config` with the strategy and threshold that are not None, validated."""
    overrides = {"strategy": strategy, "ssim_threshold": ssim_threshold}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


@contextlib.contextmanager
def _pool(workers: int, tasks: int):
    """A block that runs work on min(workers, tasks) threads. Its value is
    `later(fn, *args)`, which gives a zero-argument callable, to be called
    once, that returns fn(*args). On one thread fn runs when the callable is
    called; on more, fn starts on the pool at once and the call waits for its
    result, and lets go of the future, which would otherwise hold the result
    as long as the callable lives. Leaving the block cancels the work that has
    not started, so an error does not wait for the rest of it. Only a pool
    loads `concurrent.futures` (and `logging` with it)."""
    size = min(workers, tasks)
    if size < 2:
        yield functools.partial
        return
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=size)

    def later(fn, *args):
        pending = [pool.submit(fn, *args)]
        return lambda: pending.pop().result()

    try:
        yield later
    finally:
        pool.shutdown(cancel_futures=True)


def build_scenario(config: ExperimentConfig) -> Scenario:
    """Generate datasets, place UAVs, derive link rates and the test pool.

    With W = min(workers, subregion_count) > 1, W threads each build every
    W-th sub-region's scene and its UAVs' datasets through one walk buffer.
    """
    seed = config.master_seed
    count = config.subregion_count
    channel = config.channel

    geo = config.geometry
    centre = geo.region_m / 2.0  # the BS stands at the region's centre
    rise = geo.uav_altitude_m - geo.bs_altitude_m
    place_rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_PLACEMENT]))
    battery_rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_BATTERY]))

    strides = min(config.workers, count)

    def build_stride(first: int) -> dict[int, UavData]:
        out = {}
        for scene in subregion_scenes(config.generator, range(first, count + 1, strides),
                                      seed):
            # UAV i flies sub-region (i - 1) mod subregion_count + 1
            for uid in range(scene.subregion_id, config.n_uavs + 1, count):
                out[uid] = generate_uav_dataset(config.generator, scene, uid, seed)
        return out

    data: dict[int, UavData] = {}
    with _pool(config.workers, strides) as later:
        for stride in [later(build_stride, first) for first in range(1, strides + 1)]:
            data.update(stride())

    uavs: list[UavState] = []
    for uid in range(1, config.n_uavs + 1):
        x, y = place_rng.uniform(0.0, geo.region_m, size=2)
        battery = float(battery_rng.uniform(config.battery.min_j, config.battery.max_j))
        h = channel_gain(link_geometry(float(x) - centre, float(y) - centre, rise), channel)
        uavs.append(UavState(
            id=uid, subregion_id=(uid - 1) % count + 1,
            rate_up_bps=capacity(h, config.cost.tx_power_w, channel),
            rate_down_bps=capacity(h, channel.bs_tx_power_w, channel),
            battery_j=battery, battery_max_j=config.battery.max_j,
            dataset=Dataset(data[uid].train),
        ))

    tests = [data[uid].test for uid in sorted(data)]
    test_pool = Samples(np.concatenate([t.images for t in tests]),
                        np.concatenate([t.labels for t in tests]))
    if not len(test_pool):
        raise ConfigError(f"generator.test_fraction {config.generator.test_fraction} "
                          "leaves every UAV without a test sample")
    return Scenario(uavs=uavs, test=test_pool)


def _shard_bounds(n: int, k: int, count: int) -> tuple[int, int]:
    """[start, stop) of the k-th (1-based) of `count` contiguous slices of n
    samples; the first `n % count` slices get one extra sample."""
    if count < 1:
        raise InvariantViolation("shard count must be positive")
    if not 1 <= k <= count:
        raise InvariantViolation(f"shard index {k} outside [1, {count}]")
    base, rem = divmod(n, count)
    i = k - 1
    start = i * base + min(i, rem)
    return start, start + base + (1 if i < rem else 0)


def _shard(samples: Samples, k: int, count: int) -> Samples:
    """The k-th (1-based) of `count` contiguous slices of `samples`, as a view."""
    start, stop = _shard_bounds(len(samples), k, count)
    return samples[start:stop]


def _find_convergence(accuracies: list[float], window: int, tol: float) -> int | None:
    """Earliest 1-based round whose trailing window of accuracies has spread < tol."""
    for k in range(window, len(accuracies) + 1):
        tail = accuracies[k - window:k]
        if max(tail) - min(tail) < tol:
            return k
    return None


def run_experiment(config: ExperimentConfig, scenario: Scenario | None = None,
                   strategy: str | None = None,
                   ssim_threshold: float | None = None) -> RunSummary:
    """Run one full FL simulation; fully deterministic for a fixed master seed.

    `strategy` and `ssim_threshold`, when given, replace the config's and are
    validated like a loaded config. `scenario`, when given, must have been
    built from the same config; each run works on a fresh copy of it.
    With workers > 1, a round's training and its new participants' dedups run
    on one pool of min(workers, cohort_size) threads.
    """
    config = _with_strategy(config, strategy, ssim_threshold)
    with one_blas_thread(), _pool(config.workers, config.cohort_size) as later:
        scenario = build_scenario(config) if scenario is None else scenario.fresh_copy()
        by_id = {u.id: u for u in scenario.uavs}
        seed = config.master_seed
        # the model reads each image flattened; local_train and evaluate_matrix
        # reject images that do not fit these parameters
        params = model_init(config.model, config.generator.image_side ** 2,
                            np.random.SeedSequence([seed, _TAG_MODEL_INIT]))
        param_count = len(params)

        def shard(u: UavState, k: int) -> Samples:
            return _shard(u.dataset.samples, k, config.n_rounds_max)

        def round_cost(u: UavState, k: int) -> RoundCost:
            start, stop = _shard_bounds(len(u.dataset.samples), k, config.n_rounds_max)
            return estimate_round_cost(config.cost, param_count, stop - start,
                                       u.rate_up_bps, u.rate_down_bps)

        battery = {u.id: u.battery_j for u in scenario.uavs}  # the run's own charges
        alive = list(scenario.uavs)
        initial_battery = sum(battery.values())

        # each alive UAV's cost of the coming round; dedup re-estimates the UAV it shrank
        costs: dict[int, RoundCost] = {}

        def retire(k: int) -> int:
            """The one feasibility gate: estimate each alive UAV's round-k cost and
            retire the UAVs it does not fit (link rates are static, so the estimate
            is exact); returns how many."""
            costs.clear()
            costs.update((u.id, round_cost(u, k)) for u in alive)
            flying = len(alive)
            alive[:] = [u for u in alive if is_feasible(battery[u.id], costs[u.id])]
            return flying - len(alive)

        records: list[RoundRecord] = []
        deduped: set[int] = set()  # UAVs whose dataset this run has deduplicated
        dedup_removed = 0
        degraded_rounds = 0
        aborted = False

        dropouts = retire(1)  # round 1's record counts the UAVs that never fly
        for k in range(1, config.n_rounds_max + 1):
            if config.strategy == "deeps":
                diversity = {u.id: dataset_diversity(
                                 shard(u, k), config.ssim,
                                 np.random.SeedSequence([seed, _TAG_DIVERSITY, k, u.id]))
                             for u in alive}
                sel = deeps_select(alive, battery, config.subregion_count,
                                   config.per_subregion_quota, config.xi, diversity, costs)
                if sel.degraded_subregions:
                    degraded_rounds += 1
                new = sorted(set(sel.ids) - deduped)
                removed = [later(deduplicate, by_id[uid].dataset, config.ssim_threshold)
                           for uid in new]
                for uid, n_removed in zip(new, removed):
                    dedup_removed += n_removed()
                    costs[uid] = round_cost(by_id[uid], k)
                deduped.update(sel.ids)
            else:
                try:
                    sel = random_select(alive, config.cohort_size,
                                        np.random.SeedSequence([seed, _TAG_SELECTION, k]))
                except CohortInfeasible:
                    if not records:  # retiring left no round-1 cohort: nothing can run
                        raise
                    aborted = True
                    break

            # every alive UAV can fund round k; a participant with an empty shard
            # has nothing to train and spends no time or energy
            jobs = [(uid, part) for uid in sorted(sel.ids) if len(part := shard(by_id[uid], k))]

            def _train(uid: int, part: Samples) -> np.ndarray:
                train_seed = np.random.SeedSequence([seed, _TAG_TRAINING, k, uid])
                return local_train(params, part, config.model,
                                   config.cost.epochs_per_round, train_seed)

            # aggregate takes each update when it adds it, so a round holds the
            # mean, its anchor and one trained vector, not the whole cohort's
            if jobs:
                params = aggregate([(uid, later(_train, uid, part), len(part))
                                    for uid, part in jobs])

            cohort_energy = 0.0
            for uid, _ in jobs:
                battery[uid] = charge_round(battery[uid], costs[uid])
                cohort_energy += costs[uid].total_energy_j
            duration = round_duration([costs[uid] for uid, _ in jobs]) if jobs else 0.0

            acc, loss = evaluate_matrix(params, *samples_to_matrix(scenario.test), config.model)
            if k < config.n_rounds_max:
                dropouts += retire(k + 1)
            records.append(RoundRecord(
                round_k=k, selected_ids=tuple(sorted(sel.ids)),
                global_accuracy=acc, global_loss=loss,
                round_duration_s=duration, cohort_energy_j=cohort_energy,
                dropouts=dropouts, alive_uavs=len(alive),
            ))
            dropouts = 0

        conv = _find_convergence([r.global_accuracy for r in records],
                                 config.convergence_window, config.convergence_tol)
        chi_r = conv if conv is not None else len(records)
        durations = [r.round_duration_s for r in records]
        return RunSummary(
            strategy=config.strategy,
            ssim_threshold=config.ssim_threshold if config.strategy == "deeps" else None,
            avg_round_time_s=float(np.mean(durations)),
            rounds_to_convergence=chi_r,
            time_to_convergence_min=sum(durations[:chi_r]) / 60.0,
            final_accuracy=records[-1].global_accuracy,
            converged=conv is not None,
            records=records,
            initial_battery_total_j=initial_battery,
            final_battery_total_j=sum(battery.values()),
            dedup_removed_total=dedup_removed,
            degraded_rounds=degraded_rounds,
            aborted_infeasible=aborted,
        )


# --- emission -----------------------------------------------------------------

CSV_HEADER = "round,accuracy,loss,round_time_s,cohort_energy_j,alive_uavs,dropouts,selected_ids"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def make_out_dir(path: str) -> None:
    """Create an output directory (and its parents) if it is missing; an
    OSError becomes a UavFlError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UavFlError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write an artifact with LF line endings; an OSError becomes a UavFlError."""
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UavFlError(f"cannot write {path}: {exc}") from exc


def emit_csv(records: list[RoundRecord], path: str) -> None:
    """Per-round CSV, LF line endings, floats at 6 significant digits."""
    if not records:
        raise UavFlError("no records to emit")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.round_k), _fmt(r.global_accuracy), _fmt(r.global_loss),
            _fmt(r.round_duration_s), _fmt(r.cohort_energy_j),
            str(r.alive_uavs), str(r.dropouts),
            ";".join(str(i) for i in r.selected_ids),
        ]))
    write_text(path, "\n".join(lines) + "\n")


SUMMARY_HEADER = "strategy,ssim_th,avg_round_time_s,rounds_to_convergence,time_to_convergence_min,final_accuracy,converged"


def emit_summary_csv(summaries: list[RunSummary], path: str) -> None:
    lines = [SUMMARY_HEADER]
    for s in summaries:
        lines.append(",".join([
            s.strategy,
            "" if s.ssim_threshold is None else _fmt(s.ssim_threshold),
            _fmt(s.avg_round_time_s), str(s.rounds_to_convergence),
            _fmt(s.time_to_convergence_min), _fmt(s.final_accuracy),
            str(s.converged).lower(),
        ]))
    write_text(path, "\n".join(lines) + "\n")


RUN_FIELDS = ("converged", "dedup_removed_total", "degraded_rounds", "aborted_infeasible",
              "initial_battery_total_j", "final_battery_total_j", "rounds_flown",
              "cohort_energy_total_j")


def emit_run_json(summary: RunSummary, path: str) -> None:
    """The run's values that no CSV holds, floats at full precision."""
    values = {name: getattr(summary, name) for name in RUN_FIELDS}
    write_text(path, json.dumps(values, indent=2, sort_keys=True) + "\n")


def emit_metadata(config: ExperimentConfig, path: str) -> None:
    meta = {
        "master_seed": config.master_seed,
        "config_hash": config.config_hash(),
        "package_version": __version__,
        "blas": blas_info(),
        "config": config.to_dict(),
    }
    write_text(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def compare_strategies(config: ExperimentConfig,
                       strategies: list[tuple[str, float | None]],
                       out_dir: str) -> list[RunSummary]:
    """Check one or more strategies, then run each on identical datasets/seeds;
    emit CSVs, run JSONs, summary.csv and metadata.json, and print one table
    row per run.
    Only more than one run shares a scenario: a copy would hold a single run's
    pre-dedup samples next to its deduplicated ones."""
    configs = [_with_strategy(config, name, th) for name, th in strategies]
    labels = [_label(c.strategy, c.ssim_threshold) for c in configs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise UavFlError(f"compare: two strategies share the run label {label}")
    make_out_dir(out_dir)
    emit_metadata(config, os.path.join(out_dir, "metadata.json"))
    scenario = build_scenario(config) if len(configs) > 1 else None
    summaries = [run_experiment(c, scenario=scenario) for c in configs]
    for s in summaries:
        emit_csv(s.records, os.path.join(out_dir, f"rounds_{s.label}.csv"))
        emit_run_json(s, os.path.join(out_dir, f"run_{s.label}.json"))
    emit_summary_csv(summaries, os.path.join(out_dir, "summary.csv"))

    print(f"{'strategy':<14}{'rounds':>8}{'lambda_t (s)':>14}{'chi_r':>8}{'rho_t (min)':>14}"
          f"{'final acc':>12}{'converged':>11}")
    for s in summaries:
        name = s.strategy if s.ssim_threshold is None else f"deeps({s.ssim_threshold:g})"
        # a run that never converged has no chi_r or rho_t to rank by
        chi_r, rho_t = ((s.rounds_to_convergence, f"{s.time_to_convergence_min:.2f}")
                        if s.converged else ("—", "—"))
        print(f"{name:<14}{len(s.records):>8}{s.avg_round_time_s:>14.2f}{chi_r:>8}{rho_t:>14}"
              f"{s.final_accuracy:>12.4f}{str(s.converged).lower():>11}")
    return summaries
