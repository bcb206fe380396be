"""The benchmark's workloads: a base config, overrides, strategies, layer mix.

Every workload starts from the calibrated config in `configs/` and applies
its overrides on top, so all of them use the calibrated data generator. The
sizes are scaled down from the full experiments so that one repetition takes
a few seconds and a run fits several repetitions; each keeps the layer mix
it was chosen for (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

BASE_CONFIG = "configs/scenario1_calibrated.json"
DEFAULT_SEED = 11

# Layers with spans on every workload.
_COMMON = ("datagen.generate_uav_dataset", "learning.local_train",
           "learning.samples_to_matrix", "learning.aggregate",
           "learning.evaluate_matrix", "cost.estimate_round_cost",
           "harness.emit", "harness.run_experiment")
# Layers of the deeps/random comparison; only compare_strategies runs each
# strategy on a fresh copy of one shared scenario.
_COMPARE = ("similarity.deduplicate", "similarity.dataset_diversity",
            "selection.deeps_select", "selection.random_select", "harness.fresh_copy")


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    strategies: tuple[tuple[str, float | None], ...]
    # layers the trace must see at least one call on, else it has gone blind
    active: tuple[str, ...]
    # environment of the workload's processes, on top of the caller's
    env: dict = field(default_factory=dict)


# The workloads that train with workers 1 run BLAS on one thread. On a
# 2-vCPU VM, default threads made compare_calibrated's run_s both slower
# and noisier (2.8-4.3 s over five repetitions, against 2.6-3.1 s with one
# thread): the second thread mostly waits and doubles the exposure to CPU
# steal. train_pool keeps the default on purpose: its oversubscription is
# what it shows.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="compare_calibrated",
        overrides={"n_uavs": 6, "subregion_count": 3, "cohort_size": 3,
                   "n_rounds_max": 20,
                   "generator": {"samples_min": 1400, "samples_max": 1470}},
        strategies=(("deeps", 0.1), ("deeps", 0.5), ("random", None)),
        active=_COMMON + _COMPARE,
        env=_ONE_BLAS_THREAD,
    ),
    Workload(
        name="train_pool",
        overrides={"n_uavs": 20, "n_rounds_max": 8, "workers": 2,
                   "battery": {"min_j": 20000.0, "max_j": 21000.0},
                   "generator": {"samples_min": 560, "samples_max": 590}},
        strategies=(("random", None),),
        active=_COMMON + ("selection.random_select",),
    ),
    Workload(
        name="fleet_diversity",
        overrides={"n_uavs": 100, "cohort_size": 20, "per_subregion_quota": 2,
                   "n_rounds_max": 4,
                   "generator": {"samples_min": 120, "samples_max": 140}},
        strategies=(("deeps", 0.5),),
        active=_COMMON + ("similarity.deduplicate", "similarity.dataset_diversity",
                          "selection.deeps_select"),
        env=_ONE_BLAS_THREAD,
    ),
    # Criterion 8's 8x8 scenario: seconds per repetition, used by the self-check.
    Workload(
        name="tiny",
        overrides={"n_uavs": 4, "cohort_size": 2, "subregion_count": 2,
                   "per_subregion_quota": 1, "n_rounds_max": 3,
                   "ssim": {"max_pairs": 30},
                   "generator": {"image_side": 8, "samples_min": 40,
                                 "samples_max": 60, "offset_span": 10,
                                 "test_fraction": 0.2}},
        strategies=(("deeps", 0.1), ("deeps", 0.5), ("random", None)),
        active=_COMMON + _COMPARE,
    ),
)}


def merged(base: dict, overrides: dict) -> dict:
    """base with overrides applied; nested sections are merged key by key."""
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict):
            out[key] = {**base.get(key, {}), **value}
        else:
            out[key] = value
    return out
