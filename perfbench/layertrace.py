"""Per-layer trace of a uavfl workload, taken from outside the package.

The trace replaces the module-level names that `uavfl.harness` resolves at
call time (and `uavfl.learning.samples_to_matrix`, which `local_train`
resolves inside `uavfl.learning`) with timing wrappers, records one span per
call in memory, and puts every original back when it closes. Nothing in the
package knows it is being traced, so the trace keeps working only as long as
the harness keeps calling these names through its module namespace; the
`expect` check in `Trace.layer_metrics` is what notices when it stops.
"""

from __future__ import annotations

import functools
import inspect
import time


def _bound(fn):
    """Return a function mapping (args, kwargs) to the named arguments of fn."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


# Count extractors: (named arguments, result) -> {count name: value}. They run
# after the call, so a count of what went in must be rebuilt from what is left
# (dedup keeps len(d.samples) samples and returns how many it removed).
def _count_generate(a, r):
    return {"samples": len(r.train) + len(r.test)}


def _count_dedup(a, r):
    return {"samples_in": len(a["d"].samples) + r, "removed": r}


def _count_diversity(a, r):
    return {"pairs": r.pairs_evaluated}


def _count_train(a, r):
    return {"sample_epochs": len(a["shard"]) * a["epochs"]}


# (owner module attribute path, attribute name, layer, counter). Owner paths
# are resolved against the imported package at install time.
TRACED = (
    ("harness", "generate_uav_dataset", "datagen.generate_uav_dataset", _count_generate),
    ("harness", "deduplicate", "similarity.deduplicate", _count_dedup),
    ("harness", "dataset_diversity", "similarity.dataset_diversity", _count_diversity),
    ("harness", "local_train", "learning.local_train", _count_train),
    ("harness", "samples_to_matrix", "learning.samples_to_matrix", None),
    ("learning", "samples_to_matrix", "learning.samples_to_matrix", None),
    ("harness", "aggregate", "learning.aggregate", None),
    ("harness", "evaluate_matrix", "learning.evaluate_matrix", None),
    ("harness", "deeps_select", "selection.deeps_select", None),
    ("harness", "random_select", "selection.random_select", None),
    ("harness", "estimate_round_cost", "cost.estimate_round_cost", None),
    ("harness.Scenario", "fresh_copy", "harness.fresh_copy", None),
    ("harness", "emit_csv", "harness.emit", None),
    ("harness", "emit_summary_csv", "harness.emit", None),
    ("harness", "emit_metadata", "harness.emit", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "build_scenario", "harness.build_scenario", None),
)

# Every layer reported, with the counts it carries besides calls and busy_s.
LAYER_COUNTS = {
    "datagen.generate_uav_dataset": ("samples",),
    "similarity.deduplicate": ("samples_in", "removed"),
    "similarity.dataset_diversity": ("pairs",),
    "learning.local_train": ("sample_epochs",),
    "learning.samples_to_matrix": (),
    "learning.aggregate": (),
    "learning.evaluate_matrix": (),
    "selection.deeps_select": (),
    "selection.random_select": (),
    "cost.estimate_round_cost": (),
    "harness.fresh_copy": (),
    "harness.emit": (),
}
# run_experiment is the parent of the round-loop layers; it reports self time.
PARENT = "harness.run_experiment"
# Not reported: run_experiment without a scenario builds its own, and that
# set-up is not the round loop's self time.
SETUP = "harness.build_scenario"


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Trace:
    """Context manager that wraps the traced names and restores them on exit.

    Spans are (layer, start, end, counts) tuples appended from whichever
    thread made the call; list.append is atomic, so the training thread pool
    needs no lock.
    """

    def __init__(self, package, layers: tuple[str, ...] | None = None):
        """Trace every layer, or only `layers` (the end-to-end timers use
        SETUP and PARENT alone)."""
        self.package = package
        self.traced = [t for t in TRACED if layers is None or t[2] in layers]
        self.spans: list[tuple[str, float, float, dict | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, path: str):
        obj = self.package
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _wrap(self, original, layer, counter):
        spans = self.spans
        bind = _bound(original) if counter else None
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            end = clock()
            spans.append((layer, start, end,
                          counter(bind(args, kwargs), result) if counter else None))
            return result
        return traced

    def __enter__(self) -> "Trace":
        try:
            for path, name, layer, counter in self.traced:
                owner = self._owner(path)
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer, counter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back and check that none is still wrapped."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        for path, name, _, _ in self.traced:
            if hasattr(getattr(self._owner(path), name), "__wrapped__"):
                raise RuntimeError(f"trace wrapper left on {path}.{name}")

    def setup_and_run(self) -> tuple[float, float]:
        """Time in build_scenario, and in run_experiment less the set-up that
        run_experiment without a scenario does for itself."""
        setups = [(s, e) for layer, s, e, _ in self.spans if layer == SETUP]
        runs = [(s, e) for layer, s, e, _ in self.spans if layer == PARENT]
        nested = sum(e - s for s, e in setups
                     if any(rs <= s and e <= re for rs, re in runs))
        return sum(e - s for s, e in setups), sum(e - s for s, e in runs) - nested

    def layer_metrics(self, expect: tuple[str, ...] = ()) -> dict[str, float]:
        """Per-layer calls, busy time and counts; `wall_s` of the training pool
        and the self time of run_experiment.

        Raises if any layer named in `expect` recorded no call, which means
        the harness stopped resolving that name through its namespace and the
        trace went blind to it.
        """
        out: dict[str, float] = {}
        by_layer: dict[str, list] = {layer: [] for layer in LAYER_COUNTS}
        by_layer[PARENT] = []
        by_layer[SETUP] = []
        for span in self.spans:
            by_layer[span[0]].append(span)
        for layer, counts in LAYER_COUNTS.items():
            spans = by_layer[layer]
            out[f"{layer}.calls"] = len(spans)
            out[f"{layer}.busy_s"] = sum(end - start for _, start, end, _ in spans)
            for count in counts:
                out[f"{layer}.{count}"] = sum(c[count] for _, _, _, c in spans)
            if layer == "learning.local_train":  # busy_s counts pool threads twice
                out[f"{layer}.wall_s"] = union_length((s, e) for _, s, e, _ in spans)

        children = [(start, end) for layer, start, end, _ in self.spans
                    if layer != PARENT]
        self_s = 0.0
        for _, start, end, _ in by_layer[PARENT]:
            inside = [(max(s, start), min(e, end)) for s, e in children
                      if s < end and e > start]
            self_s += (end - start) - union_length(inside)
        out[f"{PARENT}.self_s"] = self_s

        blind = [layer for layer in expect if not by_layer[layer]]
        if blind:
            raise RuntimeError(
                "trace recorded no call on layer(s) this workload exercises: "
                + ", ".join(blind)
                + "; uavfl.harness no longer resolves them through its namespace")
        return out
