"""One repetition of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Runs what the CLI runs, through the package's public API. A workload with
several strategies calls `harness.compare_strategies` (`uavfl compare`); a
workload with one strategy calls `harness.run_experiment` and emits the
per-round CSV, `summary.csv` and `metadata.json` (`uavfl run`). Set-up and
run are timed from the spans of `harness.build_scenario` and
`harness.run_experiment` (layertrace.py), which an untraced repetition
wraps alone. Expects `src/` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from layertrace import PARENT, SETUP, Trace
from workloads import BASE_CONFIG, WORKLOADS, merged


def fingerprint(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV in out_dir, by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_workload(root: str, name: str, seed: int, out_dir: str, trace: Trace) -> dict:
    """Run the workload once under `trace`; times, per-strategy errors and the
    fingerprint."""
    import uavfl
    from uavfl import harness
    from uavfl.config import config_from_dict

    workload = WORKLOADS[name]
    labels = [strategy if th is None else f"deeps_th{th:g}"
              for strategy, th in workload.strategies]
    errors = {}
    t0 = time.perf_counter()
    with open(os.path.join(root, BASE_CONFIG), encoding="utf-8") as fh:
        base = json.load(fh)
    config = config_from_dict(merged(base, {**workload.overrides, "master_seed": seed}))

    with trace, contextlib.redirect_stdout(sys.stderr):  # compare's table
        try:
            if len(workload.strategies) > 1:
                harness.compare_strategies(config, list(workload.strategies),
                                           out_dir=out_dir)
            else:
                (strategy, th), = workload.strategies
                summary = harness.run_experiment(config, strategy=strategy,
                                                 ssim_threshold=th)
                os.makedirs(out_dir, exist_ok=True)
                harness.emit_csv(summary.records,
                                 os.path.join(out_dir, f"rounds_{summary.label}.csv"))
                harness.emit_summary_csv([summary], os.path.join(out_dir, "summary.csv"))
                harness.emit_metadata(config, os.path.join(out_dir, "metadata.json"))
        except Exception:  # every strategy run of the repetition counts as failed
            errors = dict.fromkeys(labels, traceback.format_exc())
    t_end = time.perf_counter()

    setup_s, run_s = trace.setup_and_run()
    os.makedirs(out_dir, exist_ok=True)
    return {
        "package": os.path.dirname(uavfl.__file__),
        "setup_s": setup_s,
        "run_s": run_s,
        "total_s": t_end - t0,
        "labels": labels,
        "errors": errors,
        "fingerprint": fingerprint(out_dir),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    import uavfl.harness  # the trace resolves its names from the package
    # untraced, only the two end-to-end timers are wrapped
    trace = Trace(uavfl) if args.trace else Trace(uavfl, layers=(SETUP, PARENT))
    result = run_workload(root, args.workload, args.seed, args.out, trace)
    if args.trace:
        result["layers"] = trace.layer_metrics(WORKLOADS[args.workload].active)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
