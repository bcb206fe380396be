"""uavfl benchmark: time one workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload compare_calibrated --seed 11 --seconds 40 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout this
file sits in, never from an installed copy. Each repetition of the workload
runs in a fresh process (perfbench/worker.py), one after another, until the
next one would end past `--seconds`; at least MIN_REPS repetitions run.

--trace 0 reports the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Every repetition's CSV artifacts are fingerprinted (sha256). At the default
seed they must match golden.json, else the strategy runs of that repetition
count as failed; at any seed all repetitions, traced or not, must emit the
same bytes. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; failed / attempted is the
failed_share of the benchmark's README.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import BASE_CONFIG, DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")
MIN_REPS = 3
HARD_LIMIT_S = 170.0  # the whole run, repetitions included, ends before this

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))
# count metrics of the trace; they must repeat exactly across repetitions
_COUNT_SUFFIXES = (".calls", ".samples", ".samples_in", ".removed", ".pairs",
                   ".sample_epochs")


def layer_unit(name: str) -> str:
    if name == "trace_overhead":
        return "ratio"
    return "count" if name.endswith(_COUNT_SUFFIXES) else "s"


def summarize(name: str, values: list[float]) -> float:
    """Median over repetitions; the peak for memory. Whether the training
    threads get a second malloc arena varies between processes, so peak RSS is
    bimodal (about 81 or 90 MB on train_pool) and its median flips."""
    return max(values) if name == "peak_rss_mb" else statistics.median(values)


def machine_facts(env: dict) -> dict:
    """Facts a result depends on, recorded next to it; env is the workers'."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
            cpu_max = fh.read().strip()
    except OSError:
        cpu_max = "absent"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS", "unset"),
        "git_commit": commit,
    }


def worker_env(workload: str) -> dict:
    return {**os.environ, **WORKLOADS[workload].env,
            "PYTHONPATH": os.path.join(ROOT, "src")}


def run_rep(workload: str, seed: int, traced: bool, index: int, deadline: float) -> dict:
    """One repetition in a fresh process; returns the worker's JSON result."""
    out_dir = os.path.join(OUT, f"{workload}-s{seed}-{index}{'-traced' if traced else ''}")
    shutil.rmtree(out_dir, ignore_errors=True)
    env = worker_env(workload)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out_dir] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} repetition {index} "
                         f"{'(traced) ' if traced else ''}exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["package"] != os.path.join(ROOT, "src", "uavfl"):
        raise SystemExit(f"perfbench: imported uavfl from {result['package']}, "
                         f"not from this checkout")
    return result


def count_failed(rep: dict, golden: dict | None) -> int:
    """Strategy runs of one repetition that raised or missed the golden bytes.

    A summary.csv mismatch fails every run of the repetition, since the
    summary holds one row per run.
    """
    fp = rep["fingerprint"]
    summary_ok = golden is None or fp.get("summary.csv") == golden.get("summary.csv")
    failed = 0
    for label in rep["labels"]:
        name = f"rounds_{label}.csv"
        if label in rep["errors"] or not summary_ok or (
                golden is not None and fp.get(name) != golden.get(name)):
            failed += 1
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description="uavfl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/uavfl/__init__.py", BASE_CONFIG)
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {ROOT} is not a uavfl checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    facts = machine_facts(worker_env(args.workload))
    for key, value in facts.items():
        print(f"# {key}: {value}")

    reps: list[dict] = []
    traced: list[dict] = []
    while True:
        t0 = time.monotonic()
        reps.append(run_rep(args.workload, args.seed, False, len(reps), deadline))
        if args.trace:
            traced.append(run_rep(args.workload, args.seed, True, len(traced), deadline))
        step = time.monotonic() - t0
        print(f"# rep {len(reps)}: " + " ".join(
            f"{k}={reps[-1][k]:.4f}" for k, _ in END_TO_END)
            + (f" traced_run_s={traced[-1]['run_s']:.4f}" if traced else ""))
        min_reps = 2 if args.trace else MIN_REPS
        if len(reps) >= min_reps and time.monotonic() - start + step > args.seconds:
            break

    with open(GOLDEN, encoding="utf-8") as fh:
        goldens = json.load(fh)
    fingerprint = reps[0]["fingerprint"]
    deterministic = all(r["fingerprint"] == fingerprint for r in reps + traced)
    golden = goldens.get(args.workload) if args.seed == DEFAULT_SEED else None

    attempted = sum(len(r["labels"]) for r in reps + traced)
    failed = sum(count_failed(r, golden) for r in reps + traced)
    for r in reps + traced:
        for label, tb in r["errors"].items():
            print(f"# {label} raised:\n{tb}", file=sys.stderr)
    if golden is None:
        verdict = f"no verdict at seed {args.seed}" if args.seed != DEFAULT_SEED \
            else "no golden fingerprint recorded"
    else:
        verdict = "matches golden" if fingerprint == golden else "DIFFERS from golden"
    for name, digest in fingerprint.items():
        print(f"# fingerprint {name} {digest}")
    print(f"# fingerprint verdict: {verdict}; identical across repetitions"
          f"{' and traced runs' if traced else ''}: {deterministic}")

    if args.trace:
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            if layer_unit(name) == "count" and len({l[name] for l in layers}) > 1:
                raise SystemExit(f"perfbench: trace count {name} differs between "
                                 f"repetitions: {[l[name] for l in layers]}")
        values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        values["trace_overhead"] = (statistics.median(r["run_s"] for r in traced)
                                    / statistics.median(r["run_s"] for r in reps) - 1.0)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        metrics = {name: {"value": summarize(name, [r[name] for r in reps]), "unit": unit}
                   for name, unit in END_TO_END}

    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions"
          f"{f' + {len(traced)} traced' if traced else ''} in "
          f"{time.monotonic() - start:.1f} s")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6f} {m['unit']}")
    print(f"{'failed_share':42s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "fingerprint": fingerprint, "verdict": verdict,
              "repetitions": reps + traced, "metrics": metrics,
              "attempted": attempted, "failed": failed}
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
