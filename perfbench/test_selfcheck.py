"""Fast self-check of the benchmark on the `tiny` workload (criterion 8's 8x8
scenario). Takes seconds:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import uavfl.harness  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,spec_key", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_reports_every_metric_and_matches_golden(trace, spec_key):
    proc = bench("--workload", "tiny", "--seed", "11", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert "matches golden" in proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC[spec_key]}
    for m in SPEC[spec_key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        for layer in run.WORKLOADS["tiny"].active:
            key = layer + (".self_s" if layer == layertrace.PARENT else ".calls")
            assert result["metrics"][key]["value"] > 0, key


def test_golden_mismatch_counts_every_run_it_touches():
    rep = {"labels": ["deeps_th0.1", "random"], "errors": {},
           "fingerprint": {"rounds_deeps_th0.1.csv": "a", "rounds_random.csv": "b",
                           "summary.csv": "c"}}
    assert run.count_failed(rep, dict(rep["fingerprint"])) == 0
    assert run.count_failed(rep, {**rep["fingerprint"], "rounds_random.csv": "x"}) == 1
    assert run.count_failed(rep, {**rep["fingerprint"], "summary.csv": "x"}) == 2
    assert run.count_failed({**rep, "errors": {"random": "tb"}}, None) == 1


def test_trace_restores_every_name_and_notices_blind_layers():
    def names():
        return {(path, name): getattr(tr._owner(path), name)
                for path, name, _, _ in layertrace.TRACED}

    tr = layertrace.Trace(uavfl)
    before = names()
    with tr:
        assert all(hasattr(fn, "__wrapped__") for fn in names().values())
    assert names() == before
    with layertrace.Trace(uavfl, layers=(layertrace.SETUP, layertrace.PARENT)):
        wrapped = {key for key, fn in names().items() if hasattr(fn, "__wrapped__")}
    assert wrapped == {("harness", "build_scenario"), ("harness", "run_experiment")}
    assert names() == before
    with pytest.raises(RuntimeError, match="similarity.deduplicate"):
        tr.layer_metrics(expect=("similarity.deduplicate",))


def test_single_strategy_path_times_setup_apart_from_run(tmp_path, monkeypatch):
    """One strategy runs as `uavfl run` does: run_experiment builds its own
    scenario, and that build counts as set-up, not run."""
    tiny = workloads.WORKLOADS["tiny"]
    monkeypatch.setitem(workloads.WORKLOADS, "tiny_run", dataclasses.replace(
        tiny, name="tiny_run", strategies=(("random", None),)))
    names = (uavfl.harness.build_scenario, uavfl.harness.run_experiment)
    tr = layertrace.Trace(uavfl)
    rep = worker.run_workload(ROOT, "tiny_run", 11, str(tmp_path), tr)
    assert (uavfl.harness.build_scenario, uavfl.harness.run_experiment) == names
    assert rep["errors"] == {}
    assert set(rep["fingerprint"]) == {"rounds_random.csv", "summary.csv"}
    spans = {layer: end - start for layer, start, end, _ in tr.spans
             if layer in (layertrace.PARENT, layertrace.SETUP)}
    assert rep["setup_s"] == spans[layertrace.SETUP] > 0
    assert rep["run_s"] == pytest.approx(spans[layertrace.PARENT] - spans[layertrace.SETUP])
    assert rep["setup_s"] + rep["run_s"] < rep["total_s"]


def test_union_length():
    assert layertrace.union_length([]) == 0.0
    assert layertrace.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "tiny", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
