"""Golden fingerprint of calibrated runs: each benchmark workload, run once at
the default seed, must emit CSVs byte-identical to `perfbench/golden.json`.

The workloads are scaled-down calibrated experiments (a few seconds each), so
a refactor that moves any round's result fails here and not only on the 8x8
scenario of criterion 8. Reads `perfbench/`, writes only under tmp_path.
"""

import json
import os
import runpy
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# run_path compiles the file without importing it, so no bytecode is cached there
WORKLOADS = runpy.run_path(os.path.join(PERFBENCH, "workloads.py"))
with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("workload", ["compare_calibrated", "train_pool", "fleet_diversity"])
def test_workload_matches_golden(workload, tmp_path):
    env = {**os.environ, **WORKLOADS["WORKLOADS"][workload].env,
           "PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), "--workload", workload,
         "--seed", str(WORKLOADS["DEFAULT_SEED"]), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == {}
    assert result["fingerprint"] == GOLDEN[workload]
