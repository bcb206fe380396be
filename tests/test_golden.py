"""Golden fingerprint of calibrated runs: each benchmark workload, run once at
the default seed, must emit CSVs byte-identical to `perfbench/golden.json`.

The workloads are scaled-down calibrated experiments (a few seconds each), so
a refactor that moves any round's result fails here and not only on the 8x8
scenario of criterion 8. Reads `perfbench/`, writes only under tmp_path.

The CSVs print floats at 6 significant digits, so they can miss a drift in
the generated data; the scenario digests below hash the data itself.
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys

import pytest

from uavfl.config import config_from_dict
from uavfl.harness import build_scenario
from uavfl.learning import samples_to_matrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# run_path compiles the file without importing it, so no bytecode is cached there
WORKLOADS = runpy.run_path(os.path.join(PERFBENCH, "workloads.py"))
with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

# sha256 of each workload's build_scenario data at the default seed: every
# UAV's training images and labels in id order, then the pooled test set as
# the float64 inputs and labels that each evaluation reads
SCENARIO_DIGESTS = {
    "tiny": "f992d42bb5c4aa9dbdcd0f3a8066d507637b7aefa52566b75b76ea0a5c028554",
    "compare_calibrated": "7669f53fb3ec571e21800f39d15aec57a2eeb279213b6521e1d639e8f7b87185",
    "train_pool": "5ae9675a7f37606f9e2a7c37334b3c812e960f52b0d39387396cbf6da1b61d69",
    "fleet_diversity": "0439fce8c9859fbaeefa64c4edc04b6fb2fb2480b7218b71408b76def8ba29cf",
}


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


@pytest.mark.parametrize("workload", sorted(SCENARIO_DIGESTS))
def test_workload_data_matches_digest(workload):
    """The same bytes whether the build runs inline (workers 1) or on 2 or 3
    threads. Among the workloads, 3 sub-regions on 2 threads and 10 on 3 make
    uneven strides, and tiny's 2 sub-regions cap workers 3 at 2 threads."""
    with open(os.path.join(ROOT, WORKLOADS["BASE_CONFIG"]), encoding="utf-8") as fh:
        base = json.load(fh)
    for workers in (1, 2, 3):
        overrides = {**WORKLOADS["WORKLOADS"][workload].overrides,
                     "master_seed": WORKLOADS["DEFAULT_SEED"], "workers": workers}
        scenario = build_scenario(config_from_dict(WORKLOADS["merged"](base, overrides)))
        digest = hashlib.sha256()
        for uav in scenario.uavs:
            digest.update(uav.dataset.samples.images.tobytes())
            digest.update(uav.dataset.samples.labels.tobytes())
        for column in samples_to_matrix(scenario.test):
            digest.update(column.tobytes())
        assert digest.hexdigest() == SCENARIO_DIGESTS[workload], f"workers {workers}"
