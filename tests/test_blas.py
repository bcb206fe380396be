"""A run's bits do not depend on the BLAS thread count, and a run hands the
caller's thread count back.

OpenBLAS may split a GEMM's sums across threads in a different order, so
under some kernels (Haswell on x86-64) a run's full-precision results used to
change with `OPENBLAS_NUM_THREADS`. The printed CSVs round to 6 digits and
cannot see that, so the check here hashes `float.hex` of every round record.
Each kernel also has its own bits, so `local_train` is checked against the
textbook oracle under two more kernels than the one this process runs.
"""

import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from test_harness import tiny_config
from test_learning import KERNEL_SHAPES
from uavfl import harness, learning
from uavfl.errors import CohortInfeasible

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

needs_openblas = pytest.mark.skipif(
    learning._openblas() is None,
    reason="numpy's bundled OpenBLAS (libscipy_openblas64_) or its thread-control "
           "symbols are absent, so the run cannot pin or report BLAS threads")

# compare_calibrated's scenario at the default seed, all three strategies; prints
# the sha256 of the float.hex of every record's accuracy, loss, duration and
# energy, then of each run's final battery total
_HASH_RUN = """
import contextlib, hashlib, json, os, sys, tempfile
sys.path.insert(0, {perfbench!r})
from workloads import BASE_CONFIG, DEFAULT_SEED, WORKLOADS, merged
from uavfl.config import config_from_dict
from uavfl.harness import compare_strategies

workload = WORKLOADS["compare_calibrated"]
with open(os.path.join({root!r}, BASE_CONFIG), encoding="utf-8") as fh:
    base = json.load(fh)
config = config_from_dict(merged(base, {{**workload.overrides, "master_seed": DEFAULT_SEED}}))
with contextlib.redirect_stdout(sys.stderr), tempfile.TemporaryDirectory() as out:
    summaries = compare_strategies(config, list(workload.strategies), out_dir=out)
digest = hashlib.sha256()
for s in summaries:
    for r in s.records:
        for x in (r.global_accuracy, r.global_loss, r.round_duration_s, r.cohort_energy_j):
            digest.update(x.hex().encode())
    digest.update(s.final_battery_total_j.hex().encode())
print(digest.hexdigest())
"""


def _record_digest(**overrides: str) -> str:
    env = {**os.environ, **overrides,
           "PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_RUN.format(root=ROOT, perfbench=PERFBENCH)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@needs_openblas
def test_records_do_not_depend_on_blas_threads():
    assert (_record_digest(OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
            == _record_digest(OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="2"))


# the record digest under OpenBLAS's SkylakeX kernel; each kernel has its own
# bits (ROADMAP item 2), so other kernels have no recorded value
SKYLAKEX_RECORD_DIGEST = "0877a5b1b2277cee8cd052d432de625a4d792a0a6f61136ada12467debdda64c"


def test_records_match_the_full_precision_golden():
    """The 6-digit CSV golden cannot see a change in the last bits; this can."""
    core = learning.blas_info()["core"]
    if core != "SkylakeX":
        pytest.skip(f"the full-precision golden is recorded for the SkylakeX kernel, "
                    f"and this process runs {core}")
    assert _record_digest() == SKYLAKEX_RECORD_DIGEST


@needs_openblas
def test_run_experiment_pins_one_thread_and_restores_the_callers(monkeypatch):
    lib = learning._openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    seen = []

    def spy(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return real(*args, **kwargs)

    real = harness.local_train
    monkeypatch.setattr(harness, "local_train", spy)
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        assert lib.scipy_openblas_get_num_threads64_() == 2
        # the pool's threads see the pinned count too
        harness.run_experiment(tiny_config(workers=2))
        assert seen and set(seen) == {1}
        assert lib.scipy_openblas_get_num_threads64_() == 2
        # a run that raises gives the count back as well
        with pytest.raises(CohortInfeasible):
            harness.run_experiment(tiny_config(strategy="random",
                                               battery={"min_j": 0.0, "max_j": 0.03}))
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


# runs `local_train` against the oracle on test_learning's KERNEL_SHAPES and
# prints the kernel it ran under, then one verdict per shape
_KERNEL_CHECK = """
from test_learning import KERNEL_SHAPES, kernel_case, matches_oracle
from uavfl.learning import blas_info
print(blas_info()["core"], *(matches_oracle(*kernel_case(*s)) for s in KERNEL_SHAPES))
"""


@needs_openblas
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="Katmai and Nehalem are x86-64 kernels")
@pytest.mark.parametrize("core", ["Katmai", "Nehalem"])
def test_local_train_matches_the_oracle_under_other_kernels(core):
    """Each kernel has its own bits, so `local_train` must give the oracle's
    under more than the one this process runs; every x86-64 CPU can run these two."""
    path = os.pathsep.join(os.path.join(ROOT, part) for part in ("src", "tests"))
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path,
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _KERNEL_CHECK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [core] + ["True"] * len(KERNEL_SHAPES)


def test_blas_info_names_the_pinned_kernel():
    info = learning.blas_info()
    assert set(info) == {"openblas", "core", "threads", "numpy"}
    if learning._openblas() is None:
        assert info["openblas"] is None and info["core"] is None and info["threads"] is None
    else:
        assert isinstance(info["core"], str) and info["core"]
        assert info["threads"] == 1


@needs_openblas
def test_blas_info_names_the_openblas_version():
    config = learning._openblas().scipy_openblas_get_config64_().decode()
    version = learning.blas_info()["openblas"]
    assert re.fullmatch(r"\d+\.\d+\.\d+(\.\d+)*", version)
    assert config.startswith(f"OpenBLAS {version} ")


def test_blas_info_without_the_library(monkeypatch):
    monkeypatch.setattr(learning, "_openblas", lambda: None)
    assert learning.blas_info() == {"openblas": None, "core": None, "threads": None,
                                    "numpy": np.__version__}
