"""The benchmark's correctness gates, run in-process at its two seeds.

``perfbench/workloads.py`` defines each benchmark workload's argv and the
closed-form gate its output must pass.  Running them here means a change
to the random streams that trips a gate fails the test suite, not only a
benchmark run.  The module is loaded from its file and never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from wshare.cli import main

SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = sys.modules[SPEC.name] = importlib.util.module_from_spec(SPEC)  # dataclasses look it up
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
SPEC.loader.exec_module(workloads)
sys.dont_write_bytecode = _write_bytecode

SEEDS = (1, 2)  # the benchmark's default seed and its held-out one


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_passes_its_gate(name, seed, tmp_path, monkeypatch):
    # Every grid is below the pool threshold, so no call starts a process.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    workload = workloads.WORKLOADS[name]
    out = tmp_path / "out"
    status = main(workload.argv(seed, str(out), workload.workers))
    assert workload.check(out.read_text(), status) == []
