"""The benchmark's correctness gate on every workload it declares.

``benchmarks/run.py`` checks each workload's first block against its golden
output before it measures anything.  A 0.01 s run per workload is enough to
reach that gate, so a library name the benchmark can no longer find, or a
changed trial CSV, fails here rather than only in a benchmark run.  The
tracer skips a traced name it cannot find and notes it only in the saved
results, so every name it traces must resolve here.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

from duodenoise.denoisers import Denoiser

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_gate_passes(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    report = proc.stdout + proc.stderr
    assert proc.stdout.strip(), report
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, report
    assert proc.returncode == 0, report


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr in tracer.FUNCTIONS:
        try:
            attrgetter(attr)(importlib.import_module(f"duodenoise.{module}"))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    missing += [f"Denoiser.{method}" for method in tracer.DENOISER_METHODS
                if not hasattr(Denoiser, method)]
    assert missing == []
