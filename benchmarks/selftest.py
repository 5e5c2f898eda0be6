"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest benchmarks/selftest.py

The file is not named ``test_*.py`` on purpose: it pins counts of today's
library (for example four ``estimate_loss`` calls per plain trial) that an
optimisation is meant to change, so it stays out of the library's suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

wl.load_library()

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = wl.DEFAULT_SEED   # the seed whose trial CSVs golden.json records


@functools.cache
def _first_block(name: str):
    """The workload at the default seed and its first block, run once."""
    workload = wl.make_workload(name, SEED)
    return workload, workload.run_block()


def _namespaces() -> dict:
    """Every attribute of every duodenoise module and of the classes in it."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name != "duodenoise" and not name.startswith("duodenoise."):
            continue
        for key, value in vars(module).items():
            snap[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


def _corrupt(text: str, row: int, column: str) -> str:
    """The CSV with one cell moved: an integer by 1, a float by 1e-6."""
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    i = header.index(column)
    try:
        cells[i] = str(int(cells[i]) + 1)
    except ValueError:
        cells[i] = repr(float(cells[i]) + 1e-6)
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("name, column", [
    ("plain_n4096", "est_d1"), ("plain_n4096", "loss_d2"),
    ("randomized_n4096", "sm_est_d1"), ("randomized_n4096", "sm_loss_d2"),
    ("randomized_n4096", "mask_weight"),
])
def test_gate_rejects_a_csv_with_one_corrupted_cell(name, column):
    workload, block = _first_block(name)
    golden = checks.load_golden()
    gate = checks.Gate()
    checks.check_first(gate, workload, block, golden)
    assert gate.attempted > 4 * workload.cfg.trials and gate.failures == []

    text = _corrupt(block.output["csv"], 2, column)
    bad = dataclasses.replace(block, output=dict(block.output, csv=text))
    gate = checks.Gate()
    checks.check_first(gate, workload, bad, golden)
    assert any("recorded SHA-256" in f for f in gate.failures)
    assert any(f.startswith(f"trial 2: {column}") for f in gate.failures)


def test_golden_entries_match_the_default_configs():
    golden = checks.load_golden()
    assert set(golden) == set(wl.EXPERIMENTS)
    for name, entry in golden.items():
        assert entry["config_sha256"] == wl.spec_sha256(wl.experiment_spec(name, wl.DEFAULT_SEED))


def test_traced_run_restores_every_wrapped_attribute():
    workload, _ = _first_block("randomized_n4096")
    before = _namespaces()
    with Tracer() as tracer:
        during = _namespaces()
        workload.run_block()
    after = _namespaces()
    assert tracer.missing == []
    assert any(during[k] is not before[k] for k in before)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_short_plain_run_counts_four_estimate_loss_calls_per_trial(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "RESULTS", tmp_path)   # keep the seed-7 runs' span files
    workload, first = _first_block("plain_n4096")
    gate = checks.Gate()
    args = argparse.Namespace(workload="plain_n4096", seed=SEED, seconds=0.01, trace=1)
    result = {}
    metrics = run.per_layer(workload, args, gate, first, result)
    assert gate.failures == [] and result["count_flags"] == []
    assert metrics["losses.estimate_loss_calls"] == 4
    assert metrics["losses.distinct_estimate_ratio"] == 0.5
    assert set(metrics) == set(run.LAYER_UNITS)


def test_differing_counts_between_runs_are_flagged(tmp_path):
    def result(calls):
        return {"provenance": {"source_sha256": "abc"},
                "metrics": {"losses.estimate_loss_calls": {"value": calls, "unit": "calls/trial"}}}

    path = tmp_path / "previous.json"
    path.write_text(json.dumps(result(4.0)))
    assert run._previous_count_flags(path, result(4.0)) == []
    assert len(run._previous_count_flags(path, result(2.0))) == 1


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_fails_without_printing_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "plain_n4096", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
