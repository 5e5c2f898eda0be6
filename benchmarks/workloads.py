"""The benchmark's workloads: what each runs, from which seed, in blocks.

Every workload is a closed loop with one caller: the benchmark runs one
block, waits for it, and runs the next.  An experiment block is one
``harness.run_experiment`` call on the workload's config, with the workload
seed as ``master_seed``, writing its trial CSV under ``benchmarks/results``.
An oracle block is one pass of the exact oracles.  Blocks of one run are
identical, so every block after the first must reproduce the first's output.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clock import PYTHON, Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

DEFAULT_SEED = 7

BSC_02 = {"type": "bsc", "delta": 0.2}
PARITY_PAIR = {"type": "bsc_counterexample_pair", "delta": 0.2}
MAJORITY_IDENTITY = {"type": "pair",
                     "first": {"type": "sliding_window", "k": 1, "rule": "majority"},
                     "second": {"type": "identity"}}

# name -> (DUO_THREADS, config without master_seed and output).  "trials" is
# the block size: enough work per block to time it well, small enough for
# many blocks per run so the median is steady.
EXPERIMENTS = {
    "randomized_n4096": ("1", {
        "channel": BSC_02, "n": 4096, "clean_source": {"type": "all_zeros"},
        "denoisers": PARITY_PAIR,
        "combiner": {"type": "randomized", "nu": 0.75, "m": 128},
        "trials": 4,
    }),
    "plain_n4096": ("1", {
        "channel": BSC_02, "n": 4096, "clean_source": {"type": "all_zeros"},
        "denoisers": PARITY_PAIR, "combiner": {"type": "plain"},
        "trials": 50,
    }),
    "window_n256_t2": ("2", {
        "channel": BSC_02, "n": 256,
        "clean_source": {"type": "iid_bernoulli", "p": 0.5},
        "denoisers": MAJORITY_IDENTITY, "combiner": {"type": "plain"},
        "trials": 200, "epsilons": [0.02, 0.05],
    }),
}

# The exact oracles of ``duodenoise verify`` and the acceptance suite.  The
# channel, h and denoisers come from an experiment config, so set-up is
# measured the same way as for the experiment workloads.
ORACLE = {
    "experiment": {"channel": {"type": "bsc", "delta": 0.25}, "n": 14,
                   "denoisers": MAJORITY_IDENTITY, "trials": 1},
    "parity_counterexample_n": 10,
    "influence_n": 12,
    "influence_q": [0.1, 0.25],
}

WORKLOADS = tuple(EXPERIMENTS) + ("oracle_n14",)


class LibraryMissing(RuntimeError):
    """The checkout holds no duodenoise sources to benchmark."""


def load_library():
    """Import duodenoise from this checkout's ``src`` and nowhere else."""
    if not (SRC / "duodenoise" / "__init__.py").is_file():
        raise LibraryMissing(f"no duodenoise package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import duodenoise

    if Path(duodenoise.__file__).resolve().parent != SRC / "duodenoise":
        raise LibraryMissing(f"duodenoise was imported from {duodenoise.__file__}")
    return duodenoise


def experiment_spec(name: str, seed: int) -> dict:
    """The JSON config of an experiment workload at a seed."""
    spec = dict(EXPERIMENTS[name][1])
    spec["master_seed"] = seed
    spec["output"] = {"path": f"benchmarks/results/{name}-trials.csv", "format": "csv"}
    return spec


def oracle_spec(seed: int) -> dict:
    return dict(ORACLE, experiment=dict(ORACLE["experiment"], master_seed=seed))


def workload_spec(name: str, seed: int) -> dict:
    return oracle_spec(seed) if name == "oracle_n14" else experiment_spec(name, seed)


def setup_spec(name: str, seed: int) -> dict:
    """The experiment config whose parsing is part of the workload's set-up."""
    spec = workload_spec(name, seed)
    return spec["experiment"] if name == "oracle_n14" else spec


def spec_sha256(spec: dict) -> str:
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def threads(name: str) -> str:
    return EXPERIMENTS[name][0] if name in EXPERIMENTS else "1"


@dataclass
class Block:
    """One timed unit of work and what it produced (see clock.py for the
    reference seconds)."""

    seconds: float
    ref_seconds: float
    trials: int
    states: int
    output: dict


class ExperimentWorkload:
    """Repeated ``run_experiment`` calls on one config."""

    def __init__(self, name: str, seed: int):
        from duodenoise import harness

        self.name = name
        self.spec = experiment_spec(name, seed)
        self.cfg = harness.ExperimentConfig.from_json(self.spec)
        self.randomized = self.cfg.randomized
        self.csv_path = ROOT / self.spec["output"]["path"]

    def run_block(self) -> Block:
        from duodenoise import harness

        clock = Clock()
        summary = clock.call(harness.run_experiment, self.cfg)
        text = self.csv_path.read_text()
        # a trial evaluates one channel output, i.e. one state
        return Block(clock.seconds, clock.ref_seconds, self.cfg.trials, self.cfg.trials,
                     {"csv": text, "aggregate": summary})


class OracleWorkload:
    """Repeated passes over the exact-enumeration and influence oracles."""

    def __init__(self, seed: int):
        from duodenoise import harness

        self.name = "oracle_n14"
        self.spec = oracle_spec(seed)
        self.cfg = harness.ExperimentConfig.from_json(self.spec["experiment"])
        gen = np.random.default_rng(seed)
        self.x = gen.integers(0, 2, self.cfg.n)
        self.z = gen.integers(0, 2, self.spec["influence_n"])
        # States enumerated by one pass of run_block: M^n channel outputs for
        # each of its four expectations (two functionals, two denoisers) and
        # each of the three inside check_parity_counterexample (a BEC, M=3),
        # and 2^k masks for each of the k + 1 smoothed evaluations of each
        # influence.
        m, n = self.cfg.channel.output_size, self.cfg.n
        k, q = self.spec["influence_n"], self.spec["influence_q"]
        self.states = (4 * m**n + 3 * 3 ** self.spec["parity_counterexample_n"]
                       + len(q) * (k + 1) * 2**k)

    def run_block(self) -> Block:
        from duodenoise import harness, verify
        from duodenoise.denoisers import SmoothingConfig

        # the oracles are Python loops over states: see clock.PYTHON
        cfg, clock, out = self.cfg, Clock(PYTHON), {}
        for label, d in (("d1", cfg.d1), ("d2", cfg.d2)):
            out[f"estimate_{label}"] = clock.call(
                harness.enumerate_expectation, cfg.channel, self.x,
                harness.estimate_functional(cfg.channel, cfg.h, cfg.lm, d))
            out[f"loss_{label}"] = clock.call(
                harness.enumerate_expectation, cfg.channel, self.x,
                harness.true_loss_functional(cfg.lm, d, self.x))
        out["parity_counterexample"] = clock.call(
            verify.check_parity_counterexample, self.spec["parity_counterexample_n"]).passed
        for q in self.spec["influence_q"]:
            out[f"influence_q{q}"] = clock.call(
                harness.pointwise_influence, _parity, SmoothingConfig(q=q, mode="exact"),
                self.z)[0]
        return Block(clock.seconds, clock.ref_seconds, 1, self.states, out)


def _parity(rows):
    return rows.sum(axis=1) % 2


def make_workload(name: str, seed: int):
    """The workload named ``name`` at ``seed``; DUO_THREADS set to match."""
    os.environ["DUO_THREADS"] = threads(name)
    RESULTS.mkdir(exist_ok=True)
    if name == "oracle_n14":
        return OracleWorkload(seed)
    return ExperimentWorkload(name, seed)
