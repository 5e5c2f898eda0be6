"""Byte-level pins of the trial CSV at fixed seeds.

Each case runs a small experiment and compares the SHA-256 of its trial CSV
with the hash recorded before the smoothing kernels were rewritten.  Any
change to the random streams, the mask draws, the estimators or the
summation order shows up here as a different hash, so a speed-up that is
meant to keep every output bit has to pass these unchanged.  The two
exact-mode cases (n = 12, all 2^12 masks enumerated) pin the enumerated
masks and their weights, which no Monte Carlo case reaches.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from duodenoise.harness import ExperimentConfig, run_trials
from reference import records_csv_text

ROOT = Path(__file__).resolve().parents[1]

BSC = {"type": "bsc", "delta": 0.2}
PARITY_PAIR = {"type": "bsc_counterexample_pair", "delta": 0.2}
WINDOW_PAIR = {"type": "pair",
               "first": {"type": "sliding_window", "k": 1, "rule": "majority"},
               "second": {"type": "identity"}}
PLAIN = {"type": "plain"}
RANDOMIZED = {"type": "randomized", "nu": 0.75, "m": 128}
EXACT = {"type": "randomized", "q": 0.1, "mode": "exact"}
BERNOULLI = {"type": "iid_bernoulli", "p": 0.5}

CASES = {
    "parity_plain": (
        {"denoisers": PARITY_PAIR, "combiner": PLAIN, "trials": 6, "master_seed": 11},
        "d32cc11a5b0088551b7dd012f7c620bb85a7106f3865b645902662342f893f68",
    ),
    "parity_randomized": (
        {"denoisers": PARITY_PAIR, "combiner": RANDOMIZED, "trials": 4, "master_seed": 12},
        "3ca4a1c666224f4cd908f9865d4cd1e42e33b389ee3590fbba001cde70632ea7",
    ),
    "window_plain": (
        {"denoisers": WINDOW_PAIR, "combiner": PLAIN, "clean_source": BERNOULLI,
         "trials": 6, "master_seed": 13},
        "e35009facf45fe6d760f7827b1cd118f278200f9da6ab90adc52362ff9543947",
    ),
    "window_randomized": (
        {"denoisers": WINDOW_PAIR, "combiner": RANDOMIZED, "clean_source": BERNOULLI,
         "trials": 4, "master_seed": 14},
        "0f5644d12c95806f31c2808b1d6d2599d429e47709670f03c731523cb88b47e0",
    ),
    "parity_exact": (
        {"denoisers": PARITY_PAIR, "combiner": EXACT, "clean_source": BERNOULLI,
         "n": 12, "trials": 4, "master_seed": 15},
        "f73049154f67ac0a7e6746419f7a4125f2ae21689b07ae5df965216a81c21b2a",
    ),
    "window_exact": (
        {"denoisers": WINDOW_PAIR, "combiner": EXACT, "clean_source": BERNOULLI,
         "n": 12, "trials": 4, "master_seed": 16},
        "f4851d17fb7c44b70441072300531b9c108342b986967a03e61c070dfe4e9139",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trial_csv_sha256(name, monkeypatch):
    monkeypatch.setenv("DUO_THREADS", "1")
    spec, expected = CASES[name]
    cfg = ExperimentConfig.from_json({"channel": BSC, "n": 256, **spec})
    text = records_csv_text(run_trials(cfg))
    assert text.count("\n") == cfg.trials + 1
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# prints "<case> <sha256>" for each case named on the command line
CHILD = """
import hashlib, io, sys
from duodenoise.harness import ExperimentConfig, records_to_csv, run_trials
from test_golden import BSC, CASES
for name in sys.argv[1:]:
    buf = io.StringIO()
    records_to_csv(run_trials(ExperimentConfig.from_json(
        {"channel": BSC, "n": 256, **CASES[name][0]})), buf)
    print(name, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""


def test_plain_cases_hold_under_every_blas_kernel():
    """The plain path sums through BLAS (``counts @ levels`` in
    ``losses._table_means``), exactly, so the kernel that OpenBLAS's
    ``OPENBLAS_CORETYPE`` selects changes no byte.  Each kernel runs in a
    child process, the only place the variable is set; a kernel this CPU
    cannot execute (the child dies of SIGILL) is passed over, and every
    case must still be hashed at least once."""
    plain = sorted(name for name in CASES if name.endswith("_plain"))
    hashes = {name: set() for name in plain}
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                            os.environ.get("PYTHONPATH", "")])
    for kernel in ("Prescott", "Haswell", "SkylakeX"):
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "DUO_THREADS": "1",
               "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", CHILD, *plain], env=env,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode == -signal.SIGILL:
            continue
        assert proc.returncode == 0, proc.stderr
        for line in proc.stdout.splitlines():
            name, digest = line.split()
            hashes[name].add(digest)
    assert hashes == {name: {CASES[name][1]} for name in plain}
