"""Experiment configs, trial running, aggregation, and influence tools."""

from __future__ import annotations

import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duodenoise import combine, denoisers, harness
from duodenoise.channel import (
    Channel,
    canonical_erasure_h,
    compute_h,
    is_bec,
    make_bec,
    make_bsc,
    outputs_from_uniforms,
)
from duodenoise.combine import randomized_combined_denoise, select_min_estimate
from duodenoise.denoisers import (
    ENUMERATION_LIMIT,
    BecParityDenoiser,
    ConstantDenoiser,
    IdentityDenoiser,
    ParityCopyDenoiser,
    ParityMarkedZerosDenoiser,
    SlidingWindowDenoiser,
    SmoothingConfig,
    blocks,
    functional_values,
    make_bsc_counterexample_pair,
    make_sliding_window,
    mask_set,
    masked_values,
)
from duodenoise.harness import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    denoiser_from_spec,
    enumerate_expectation,
    estimate_functional,
    pointwise_influence,
    records_to_csv,
    run_experiment,
    run_trials,
    true_loss_functional,
)
from duodenoise.losses import (
    cumulative_loss,
    estimate_smoothed_loss,
    hamming_loss,
    loss_matrix,
    per_symbol_estimates,
    smoothed_conditional_loss,
)
from duodenoise.rng import RngStream

PLAIN_SPEC = {
    "channel": {"type": "bsc", "delta": 0.2},
    "n": 64,
    "clean_source": {"type": "all_zeros"},
    "denoisers": {"type": "bsc_counterexample_pair", "delta": 0.2},
    "combiner": {"type": "plain"},
    "trials": 40,
    "epsilons": [0.05],
    "master_seed": 99,
}


def spec_with(**overrides) -> dict:
    return {**PLAIN_SPEC, **overrides}


def records_csv_text(table: dict[str, list]) -> str:
    """The trial CSV that :func:`records_to_csv` writes, as text."""
    buf = io.StringIO()
    records_to_csv(table, buf)
    return buf.getvalue()


def table_rows(table: dict[str, list]) -> list[dict]:
    """The trial table as one dict per trial, keyed by column name."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def rows_table(rows: list[dict]) -> dict[str, list]:
    """The trial table of rows (dicts with the same keys, in column order)."""
    return {name: [row[name] for row in rows] for name in rows[0]}


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_json(spec_with(tyop="oops"))

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_json(
                spec_with(combiner={"type": "plain", "delta": 1})
            )

    def test_missing_required_key(self):
        bad = dict(PLAIN_SPEC)
        del bad["channel"]
        with pytest.raises(ConfigError, match="missing required"):
            ExperimentConfig.from_json(bad)

    def test_accepts_json_text(self):
        cfg = ExperimentConfig.from_json(json.dumps(PLAIN_SPEC))
        assert cfg.n == 64 and cfg.trials == 40 and not cfg.randomized

    def test_bec_defaults_to_canonical_h(self):
        cfg = ExperimentConfig.from_json(spec_with(
            channel={"type": "bec", "epsilon": 0.5},
            denoisers={"type": "bec_parity_pair"},
        ))
        assert cfg.h_choice == "canonical_erasure"
        assert cfg.h[0, 2] == 0.0

    def test_bsc_defaults_to_min_norm_h(self):
        assert ExperimentConfig.from_json(PLAIN_SPEC).h_choice == "min_norm"

    def test_pair_requires_matching_channel(self):
        with pytest.raises(ConfigError, match="erasure"):
            ExperimentConfig.from_json(spec_with(
                denoisers={"type": "bec_parity_pair"}
            ))

    def test_randomized_combiner_parsed(self):
        cfg = ExperimentConfig.from_json(spec_with(
            combiner={"type": "randomized", "nu": 0.6, "m": 32}
        ))
        assert cfg.randomized and cfg.smoothing.m == 32
        assert cfg.smoothing.resolve_q(64) == pytest.approx(64 ** -0.6)

    def test_bad_source(self):
        with pytest.raises(ConfigError, match="unknown clean source"):
            ExperimentConfig.from_json(spec_with(clean_source={"type": "markov"}))
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            ExperimentConfig.from_json(spec_with(
                clean_source={"type": "iid_bernoulli", "p": 1.5}
            ))

    def test_clean_file_length_checked(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0\n1\n0\n")
        with pytest.raises(ConfigError, match="does not match"):
            ExperimentConfig.from_json(spec_with(
                clean_source={"type": "file", "path": str(path)}
            ))

    def test_explicit_denoiser_pair(self):
        cfg = ExperimentConfig.from_json(spec_with(denoisers={
            "type": "pair",
            "first": {"type": "identity"},
            "second": {"type": "sliding_window", "k": 1, "rule": "majority"},
        }))
        assert type(cfg.d1) is IdentityDenoiser
        assert type(cfg.d2) is SlidingWindowDenoiser and cfg.d2.k == 1
        # majority of the three window symbols, window code 4a + 2b + c
        assert cfg.d2.table.tolist() == [0, 0, 0, 1, 0, 1, 1, 1]

    def test_unknown_denoiser_type(self):
        ch = make_bsc(0.2)
        with pytest.raises(ConfigError, match="unknown denoiser"):
            denoiser_from_spec({"type": "oracle"}, ch)


class TestTrials:
    @pytest.mark.parametrize("per_block", [1, 5, None])     # None: the default budget
    def test_reproducible_and_thread_invariant(self, monkeypatch, per_block):
        cfg = ExperimentConfig.from_json(spec_with(
            combiner={"type": "randomized", "nu": 0.75, "m": 16}, trials=12
        ))
        if per_block:       # blocks of 5 leave a ragged last block of 2
            monkeypatch.setattr(denoisers, "BLOCK_BYTES", 8 * per_block * cfg.n)
        monkeypatch.setenv("DUO_THREADS", "1")
        a = records_csv_text(run_trials(cfg))
        monkeypatch.setenv("DUO_THREADS", "8")
        b = records_csv_text(run_trials(cfg))
        assert a == b

    def test_plain_csv_header(self):
        cfg = ExperimentConfig.from_json(spec_with(trials=3))
        text = records_csv_text(run_trials(cfg))
        assert text.splitlines()[0] == (
            "trial,seed,parity,loss_d1,loss_d2,est_d1,est_d2,chosen,loss_combined"
        )
        assert len(text.splitlines()) == 4

    def test_randomized_csv_header(self):
        cfg = ExperimentConfig.from_json(spec_with(
            combiner={"type": "randomized", "nu": 0.75, "m": 8}, trials=2
        ))
        header = records_csv_text(run_trials(cfg)).splitlines()[0]
        assert header.endswith(",sm_loss_d1,sm_loss_d2,sm_est_d1,sm_est_d2,mask_weight")

    def test_combined_loss_matches_chosen(self):
        cfg = ExperimentConfig.from_json(spec_with(trials=20))
        for r in table_rows(run_trials(cfg)):
            chosen_loss = r["loss_d1"] if r["chosen"] == 1 else r["loss_d2"]
            assert r["loss_combined"] == pytest.approx(chosen_loss, abs=1e-12)

    def test_pool_is_capped_by_blocks_and_cpus(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records the requested size and starts no thread."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(denoisers, "BLOCK_BYTES", 8 * 16)   # one n = 16 trial a block
        monkeypatch.setenv("DUO_THREADS", "1000")
        randomized = {"type": "randomized", "nu": 0.75, "m": 8}
        for trials, expected in ((12, 3), (2, 2)):
            cfg = ExperimentConfig.from_json(spec_with(n=16, trials=trials, combiner=randomized))
            assert len(run_trials(cfg)["trial"]) == trials
            assert sizes.pop() == expected
        plain = run_trials(ExperimentConfig.from_json(spec_with(n=16, trials=12)))
        assert len(plain["trial"]) == 12
        assert sizes == []      # plain blocks run in the calling thread
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        run_trials(ExperimentConfig.from_json(spec_with(n=16, trials=12, combiner=randomized)))
        assert sizes == []      # one worker runs in the calling thread
        assert harness.worker_count() == 1000

    def test_usable_cpus_without_affinity_masks(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert harness._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)     # undeterminable
        assert harness._usable_cpus() == 1

    def test_randomized_trial_memory_peak(self):
        # the headline trial holds its mask sets, one 1-byte picked table and
        # chunk-sized temporaries: about 2.4 MB, against 7.6 MB when every
        # smoothed quantity built whole-set temporaries
        cfg = ExperimentConfig.from_json(spec_with(
            n=4096, trials=2, combiner={"type": "randomized", "nu": 0.75, "m": 128}))
        harness._block(cfg, range(0, 1))    # first-call set-up outside the trace
        tracemalloc.start()
        try:
            harness._block(cfg, range(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    def test_plain_run_peak_grows_by_at_most_350_bytes_per_trial(self):
        # the peak holds the trial table (Python lists, ints and floats)
        # and the aggregate's float64 columns: about 273 B per plain trial
        def peak(trials: int) -> int:
            cfg = ExperimentConfig.from_json(spec_with(trials=trials))
            gc.collect()
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)       # first-call set-up outside the measurement
        assert (peak(6000) - peak(2000)) / 4000 <= 350

    def test_run_experiment_writes_output(self, tmp_path):
        path = tmp_path / "out.csv"
        cfg = ExperimentConfig.from_json(spec_with(
            trials=5, output={"path": str(path), "format": "csv"}
        ))
        summary = run_experiment(cfg)
        assert path.exists() and summary["trials"] == 5
        assert summary["version"].startswith("duodenoise ")
        assert "0.05" in summary["deviation_probability"]

    @pytest.mark.parametrize("combiner", [
        {"type": "plain"}, {"type": "randomized", "nu": 0.75, "m": 8},
    ], ids=["plain", "randomized"])
    def test_json_output_holds_the_csv_rows(self, tmp_path, combiner):
        # one object per trial, whose keys are the CSV's header, in order
        path = tmp_path / "out.json"
        cfg = ExperimentConfig.from_json(spec_with(
            n=16, trials=5, combiner=combiner, output={"path": str(path), "format": "json"}))
        run_experiment(cfg)
        rows = json.loads(path.read_text())
        header, *lines = records_csv_text(run_trials(cfg)).splitlines()
        header = header.split(",")
        assert len(rows) == len(lines) == 5
        for row, line in zip(rows, lines):
            assert list(row) == header
            assert [str(value) for value in row.values()] == line.split(",")

    @pytest.mark.parametrize("combiner", [
        {"type": "plain"}, {"type": "randomized", "nu": 0.75, "m": 16},
    ], ids=["plain", "randomized"])
    def test_clean_file_of_zeros_equals_all_zeros(self, tmp_path, combiner):
        # neither source draws from the trial's "clean" stream
        path = tmp_path / "zeros.txt"
        path.write_text("0\n" * 32)
        texts = [records_csv_text(run_trials(ExperimentConfig.from_json(spec_with(
            n=32, trials=6, combiner=combiner, clean_source=source))))
            for source in ({"type": "all_zeros"}, {"type": "file", "path": str(path)})]
        assert texts[0] == texts[1]


def scalar_estimate(ch, h, lm, d, z) -> float:
    """The one-sequence estimate by its per-symbol form, independent of the
    batch path that estimate_loss runs."""
    return math.fsum(per_symbol_estimates(ch, h, lm, d, z)) / len(z)


def reference_rows(cfg: ExperimentConfig, trial: RngStream):
    """The trial's clean and noisy rows, each drawn from a fresh generator of
    its stream, not through ``rng.uniform_rows``, which the blocked path
    uses."""
    kind = cfg.clean_source["type"]
    if kind == "all_zeros":
        x = np.zeros(cfg.n, dtype=np.int64)
    elif kind == "iid_bernoulli":
        u = trial.derive("clean").generator().random(cfg.n)
        x = (u < cfg.clean_source["p"]).astype(np.int64)
    else:
        x = cfg.clean_file
    return x, outputs_from_uniforms(cfg.channel, x, trial.derive("channel").generator().random(cfg.n))


def reference_plain_trial(cfg: ExperimentConfig, t: int) -> dict:
    """The per-trial plain path the blocked one replaced: one-sequence
    sampling, denoising and estimation, and a fresh loss of the winner.
    Its losses and estimates are ``math.fsum`` means of per-position terms,
    so it shares no summation code with the blocked path."""
    trial = RngStream(cfg.master_seed).derive(f"trial/{t}")
    x, z = reference_rows(cfg, trial)
    o1, o2 = cfg.d1.denoise(z), cfg.d2.denoise(z)
    loss = lambda out: math.fsum(cfg.lm[x, out].tolist()) / cfg.n
    est1 = scalar_estimate(cfg.channel, cfg.h, cfg.lm, cfg.d1, z)
    est2 = scalar_estimate(cfg.channel, cfg.h, cfg.lm, cfg.d2, z)
    sel = select_min_estimate(est1, est2)
    if cfg.channel.output_size == 2:
        parity = int(z.sum() % 2)
    elif is_bec(cfg.channel):
        parity = int((z == 0).sum() % 2)
    else:
        parity = -1
    return dict(
        trial=t, seed=trial.stream_id, parity=parity,
        loss_d1=loss(o1), loss_d2=loss(o2), est_d1=est1, est_d2=est2,
        chosen=sel.chosen_index, loss_combined=loss(o1 if sel.chosen_index == 1 else o2),
    )


@st.composite
def plain_trial_cases(draw, kinds=("bsc", "bec", "dmc3"), max_n=24):
    """(plain config, trials per block): BSC, BEC with either h (or the h
    that ends the kind, as in "bec/min_norm"), a 3x3 DMC with a non-Hamming
    loss, or a 2x3 DMC with a matrix loss; every clean source; a denoiser
    pair that fits the channel; a trial count below, at, or past the block
    size."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_n))

    def single(m, k_out):
        k = draw(st.integers(0, 1))
        size = m ** (2 * k + 1)
        table = draw(st.lists(st.integers(0, k_out - 1), min_size=size, max_size=size))
        symbol = draw(st.integers(0, k_out - 1))
        return draw(st.sampled_from([
            IdentityDenoiser(k_out, m), ConstantDenoiser(symbol, k_out, m),
            SlidingWindowDenoiser(k, np.array(table), m, k_out)]))

    if kind == "bsc":
        ch = make_bsc(draw(st.floats(0.01, 0.49)))
        h, lm = compute_h(ch), hamming_loss(2)
        parity_pair = make_bsc_counterexample_pair(draw(st.sampled_from([0.2, 0.29, 0.49])))
    elif kind.startswith("bec"):
        ch = make_bec(draw(st.floats(0.01, 0.99)))
        makers = {"min_norm": compute_h, "canonical_erasure": canonical_erasure_h}
        choice = kind.partition("/")[2] or draw(st.sampled_from(sorted(makers)))
        h = makers[choice](ch)
        lm = loss_matrix([[0.0, 1.0], [2.5, 0.0]])
        parity_pair = (BecParityDenoiser(False), BecParityDenoiser(True))
    elif kind == "dmc23":
        ch = Channel([[0.7, 0.2, 0.1], [0.15, 0.25, 0.6]])
        h, lm = compute_h(ch), loss_matrix([[0.0, 2.0], [0.5, 0.0]])
        parity_pair = None
    else:
        rows = []
        for i in range(3):
            row = [draw(st.floats(0.0, 0.5)) for _ in range(3)]
            row[i] = draw(st.floats(2.0, 3.0))
            rows.append([v / sum(row) for v in row])
        ch = Channel(rows)
        h, lm = compute_h(ch), loss_matrix([[0.0, 1.0, 3.0], [0.5, 0.0, 2.0], [1.5, 1.0, 0.0]])
        parity_pair = None
    m, k_out = ch.output_size, ch.input_size
    if parity_pair is not None and draw(st.booleans()):
        d1, d2 = parity_pair
    else:
        d1, d2 = single(m, k_out), single(m, k_out)

    source = draw(st.sampled_from(["all_zeros", "iid_bernoulli", "file"]))
    clean_source, clean_file = {"type": source}, None
    if source == "iid_bernoulli":
        clean_source["p"] = draw(st.floats(0.0, 1.0))
    elif source == "file":
        clean_source["path"] = "clean.txt"
        clean_file = np.array(draw(st.lists(st.integers(0, k_out - 1), min_size=n, max_size=n)))
    block = draw(st.integers(1, 6))
    trials = draw(st.sampled_from([block - 1, block, 2 * block + 1, 3 * block]).filter(bool))
    cfg = ExperimentConfig(
        channel=ch, h=h, h_choice="given", lm=lm, n=n, clean_source=clean_source,
        clean_file=clean_file, d1=d1, d2=d2, smoothing=None, trials=trials, epsilons=(),
        master_seed=draw(st.integers(0, 2**63)), output_path=None, output_format="csv", raw={},
    )
    return cfg, block


@given(case=plain_trial_cases())
@settings(max_examples=200, deadline=None)
def test_blocked_plain_trials_equal_per_trial_path(case):
    cfg, block = case
    with mock.patch.object(denoisers, "BLOCK_BYTES", 8 * block * cfg.n):
        table = run_trials(cfg)
    expected = [reference_plain_trial(cfg, t) for t in range(cfg.trials)]
    assert table_rows(table) == expected
    assert records_csv_text(table) == records_csv_text(rows_table(expected))


@pytest.mark.parametrize("kind", ["bsc", "bec/canonical_erasure", "bec/min_norm", "dmc23"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_counted_plain_blocks_equal_per_trial_path(kind, data):
    # a BSC has 16 joint codes (x, z, t(0), t(1)), a BEC and a 2x3 DMC 48:
    # n up to 120 takes both sides of the rule that counts them
    cfg, block = data.draw(plain_trial_cases(kinds=(kind,), max_n=120))
    with mock.patch.object(denoisers, "BLOCK_BYTES", 8 * block * cfg.n):
        table = run_trials(cfg)
    assert table_rows(table) == [reference_plain_trial(cfg, t) for t in range(cfg.trials)]


@pytest.mark.parametrize("extra", [-1, 0, 3])
def test_blocks_at_the_real_budget_equal_per_trial_path(extra):
    n = 16
    block = denoisers.BLOCK_BYTES // (8 * n)
    cfg = ExperimentConfig.from_json({
        **PLAIN_SPEC, "n": n, "clean_source": {"type": "iid_bernoulli", "p": 0.3},
        "trials": block * (2 if extra > 0 else 1) + extra,
    })
    assert table_rows(run_trials(cfg)) == [reference_plain_trial(cfg, t)
                                           for t in range(cfg.trials)]


def test_plain_trials_never_build_a_generator(monkeypatch):
    # a block's clean rows and its channel rows are each one rng.uniform_rows draw
    def refuse(self):
        raise AssertionError("RngStream.generator called on the plain path")

    monkeypatch.setattr(RngStream, "generator", refuse)
    cfg = ExperimentConfig.from_json(spec_with(
        n=32, trials=7, clean_source={"type": "iid_bernoulli", "p": 0.3}))
    assert len(run_trials(cfg)["trial"]) == 7


def test_plain_run_builds_one_stream_per_block(monkeypatch):
    # the trial, clean and channel stream ids are hashed, not built as streams
    built = []
    init = RngStream.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RngStream, "__init__", counted)
    cfg = ExperimentConfig.from_json(spec_with(
        n=2048, trials=10, clean_source={"type": "iid_bernoulli", "p": 0.3}))
    assert len(blocks(cfg.trials, 8 * cfg.n)) == 3
    assert len(run_trials(cfg)["trial"]) == 10
    assert built == [(cfg.master_seed,)] * 3


def fixed_losses_and_estimates(monkeypatch, cfg, values):
    """Make each denoiser's block pass return its rows of ``values``, a dict
    from denoiser to (losses, estimates) over the run's trials."""
    def fake(ch, h, lm, d, xs, zs):
        return np.array(values[d], dtype=np.float64)[:, :len(zs)]

    monkeypatch.setattr(harness, "losses_and_estimates", fake)


def test_plain_selection_rejects_a_nan_estimate(monkeypatch):
    cfg = ExperimentConfig.from_json(spec_with(n=16, trials=4))
    for nan_in in (cfg.d1, cfg.d2):
        values = {d: ([0.1] * 4, [0.2] * 4) for d in (cfg.d1, cfg.d2)}
        values[nan_in][1][2] = math.nan
        fixed_losses_and_estimates(monkeypatch, cfg, values)
        with pytest.raises(ValueError, match="NaN"):
            run_trials(cfg)


def test_plain_selection_matches_select_min_estimate(monkeypatch):
    # equal estimates, signed zeros included, choose the first denoiser
    e1 = [0.25, 0.25, -0.0, 0.0, 0.1, 0.3, -0.5, 1e-300]
    e2 = [0.25, 0.3, 0.0, -0.0, 0.1 + 1e-15, 0.2, -0.5, 0.0]
    l1, l2 = [0.125 * k for k in range(8)], [0.5 + 0.0625 * k for k in range(8)]
    cfg = ExperimentConfig.from_json(spec_with(n=16, trials=8))
    fixed_losses_and_estimates(monkeypatch, cfg, {cfg.d1: (l1, e1), cfg.d2: (l2, e2)})
    table = run_trials(cfg)
    chosen = [select_min_estimate(a, b).chosen_index for a, b in zip(e1, e2)]
    assert chosen == [1, 1, 1, 1, 1, 2, 1, 2]
    assert table["chosen"] == chosen
    assert table["loss_combined"] == [(l1, l2)[c - 1][row] for row, c in enumerate(chosen)]


def test_randomized_records_match_a_rebuilt_combiner_call():
    # each row's combined loss and mask weight are those of one
    # randomized_combined_denoise call on the trial's "combiner" stream
    cfg = ExperimentConfig.from_json(spec_with(
        n=32, trials=10, clean_source={"type": "iid_bernoulli", "p": 0.3},
        combiner={"type": "randomized", "nu": 0.75, "m": 8}))
    for r in table_rows(run_trials(cfg)):
        trial = RngStream(cfg.master_seed, r["seed"])
        assert trial == RngStream(cfg.master_seed).derive(f"trial/{r['trial']}")
        x, z = reference_rows(cfg, trial)
        out, sel, mask = randomized_combined_denoise(
            cfg.d1, cfg.d2, cfg.channel, cfg.h, cfg.lm, cfg.smoothing, z,
            trial.derive("combiner"))
        assert r["chosen"] == sel.chosen_index
        assert r["loss_combined"] == cumulative_loss(cfg.lm, x, out)
        assert r["mask_weight"] == mask.sum()


def test_smoothed_loss_masks_are_independent_of_estimation_masks(monkeypatch):
    # the smoothed losses are judged on their own mask set: two independent
    # m = 1 sets at n = 16, q = 0.3 agree with probability 0.58^16 ~ 1.6e-4
    # per trial, a smoothed-loss set drawn from the estimation stream on
    # every trial
    drawn = {"estimation": [], "smoothed-loss": []}

    def spy(kind):
        def recorded(*args):
            masks, weights = mask_set(*args)
            drawn[kind].append(masks)
            return masks, weights
        return recorded

    monkeypatch.setenv("DUO_THREADS", "1")
    monkeypatch.setattr(combine, "mask_set", spy("estimation"))
    monkeypatch.setattr(harness, "mask_set", spy("smoothed-loss"))
    cfg = ExperimentConfig.from_json(spec_with(
        n=16, trials=200, combiner={"type": "randomized", "q": 0.3, "m": 1}))
    run_trials(cfg)
    assert len(drawn["estimation"]) == len(drawn["smoothed-loss"]) == 200
    equal = sum(map(np.array_equal, drawn["estimation"], drawn["smoothed-loss"]))
    assert equal <= 1


def toy_table():
    """The trial table of three toy plain trials."""
    mk = lambda t, l1, l2, ch, lc: dict(
        trial=t, seed=t, parity=0, loss_d1=l1, loss_d2=l2,
        est_d1=l1, est_d2=l2, chosen=ch, loss_combined=lc,
    )
    return rows_table([mk(0, 0.2, 0.4, 1, 0.2), mk(1, 0.4, 0.2, 2, 0.2),
                       mk(2, 0.3, 0.3, 1, 0.3)])


def toy_config(**overrides) -> ExperimentConfig:
    """The plain config that toy tables summarize under, with overrides."""
    return ExperimentConfig.from_json(spec_with(**overrides))


class TestAggregates:
    def test_regret_on_toy_records(self):
        regret = aggregate(toy_table(), toy_config())["regret"]
        # mean combined 0.7/3; the better baseline is either mean 0.3
        assert regret["value"] == pytest.approx(0.7 / 3 - 0.3, abs=1e-12)
        assert regret["se"] >= 0.0

    def test_regret_needs_records(self):
        with pytest.raises(ValueError, match="'loss_d1' has no rows"):
            aggregate({name: [] for name in toy_table()}, toy_config())

    def test_regret_of_one_record_has_no_error(self):
        table = rows_table([dict(trial=0, seed=0, parity=1, loss_d1=0.25, loss_d2=0.5,
                                 est_d1=0.5, est_d2=0.25, chosen=2, loss_combined=0.5)])
        assert aggregate(table, toy_config())["regret"] == {"value": 0.25, "se": 0.0}

    def test_deviation_probability_counts_threshold_crossings(self):
        recs = toy_table()
        # est == loss everywhere, so no deviations at any positive threshold
        agg = aggregate(recs, toy_config(epsilons=[0.01]))
        assert agg["deviation_probability"] == {"0.01": {"d1": [0.0, 0.0], "d2": [0.0, 0.0]}}
        # a gap of exactly eps counts
        edge = rows_table([{**table_rows(recs)[0], "est_d1": 0.5, "loss_d1": 0.25}])
        agg = aggregate(edge, toy_config(epsilons=[0.25]))
        assert agg["deviation_probability"] == {"0.25": {"d1": [1.0, 0.0], "d2": [0.0, 0.0]}}
        with pytest.raises(ConfigError, match="positive"):
            toy_config(epsilons=[0.0])

    def test_smoothed_deviation_requires_randomized_records(self):
        cfg = toy_config(combiner={"type": "randomized", "m": 8})
        with pytest.raises(ValueError, match="no 'sm_loss_d1' column for a randomized summary"):
            aggregate(toy_table(), cfg)

    @pytest.mark.parametrize("change, message", [
        (lambda t: t.pop("chosen"), "no 'chosen' column for a plain summary"),
        (lambda t: t.pop("loss_combined"), "no 'loss_combined' column"),
        (lambda t: t["seed"].pop(), "column 'seed' has 2 rows, 'loss_d1' has 3"),
        (lambda t: t["est_d2"].append(0.5), "column 'est_d2' has 4 rows, 'loss_d1' has 3"),
        (lambda t: [column.clear() for column in t.values()], "'loss_d1' has no rows"),
    ], ids=["no_chosen", "no_loss_combined", "short_seed", "long_est_d2", "no_rows"])
    def test_malformed_table_is_rejected_before_any_column_is_read(self, change, message):
        table = toy_table()
        change(table)

        class Unread(dict):
            def __getitem__(self, name):
                raise AssertionError(f"column {name!r} read before the table was checked")

        with pytest.raises(ValueError, match=message):
            aggregate(Unread(table), toy_config())

    @pytest.mark.parametrize("combiner", [{"type": "plain"}, {"type": "randomized", "m": 8}],
                             ids=["plain", "randomized"])
    def test_aggregate_reads_each_summarized_column_once(self, combiner):
        """One read of each column a summary uses, and none of trial, seed,
        parity or mask_weight."""
        cfg = toy_config(trials=5, epsilons=[0.01, 0.05], combiner=combiner)
        reads = Counter()

        class Counted(dict):
            def __getitem__(self, name):
                reads[name] += 1
                return super().__getitem__(name)

        table = run_trials(cfg)
        assert aggregate(Counted(table), cfg) == aggregate(table, cfg)
        names = ["loss_d1", "loss_d2", "loss_combined", "est_d1", "est_d2", "chosen"]
        if cfg.randomized:
            names += ["sm_loss_d1", "sm_loss_d2", "sm_est_d1", "sm_est_d2"]
        assert reads == Counter(names)

    def test_aggregate_shape(self):
        cfg = ExperimentConfig.from_json(spec_with(trials=6))
        agg = aggregate(run_trials(cfg), cfg)
        assert set(agg["means"]) >= {"loss_d1", "loss_d2", "loss_combined"}
        assert agg["combiner"] == "plain"
        assert 0.0 <= agg["chosen_2_fraction"] <= 1.0

    @pytest.mark.parametrize("combiner", [{"type": "plain"}, {"type": "randomized", "m": 8}],
                             ids=["plain", "randomized"])
    def test_aggregate_values_match_field_by_field(self, combiner):
        cfg = ExperimentConfig.from_json(spec_with(
            trials=12, epsilons=[0.01, 0.05], combiner=combiner))
        table = run_trials(cfg)
        agg = aggregate(table, cfg)
        records = table_rows(table)
        # every summary again, one trial's field at a time
        names = ["loss_d1", "loss_d2", "loss_combined", "est_d1", "est_d2"]
        if cfg.randomized:
            names += ["sm_loss_d1", "sm_loss_d2", "sm_est_d1", "sm_est_d2"]
        means = {}
        for name in names:
            arr = np.array([r[name] for r in records])
            means[name] = [float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))]
        assert list(agg["means"]) == names and agg["means"] == means
        assert agg["chosen_2_fraction"] == sum(r["chosen"] == 2 for r in records) / len(records)
        l1, l2, lc = (np.array([r[f] for r in records])
                      for f in ("loss_d1", "loss_d2", "loss_combined"))
        n = len(records)
        loo = lambda a: (a.sum() - a) / (n - 1)
        theta = loo(lc) - np.minimum(loo(l1), loo(l2))
        assert agg["regret"] == {
            "value": float(lc.mean() - min(l1.mean(), l2.mean())),
            "se": math.sqrt((n - 1) / n * ((theta - theta.mean()) ** 2).sum())}
        kind = "sm_" if cfg.randomized else ""
        for eps in cfg.epsilons:
            expected = {}
            for j in (1, 2):
                p = sum(abs(r[f"{kind}est_d{j}"] - r[f"{kind}loss_d{j}"]) >= eps
                        for r in records) / n
                expected[f"d{j}"] = [p, math.sqrt(p * (1.0 - p) / n)]
            assert agg["deviation_probability"][repr(eps)] == expected


# The oracles of one oracle_n14 benchmark pass: two warm-up passes, then
# print the minor faults of a third.
ORACLE_PASS_FAULTS = """
import resource
import numpy as np
from duodenoise import harness, verify
from duodenoise.denoisers import SmoothingConfig

cfg = harness.ExperimentConfig.from_json({
    "channel": {"type": "bsc", "delta": 0.25}, "n": 14, "trials": 1, "master_seed": 7,
    "denoisers": {"type": "pair", "second": {"type": "identity"},
                  "first": {"type": "sliding_window", "k": 1, "rule": "majority"}}})
gen = np.random.default_rng(7)
x, z = gen.integers(0, 2, 14), gen.integers(0, 2, 12)

def one_pass():
    for d in (cfg.d1, cfg.d2):
        harness.enumerate_expectation(
            cfg.channel, x, harness.estimate_functional(cfg.channel, cfg.h, cfg.lm, d))
        harness.enumerate_expectation(
            cfg.channel, x, harness.true_loss_functional(cfg.lm, d, x))
    verify.check_parity_counterexample(10)
    for q in (0.1, 0.25):
        harness.pointwise_influence(lambda rows: rows.sum(axis=1) % 2,
                                    SmoothingConfig(q=q, mode="exact"), z)

one_pass()
one_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
one_pass()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestEnumeration:
    def test_matches_direct_sum_tiny_case(self):
        ch = make_bsc(0.25)
        x = np.array([0, 1])
        # E[number of ones in Z] = P(z1=1) + P(z2=1) = 0.25 + 0.75
        got = enumerate_expectation(ch, x, lambda z: z.sum(axis=1))
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_state_space_cap(self):
        # 2^40 states are refused before any batch is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1099511627776 outputs exceeds the "
                                                 "enumeration limit"):
                enumerate_expectation(make_bsc(0.25), np.zeros(40, dtype=np.int64),
                                      lambda z: z.sum(axis=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("functional", [
        lambda z: z.sum(), lambda z: z.sum(axis=1)[:, None], lambda z: z.sum(axis=1)[:-1],
        lambda z: np.repeat(z.sum(axis=1)[:, None], 2, axis=1),
    ], ids=["scalar", "column", "short", "pair"])
    def test_functional_must_return_one_value_per_state(self, functional):
        # the oracle and both modes of pointwise influence share one check
        # of the (B, n) -> B contract
        z = np.zeros(4, dtype=np.int64)
        for call in (
            lambda: enumerate_expectation(make_bsc(0.25), z, functional),
            lambda: pointwise_influence(functional, SmoothingConfig(q=0.1, mode="exact"), z),
            lambda: pointwise_influence(functional, SmoothingConfig(q=0.1, m=8), z,
                                        RngStream(33)),
        ):
            with pytest.raises(ValueError, match="functional returned shape"):
                call()

    @pytest.mark.parametrize("zs, message", [
        ([0, 1, 1], r"\(B, n\) sequences"),
        ([[0, 2, 1]], r"outside \[0, 2\)"),
        ([[0, -1, 1]], r"outside \[0, 2\)"),
        ([[0.0, 1.0, 1.0]], "integer symbols"),
    ], ids=["one-sequence", "symbol-2", "symbol-minus-1", "floats"])
    def test_batch_functionals_reject_malformed_batches(self, zs, message):
        ch = make_bsc(0.2)
        lm = hamming_loss(2)
        for f in (estimate_functional(ch, compute_h(ch), lm, IdentityDenoiser()),
                  true_loss_functional(lm, IdentityDenoiser(), [0, 1, 0])):
            with pytest.raises(ValueError, match=message):
                f(np.array(zs))
        with pytest.raises(ValueError, match="length mismatch"):
            true_loss_functional(lm, IdentityDenoiser(), [0, 1, 0])(np.zeros((2, 4), int))

    def test_oracle_pass_takes_no_page_faults(self):
        """Chunk temporaries small enough for glibc to reuse: a warmed-up
        ``oracle_n14`` pass of the benchmark, in state chunks of
        ``BLOCK_BYTES`` (585 states at n = 14), has read 0 or 1 minor faults.
        The count depends on the heap layout that earlier allocations leave,
        not on the pass alone: with ``M_TRIM_THRESHOLD`` fixed at 128 KiB and
        ``M_MMAP_THRESHOLD`` at 1 MiB, one pass has read anywhere from 193 to
        2,641 faults, moved only by the size of a buffer allocated before it
        or by edits to library code that the pass never runs.  A fresh
        interpreter, because earlier large frees of this process raise
        glibc's trim and mmap thresholds and hide the faults."""
        pytest.importorskip("resource")
        proc = subprocess.run([sys.executable, "-c", ORACLE_PASS_FAULTS], env={
            **os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 200

    def test_chunks_cover_the_support_only(self):
        # a BEC output is never the flipped symbol: 2^11 states instead of 3^11,
        # in chunks of BLOCK_BYTES of int64 states but for a shorter last one
        sizes = []

        def count(z):
            sizes.append(len(z))
            return np.ones(len(z))

        x = np.arange(11) % 2
        assert enumerate_expectation(make_bec(0.3), x, count) == pytest.approx(1.0)
        assert sum(sizes) == 2**11
        size = denoisers.BLOCK_BYTES // (8 * 11)
        assert all(s == size for s in sizes[:-1])
        assert 0 < sizes[-1] <= size

    def test_chunks_whose_weights_all_underflow_are_skipped(self, monkeypatch):
        # weights 1, 1e-200 and 1e-400 -> 0.0: in chunks of two states the
        # last chunk (1, 1, 0) and (1, 1, 1) has no state of positive weight
        tiny = 1e-200
        ch = Channel([[1.0 - tiny, tiny], [tiny, 1.0 - tiny]])
        monkeypatch.setattr(denoisers, "BLOCK_BYTES", 8 * 3 * 2)
        calls = []

        def ones(z):
            calls.append(z.tolist())
            return z.sum(axis=1)

        assert enumerate_expectation(ch, [0, 0, 0], ones) == pytest.approx(3 * tiny, rel=1e-15)
        assert calls == [[[0, 0, 0], [0, 0, 1]], [[0, 1, 0]], [[1, 0, 0]]]

    def test_the_trailing_digit_table_is_built_once_per_key(self, monkeypatch):
        """Repeated expectations read one cached, read-only trailing-digit
        table; a smaller BLOCK_BYTES shortens the period, which gets a table
        of its own, and the total keeps its bits either way."""
        ch, x = make_bsc(0.25), np.arange(13) % 2
        built = harness._trailing_digits
        tables = []
        monkeypatch.setattr(harness, "_trailing_digits",
                            lambda *key: tables.append(built(*key)) or tables[-1])
        built.cache_clear()
        totals = [enumerate_expectation(ch, x, lambda z: z.sum(axis=1)) for _ in range(3)]
        monkeypatch.setattr(denoisers, "BLOCK_BYTES", 8 * 13 * 40)
        totals += [enumerate_expectation(ch, x, lambda z: z.sum(axis=1)) for _ in range(2)]
        assert totals == [pytest.approx(7 * 0.25 + 6 * 0.75, rel=1e-14)] * 5
        assert len(set(totals)) == 1
        assert built.cache_info().misses == 2
        assert all(a is tables[0][0] for a, _ in tables[:3])
        assert all(a is tables[3][0] for a, _ in tables[3:])
        assert len(tables[3][0]) < len(tables[0][0])
        for states, factors in tables:
            assert not states.flags.writeable and not factors.flags.writeable

    def test_whole_sequence_smoothed_unbiasedness(self):
        """E_Z of the smoothed estimate equals E_Z of the smoothed loss over
        the whole sequence, for one fixed Monte Carlo mask set."""
        ch = make_bsc(0.2)
        h = compute_h(ch)
        lm = hamming_loss(2)
        x = np.array([1, 0, 0] * 4)
        drawn = mask_set(SmoothingConfig(q=0.1, m=8), 12, RngStream(3))
        for d in make_bsc_counterexample_pair(0.2):
            e_est = enumerate_expectation(ch, x, lambda zs: np.array(
                [estimate_smoothed_loss(ch, h, lm, d, drawn, z) for z in zs]))
            e_loss = enumerate_expectation(ch, x, lambda zs: np.array(
                [smoothed_conditional_loss(lm, d, drawn, x, z) for z in zs]))
            assert abs(e_est - e_loss) <= 1e-10


def reference_expectation(ch, x, functional):
    """The scalar oracle the batched one replaced: one functional call on
    each int64 sequence of every state of M^n with positive weight."""
    xs = np.asarray(x, dtype=np.int64)
    n, m = len(xs), ch.output_size
    rows = ch.pi[xs]
    total = []
    z = np.zeros(n, dtype=np.int64)
    while True:
        weight = float(rows[np.arange(n), z].prod())
        if weight > 0.0:
            total.append(weight * float(functional(z)))
        for pos in range(n - 1, -1, -1):
            z[pos] += 1
            if z[pos] < m:
                break
            z[pos] = 0
        else:
            return math.fsum(total)


def reference_enumerate(ch, x, functional):
    """The decoder the trailing-digit table replaced: each chunk decodes
    every state index digit by digit, the last position fastest, and
    gathers its factors from pi; the chunks, the underflow filter and the
    one fsum are enumerate_expectation's."""
    xs = np.asarray(x, dtype=np.int64)
    rows = ch.pi[xs]
    support = [np.flatnonzero(row) for row in rows]

    def chunk(part):
        index = np.arange(part.start, part.stop)
        z = np.empty((len(index), len(xs)), dtype=np.int64)
        for pos in range(len(xs) - 1, -1, -1):
            index, digit = np.divmod(index, len(support[pos]))
            z[:, pos] = support[pos][digit]
        weights = rows[np.arange(len(xs)), z].prod(axis=1)
        z, weights = z[weights > 0.0], weights[weights > 0.0]
        if not len(z):
            return []
        return (weights * functional_values(functional(z), len(z))).tolist()

    states = math.prod(len(s) for s in support)
    return math.fsum(itertools.chain.from_iterable(map(chunk, blocks(states, 8 * len(xs)))))


# A BSC, a BEC, and a DMC with a noiseless row, zero entries and an entry
# whose square underflows to 0.0
DECODER_CHANNELS = {
    "bsc": make_bsc(0.3),
    "bec": make_bec(0.4),
    "dmc": Channel([[1.0, 0.0, 0.0], [1e-200, 0.5, 0.5], [0.0, 0.4, 0.6]]),
}


@pytest.mark.parametrize("per_chunk", [1, 3, 7, None, 10**7],
                         ids=["one", "three", "seven", "block_bytes", "all"])
@pytest.mark.parametrize("kind", sorted(DECODER_CHANNELS))
def test_table_decoder_equals_divmod_decoder(monkeypatch, kind, per_chunk):
    """The same chunks of the same states, and the bits of the same total,
    for chunks that straddle the table's period and for one chunk of all
    states (per_chunk None keeps ``BLOCK_BYTES``)."""
    ch = DECODER_CHANNELS[kind]
    gen = np.random.default_rng(len(kind))
    for n in range(1, 13):
        x = gen.integers(0, ch.input_size, n)
        if per_chunk is not None:
            monkeypatch.setattr(denoisers, "BLOCK_BYTES", 8 * n * per_chunk)
        calls = {"table": [], "divmod": []}

        def recording(seen):
            def functional(z):
                assert z.dtype == np.int64 and z.flags.c_contiguous
                seen.append(z.copy())
                return np.sin(z @ np.linspace(0.3, 1.7, n)) + z.sum(axis=1)
            return functional

        got = enumerate_expectation(ch, x, recording(calls["table"]))
        want = reference_enumerate(ch, x, recording(calls["divmod"]))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert len(calls["table"]) == len(calls["divmod"])
        for a, b in zip(calls["table"], calls["divmod"]):
            np.testing.assert_array_equal(a, b)


@st.composite
def oracle_cases(draw):
    """(channel, h, loss, denoiser, x): BSC, BEC or a 3x3 DMC with zero
    entries, and each denoiser type that fits the channel's alphabets."""
    kind = draw(st.sampled_from(["bsc", "bec", "dmc3"]))
    n = draw(st.integers(1, 8))

    def window(m, k_out):
        k = draw(st.integers(0, 1))
        size = m ** (2 * k + 1)
        table = draw(st.lists(st.integers(0, k_out - 1), min_size=size, max_size=size))
        return SlidingWindowDenoiser(k, np.array(table), m, k_out)

    if kind == "bsc":
        ch = make_bsc(draw(st.floats(0.01, 0.49)))
        h, lm = compute_h(ch), hamming_loss(2)
        d = draw(st.sampled_from([
            IdentityDenoiser(), ConstantDenoiser(1), window(2, 2), ParityCopyDenoiser(),
            ParityMarkedZerosDenoiser(draw(st.sampled_from([0.2, 0.29, 0.49])))]))
    elif kind == "bec":
        ch = make_bec(draw(st.floats(0.01, 0.99)))
        h = draw(st.sampled_from([compute_h(ch), canonical_erasure_h(ch)]))
        lm = loss_matrix([[0.0, 1.0], [2.5, 0.0]])
        d = draw(st.sampled_from([
            IdentityDenoiser(2, 3), ConstantDenoiser(0, 2, 3), window(3, 2),
            BecParityDenoiser(False), BecParityDenoiser(True)]))
    else:
        # diagonally dominant rows, so pi is invertible; one zero per row
        rows = []
        for i in range(3):
            row = [draw(st.floats(0.0, 0.5)) for _ in range(3)]
            row[i] = draw(st.floats(2.0, 3.0))
            row[(i + 1 + draw(st.integers(0, 1))) % 3] = 0.0
            rows.append([v / sum(row) for v in row])
        ch = Channel(rows)
        h, lm = compute_h(ch), hamming_loss(3)
        d = draw(st.sampled_from([
            IdentityDenoiser(3), ConstantDenoiser(2, 3), window(3, 3)]))
    x = np.array(draw(st.lists(st.integers(0, ch.input_size - 1), min_size=n, max_size=n)))
    return ch, h, lm, d, x


@given(case=oracle_cases())
@settings(max_examples=150, deadline=None)
def test_batched_oracle_equals_scalar_oracle(case):
    """Same states in the same order, each row equal to its one-sequence
    value, and a total equal to the scalar oracle's."""
    ch, h, lm, d, x = case
    for scalar, batch in (
        (lambda z: scalar_estimate(ch, h, lm, d, z), estimate_functional(ch, h, lm, d)),
        (lambda z: cumulative_loss(lm, x, d.denoise(z)), true_loss_functional(lm, d, x)),
    ):
        values = {}

        def record(z):
            values[z.tobytes()] = value = scalar(z)
            return value

        expected = reference_expectation(ch, x, record)
        seen = []

        def checked(zs):
            assert zs.dtype == np.int64 and zs.shape[1] == len(x)
            got = batch(zs)
            seen.extend(z.tobytes() for z in zs)
            assert got.tolist() == [values[z.tobytes()] for z in zs]
            return got

        assert enumerate_expectation(ch, x, checked) == expected
        assert seen == list(values)


def parity_functional(rows):
    return np.atleast_2d(np.asarray(rows)).sum(axis=1) % 2


def sine_functional(rows):
    """A functional that is not a function of parity alone."""
    return np.sin(rows @ np.linspace(0.3, 1.7, rows.shape[1])) + parity_functional(rows)


def reference_pointwise_influence(f, cfg, z, rng=None):
    """The former two-branch body of ``pointwise_influence``: exact mode
    evaluates z and its n flips against all 2^n masks in calls of at most
    10^7 entries; Monte Carlo mode evaluates 64 flips against every mask
    per call."""
    zs = np.asarray(z, dtype=np.int64)
    n = len(zs)
    masks, weights = mask_set(cfg, n, rng)
    if cfg.mode == "exact":
        rows = np.tile(zs, (n + 1, 1))
        rows[np.arange(1, n + 1), np.arange(n)] ^= 1
        per_call = max(1, ENUMERATION_LIMIT // masks.size)
        chunks = (rows[start:start + per_call] for start in range(0, n + 1, per_call))
        fbar = np.concatenate([
            np.asarray(f((chunk[:, None, :] ^ masks).reshape(-1, n)),
                       dtype=np.float64).reshape(len(chunk), -1) @ weights
            for chunk in chunks])
        return float(np.abs(fbar[0] - fbar[1:]).sum()), 0.0

    m = masks.shape[0]
    base = np.asarray(f(zs[None, :] ^ masks), dtype=np.float64)
    value_terms, se_terms = [], []
    for start in range(0, n, 64):
        js = np.arange(start, min(start + 64, n))
        flipped = np.repeat((zs[None, :] ^ masks)[None, :, :], len(js), axis=0)
        flipped[np.arange(len(js)), :, js] ^= 1
        vals = np.asarray(f(flipped.reshape(-1, n)), dtype=np.float64)
        diffs = base[None, :] - vals.reshape(len(js), m)
        value_terms.append(np.abs(diffs.mean(axis=1)).sum())
        se_terms.append((diffs.std(axis=1, ddof=1) / math.sqrt(m)).sum())
    return float(math.fsum(value_terms)), float(math.fsum(se_terms))


# (config, n) of the influence calls checked against the former body
INFLUENCE_CASES = (
    (SmoothingConfig(q=0.2, mode="exact"), 1),
    (SmoothingConfig(q=0.1, mode="exact"), 5),
    (SmoothingConfig(q=0.3, mode="exact"), 9),
    (SmoothingConfig(q=0.05, mode="exact"), 12),
    (SmoothingConfig(q=0.3, m=16), 1),
    (SmoothingConfig(q=0.1, m=13), 7),
    (SmoothingConfig(nu=0.5, m=40), 97),
    (SmoothingConfig(q=0.02, m=64), 300),
)

# mask chunk sizes in entries, as a function of n
CHUNKS = {"one_entry": lambda n: 1, "one_row": lambda n: n, "short_last": lambda n: 3 * n}


class TestInfluence:
    def test_pointwise_exact_parity_closed_form(self):
        for n in (4, 9):
            for q in (0.0, 0.1, 0.25):
                cfg = SmoothingConfig(q=q, mode="exact")
                value, se = pointwise_influence(
                    parity_functional, cfg, np.zeros(n, dtype=np.int64)
                )
                assert se == 0.0
                assert value == pytest.approx(n * (1 - 2 * q) ** n, abs=1e-12)

    def test_pointwise_exact_calls_stay_within_the_limit(self):
        # both modes walk the mask set in mask chunks: exact mode once, for
        # z, and Monte Carlo mode for z and again for each flip
        for cfg, n in ((SmoothingConfig(q=0.1, mode="exact"), 16),
                       (SmoothingConfig(q=0.1, m=128), 256)):
            sizes = []

            def recording(rows):
                sizes.append(rows.size)
                return parity_functional(rows)

            value, _ = pointwise_influence(recording, cfg, np.zeros(n, dtype=np.int64),
                                           RngStream(32))
            m = 2**n if cfg.mode == "exact" else cfg.m
            assert max(sizes) <= max(denoisers.BLOCK_BYTES, n)     # bool masks
            assert sum(sizes) == (1 if cfg.mode == "exact" else n + 1) * m * n
            if cfg.mode == "exact":
                assert value == pytest.approx(n * (1 - 2 * cfg.q) ** n, abs=1e-12)

    @pytest.mark.parametrize("f", [
        parity_functional,
        sine_functional,
        estimate_functional(make_bsc(0.2), compute_h(make_bsc(0.2)), hamming_loss(2),
                            make_sliding_window(1, "majority")),
        estimate_functional(make_bsc(0.2), compute_h(make_bsc(0.2)), hamming_loss(2),
                            ParityMarkedZerosDenoiser(0.2)),
    ], ids=["parity", "sine", "majority_estimate", "marked_zeros_estimate"])
    def test_pointwise_exact_equals_a_walk_per_flip(self, f):
        """The one walk of exact mode gives the bits of walking the masks
        again for each flipped sequence."""
        for n, q in itertools.product((1, 5, 12), (0.0, 0.1, 0.25)):
            cfg = SmoothingConfig(q=q, mode="exact")
            z = (RngStream(n).generator().random(n) < 0.5).astype(np.int64)
            masks, weights = mask_set(cfg, n, None)
            base = masked_values(f, masks, z)
            flipped = np.tile(z, (n, 1))
            flipped[np.arange(n), np.arange(n)] ^= 1
            want = math.fsum(abs((base - masked_values(f, masks, row)) @ weights)
                             for row in flipped)
            assert pointwise_influence(f, cfg, z) == (want, 0.0)

    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    def test_pointwise_exact_chunks_keep_values(self, chunk, monkeypatch):
        """Value and SE within 1e-12 relative of the former body, in both
        modes, at mask chunks that leave several calls per sequence.  The
        former exact body subtracts two smoothed values of size up to 2, so
        each of its n terms may be a few ulps of 2 off: where the terms
        nearly cancel (parity at q = 0.3), n * 1e-14 absolute is allowed."""
        for (cfg, n), f in itertools.product(INFLUENCE_CASES,
                                             (parity_functional, sine_functional)):
            z = (RngStream(n).generator().random(n) < 0.5).astype(np.int64)
            expected = reference_pointwise_influence(f, cfg, z, RngStream(35))
            with monkeypatch.context() as patch:
                patch.setattr(denoisers, "BLOCK_BYTES", chunk(n))
                got = pointwise_influence(f, cfg, z, RngStream(35))
            assert got == pytest.approx(expected, rel=1e-12, abs=n * 1e-14)

    def test_pointwise_monte_carlo_memory_peak(self):
        # chunk-sized calls: about 1.6 MB, against 136 MB for 64 flips
        # against every mask per call
        cfg = SmoothingConfig(nu=0.75, m=128)
        z = np.zeros(1024, dtype=np.int64)
        tracemalloc.start()
        try:
            pointwise_influence(parity_functional, cfg, z, RngStream(36))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000

    def test_pointwise_monte_carlo_needs_stream(self):
        cfg = SmoothingConfig(q=0.1)
        with pytest.raises(ValueError, match="RngStream"):
            pointwise_influence(parity_functional, cfg, np.zeros(50, dtype=np.int64))

    def test_pointwise_monte_carlo_runs(self):
        cfg = SmoothingConfig(q=0.02, m=64)
        value, se = pointwise_influence(
            parity_functional, cfg, np.zeros(48, dtype=np.int64), RngStream(31)
        )
        truth = 48 * (1 - 2 * 0.02) ** 48
        assert abs(value - truth) <= 3 * se
