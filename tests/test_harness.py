"""Experiment configs, trial running, aggregation, and influence tools."""

from __future__ import annotations

import concurrent.futures
import copy
import gc
import itertools
import json
import math
import os
import pickle
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
    channel_from_json,
    compute_h,
    h_from_choice,
    make_bec,
    make_bsc,
)
from duodenoise.combine import randomized_combined_denoise, select_min_estimate
from duodenoise.denoisers import (
    BecParityDenoiser,
    ConstantDenoiser,
    IdentityDenoiser,
    ParityCopyDenoiser,
    ParityMarkedZerosDenoiser,
    SlidingWindowDenoiser,
    SmoothingConfig,
    blocks,
    make_bsc_counterexample_pair,
    make_sliding_window,
    mask_set,
)
from duodenoise.harness import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    clean_source_from_spec,
    denoiser_from_spec,
    denoiser_pair_from_spec,
    enumerate_expectation,
    estimate_functional,
    pointwise_influence,
    run_experiment,
    run_trials,
    smoothing_from_spec,
    true_loss_functional,
)
from duodenoise.losses import (
    cumulative_loss,
    estimate_smoothed_loss,
    hamming_loss,
    loss_from_json,
    loss_matrix,
    smoothed_conditional_loss,
)
from duodenoise.rng import RngStream
from duodenoise.spec import read
from reference import (
    parity_functional,
    records_csv_text,
    reference_denoise,
    reference_estimate_losses,
    reference_expectation,
    reference_plain_trial,
    reference_pointwise_influence,
    reference_randomized_trial,
    reference_rows,
    sine_functional,
)

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

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_master_seed_in_range_accepted(self, seed):
        assert ExperimentConfig.from_json(spec_with(master_seed=seed)).master_seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**70 + 3])
    def test_master_seed_outside_range_rejected(self, seed):
        # a stream keys on the seed modulo 2^64: -1 would run 2^64 - 1's trials
        with pytest.raises(ConfigError, match=rf"^config.master_seed: a seed must lie in "
                                              rf"\[0, 2\^64\), got {seed}$"):
            ExperimentConfig.from_json(spec_with(master_seed=seed))

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

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
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
        assert path.read_bytes() == records_csv_text(run_trials(cfg)).encode()
        assert summary["trials"] == 5 and summary["version"].startswith("duodenoise ")
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


EXPERIMENT_FIELDS = ("channel", "h", "h_choice", "lm", "n", "clean_source", "clean_file", "d1",
                     "d2", "smoothing", "trials", "epsilons", "master_seed", "output_path",
                     "output_format", "raw")


def test_experiment_config_is_immutable():
    cfg = ExperimentConfig.from_json(spec_with(n=8, trials=2))
    for field in EXPERIMENT_FIELDS:
        with pytest.raises(AttributeError):
            setattr(cfg, field, None)
    assert cfg.trials == 2 and cfg.raw == spec_with(n=8, trials=2)


COMBINERS = [{"type": "plain"}, {"type": "randomized", "m": 8}]


@pytest.mark.parametrize("combiner", COMBINERS)
def test_experiment_config_built_by_keyword_runs_the_same_trials(combiner):
    cfg = ExperimentConfig.from_json(spec_with(n=32, trials=5, combiner=combiner))
    built = ExperimentConfig(**{field: getattr(cfg, field) for field in EXPERIMENT_FIELDS})
    assert [getattr(built, field) for field in EXPERIMENT_FIELDS] == [
        getattr(cfg, field) for field in EXPERIMENT_FIELDS]
    assert built.randomized == cfg.randomized
    assert records_csv_text(run_trials(built)) == records_csv_text(run_trials(cfg))


ROUND_TRIPS = [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy]


def assert_read_only_arrays(cfg):
    arrays = [cfg.h, cfg.lm] + ([] if cfg.clean_file is None else [cfg.clean_file])
    assert [a.flags.writeable for a in arrays] == [False] * len(arrays)


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
@pytest.mark.parametrize("combiner", COMBINERS)
def test_experiment_config_round_trips_run_the_same_trials(combiner, round_trip):
    cfg = ExperimentConfig.from_json(spec_with(
        n=32, trials=5, combiner=combiner, clean_source={"type": "iid_bernoulli", "p": 0.3}))
    twin = round_trip(cfg)
    assert type(twin) is ExperimentConfig and twin.raw == cfg.raw
    assert_read_only_arrays(twin)
    assert records_csv_text(run_trials(twin)) == records_csv_text(run_trials(cfg))
    with pytest.raises(AttributeError):
        twin.trials = 1


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
@pytest.mark.parametrize("combiner", COMBINERS)
def test_file_sourced_config_round_trips_run_the_same_trials(tmp_path, combiner, round_trip):
    path = tmp_path / "clean.txt"
    path.write_text("0 1 1 0\n" * 8)
    cfg = ExperimentConfig.from_json(spec_with(
        n=32, trials=5, combiner=combiner, clean_source={"type": "file", "path": str(path)}))
    twin = round_trip(cfg)
    # the parsed clean file is read-only, and so is each rebuilt array
    assert_read_only_arrays(cfg)
    assert_read_only_arrays(twin)
    np.testing.assert_array_equal(twin.clean_file, cfg.clean_file)
    assert records_csv_text(run_trials(twin)) == records_csv_text(run_trials(cfg))


def test_constructor_freezes_copies_of_arrays_its_caller_holds():
    cfg = ExperimentConfig.from_json(spec_with(n=4, trials=2))
    h, lm, clean = np.array(cfg.h), np.array(cfg.lm), np.array([0, 1, 1, 0])
    fields = {field: getattr(cfg, field) for field in EXPERIMENT_FIELDS}
    built = ExperimentConfig(**{**fields, "h": h, "lm": lm, "clean_file": clean,
                                "clean_source": {"type": "file", "path": "clean.txt"}})
    assert h.flags.writeable and lm.flags.writeable and clean.flags.writeable
    assert_read_only_arrays(built)
    h[:], lm[:], clean[:] = 0.0, 0.0, 1
    np.testing.assert_array_equal(built.h, cfg.h)
    np.testing.assert_array_equal(built.lm, cfg.lm)
    assert built.clean_file.tolist() == [0, 1, 1, 0]
    with pytest.raises(ConfigError, match=r"^config\.clean_source: clean file length 3 "
                                          r"does not match n = 4$"):
        ExperimentConfig(**{**fields, "clean_file": clean[:3],
                            "clean_source": {"type": "file", "path": "clean.txt"}})


def constructor_arguments(spec: dict) -> dict:
    """The arguments of ``ExperimentConfig`` for a spec, each read by the
    parser of its part and none checked against another."""
    channel = channel_from_json(spec["channel"])
    source, clean_file = clean_source_from_spec(spec.get("clean_source", {"type": "all_zeros"}))
    d1, d2 = denoiser_pair_from_spec(spec["denoisers"], channel)
    h_choice, h = h_from_choice(channel, spec.get("h"))
    output = read(spec.get("output", {}), "output", {},
                  {"path": (str, None), "format": (str, "csv")})
    return dict(
        channel=channel, h=h, h_choice=h_choice, n=spec["n"],
        lm=loss_from_json(spec.get("loss", {"type": "hamming"}), channel.input_size),
        clean_source=source, clean_file=clean_file, d1=d1, d2=d2,
        smoothing=smoothing_from_spec(spec.get("combiner", {"type": "plain"})),
        trials=spec["trials"], epsilons=spec.get("epsilons", []),
        master_seed=spec["master_seed"], output_path=output["path"],
        output_format=output["format"], raw=spec)


BEC = {"type": "bec", "epsilon": 0.5}
DMC3 = {"type": "dmc", "pi": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]}
DMC3_PAIR = {"type": "pair", "first": {"type": "identity"}, "second": {"type": "constant"}}
RANDOMIZED = {"type": "randomized", "nu": 0.75, "mode": "monte_carlo", "m": 8}


# the defects of test_spec.py's rejected list that no part's parser sees, a
# seed and a mask count out of range, and the rules that only the parsers
# stated before the constructor took them: a Bernoulli p, a clean file's
# symbols and the output's path and format
@pytest.mark.parametrize("defect", [
    dict(combiner=RANDOMIZED, channel=BEC, denoisers={"type": "bec_parity_pair"}),
    dict(combiner=RANDOMIZED, channel=DMC3, denoisers=DMC3_PAIR),
    dict(n=21, combiner={"type": "randomized", "nu": 0.75, "mode": "exact"}),
    dict(n=10**12),
    dict(n=3333334, channel=BEC, denoisers={"type": "bec_parity_pair"}),
    dict(loss={"type": "matrix", "lambda": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}),
    dict(channel=DMC3, loss={"type": "matrix", "lambda": [[0, 1], [1, 0]]}, denoisers=DMC3_PAIR),
    dict(n=0),
    dict(trials=0),
    dict(epsilons=[0.0]),
    dict(epsilons=[0.05, 0.01, 0.05]),
    dict(combiner={"type": "randomized", "nu": 0.2}),
    dict(n=2, combiner={"type": "randomized"}),
    dict(n=1, combiner={"type": "randomized", "mode": "exact"}),
    dict(n=8, loss={"type": "matrix", "lambda": [[0, 1e308], [1e308, 0]]}),
    dict(n=8, combiner=RANDOMIZED, loss={"type": "matrix", "lambda": [[1e307, 1e307]] * 2}),
    dict(master_seed=2**64),
    dict(n=4096, combiner={**RANDOMIZED, "m": 2442}),
    dict(clean_source={"type": "iid_bernoulli", "p": 1.5}),
    dict(clean_source={"type": "iid_bernoulli", "p": -0.5}),
    dict(clean_source={"type": "file", "path": "fives.txt"}),
    dict(clean_source={"type": "file", "path": "empty.txt"}),
    dict(output={"format": "xml"}),
    dict(output={"path": ""}),
    dict(output={"path": "no-such-directory/trials.csv"}),
    dict(output={"path": "."}),
])
def test_constructor_rejects_what_from_json_rejects(tmp_path, monkeypatch, defect):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fives.txt").write_text("0 5 " * 6)
    (tmp_path / "empty.txt").write_text("\n")
    spec = {**spec_with(n=12, trials=2, epsilons=[0.05, 0.1], master_seed=1), **defect}
    with pytest.raises(ConfigError) as parsed:
        ExperimentConfig.from_json(spec)
    with pytest.raises(ConfigError) as built:
        ExperimentConfig(**constructor_arguments(spec))
    assert str(built.value) == str(parsed.value)


SYMBOL_5 = r"^config\.clean_source\.path: clean file has symbols outside \[0, 2\): range \[0, 5\]$"
EPSILONS = r"^config\.epsilons: deviation thresholds must be positive and finite$"


# direct calls whose defect no spec can spell, or one that only a part's
# parser caught before the constructor checked it; each ran, or failed
# mid-run, when the constructor did not check it
@pytest.mark.parametrize("change, message", [
    (lambda f: {"h": 2 * f["h"]}, r"^config\.h: h fails pi @ h\.T = I by 1 \(> 1e-09\)$"),
    (lambda f: {"h": np.hstack([f["h"], np.zeros((2, 1))])},
     r"^config\.h: h has shape \(2, 3\); the channel needs \(2, 2\)$"),
    (lambda f: {"lm": np.ones((3, 3))},
     r"^config\.loss: loss matrix has shape \(3, 3\); the channel needs \(2, 2\)$"),
    (lambda f: {"d2": BecParityDenoiser(False)},
     r"^config\.denoisers: denoiser maps 3 noisy to 2 clean symbols; "
     r"the channel has 2 noisy and 2 clean$"),
    (lambda f: {"clean_source": {"type": "file", "path": "clean.txt"},
                "clean_file": np.array([0, 5, 1, 0] * 3)}, SYMBOL_5),
    (lambda f: {"clean_source": {"type": "iid_bernoulli"}},
     r"^config\.clean_source: Bernoulli parameter must lie in \[0, 1\], got None$"),
    (lambda f: {"clean_source": {"type": "iid_bernoulli", "p": 1.5}},
     r"^config\.clean_source: Bernoulli parameter must lie in \[0, 1\], got 1\.5$"),
    (lambda f: {"clean_source": {"type": "file", "path": "clean.txt"}},
     r"^config\.clean_source: source type 'file' needs a clean file$"),
    (lambda f: {"clean_file": np.zeros(12, np.int64)},
     r"^config\.clean_source: source type 'all_zeros' takes no clean file$"),
    (lambda f: {"clean_source": {"type": "markov"}},
     r"^config\.clean_source: unknown clean source: 'markov'$"),
    (lambda f: {"output_format": "xml"}, r"^config\.output: unknown output format: 'xml'$"),
    (lambda f: {"output_path": "."}, r"^config\.output\.path: '\.' is a directory, not a file$"),
    (lambda f: {"epsilons": (0.05, math.nan)}, EPSILONS),
    (lambda f: {"epsilons": (math.inf,)}, EPSILONS),
    (lambda f: {"epsilons": (-math.inf,)}, EPSILONS),
])
def test_constructor_rejects_what_no_parser_sees(change, message):
    cfg = ExperimentConfig.from_json(spec_with(n=12, trials=2))
    fields = {field: getattr(cfg, field) for field in EXPERIMENT_FIELDS}
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{**fields, **change(fields)})


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


@pytest.mark.parametrize("denoisers", [
    {"type": "bsc_counterexample_pair", "delta": 0.2},
    {"type": "pair", "first": {"type": "sliding_window", "k": 1, "rule": "majority"},
     "second": {"type": "identity"}},
], ids=["parity_pair", "window_pair"])
def test_randomized_records_match_the_reference_trial(denoisers):
    cfg = ExperimentConfig.from_json(spec_with(
        n=32, trials=12, denoisers=denoisers, clean_source={"type": "iid_bernoulli", "p": 0.3},
        combiner={"type": "randomized", "nu": 0.75, "m": 8}))
    for r in table_rows(run_trials(cfg)):
        expected = reference_randomized_trial(cfg, r["trial"])
        assert (r["chosen"], r["mask_weight"]) == (expected["chosen"], expected["mask_weight"])
        for name in ("loss_combined", "sm_loss_d1", "sm_loss_d2", "sm_est_d1", "sm_est_d2"):
            assert r[name] == pytest.approx(expected[name], rel=0, abs=1e-12), name


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
        want = reference_expectation(ch, x, recording(calls["divmod"]), denoisers.BLOCK_BYTES)
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
        (lambda z: reference_estimate_losses(ch, h, lm, d, z[None])[0],
         estimate_functional(ch, h, lm, d)),
        (lambda z: math.fsum(lm[x, reference_denoise(d, z)].tolist()) / len(z),
         true_loss_functional(lm, d, x)),
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


# (config, n) of the influence calls checked against the reference
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
        """The one walk of exact mode gives the bits of the reference's walk
        of the masks for each flipped sequence."""
        for n, q in itertools.product((1, 5, 12), (0.0, 0.1, 0.25)):
            cfg = SmoothingConfig(q=q, mode="exact")
            z = (RngStream(n).generator().random(n) < 0.5).astype(np.int64)
            assert pointwise_influence(f, cfg, z) == reference_pointwise_influence(f, cfg, z)

    @pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
    def test_pointwise_exact_chunks_keep_values(self, chunk, monkeypatch):
        """Value and SE within 1e-12 relative of the reference's walk per
        flip, in both modes, at mask chunks that leave several calls per
        sequence; where the terms nearly cancel (parity at q = 0.3), n *
        1e-14 absolute."""
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

    def test_pointwise_monte_carlo_rejects_one_mask_before_any_draw(self, monkeypatch):
        # its standard error is a std(ddof=1) over the masks
        monkeypatch.setattr(harness, "mask_set", lambda *args: pytest.fail("masks drawn"))
        with pytest.raises(ValueError, match="needs m >= 2 masks, got 1$"):
            pointwise_influence(parity_functional, SmoothingConfig(q=0.1, m=1),
                                np.zeros(8, dtype=np.int64), RngStream(31))

    def test_pointwise_monte_carlo_runs(self):
        cfg = SmoothingConfig(q=0.02, m=64)
        value, se = pointwise_influence(
            parity_functional, cfg, np.zeros(48, dtype=np.int64), RngStream(31)
        )
        truth = 48 * (1 - 2 * 0.02) ** 48
        assert abs(value - truth) <= 3 * se
