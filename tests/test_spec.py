"""The strict spec reader and the parsers built on it: every malformed spec
is rejected with ConfigError before any trial runs."""

from __future__ import annotations

import copy
import functools
import json
import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duodenoise import combine, denoisers, losses
from duodenoise.channel import Channel, make_bec, make_bsc
from duodenoise.cli import main
from duodenoise.denoisers import (
    ConstantDenoiser,
    IdentityDenoiser,
    make_sliding_window,
)
from duodenoise.harness import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    denoiser_from_spec,
    run_experiment,
    run_trials,
    worker_count,
)
from duodenoise.spec import read

BSC = {"type": "bsc", "delta": 0.2}
DMC3 = {"type": "dmc", "pi": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]}
PLAIN = {
    "channel": BSC, "n": 12, "clean_source": {"type": "all_zeros"},
    "denoisers": {"type": "bsc_counterexample_pair", "delta": 0.2},
    "combiner": {"type": "plain"}, "trials": 2, "epsilons": [0.05, 0.1],
    "master_seed": 1, "h": "min_norm", "loss": {"type": "hamming"},
    "output": {"format": "csv"},
}
RANDOMIZED = {"type": "randomized", "nu": 0.75, "mode": "monte_carlo", "m": 8}

# The starting points of the mutation test, n <= 12 and trials <= 2 each.
BASES = {
    "bsc_parity_plain": PLAIN,
    "bsc_parity_randomized": {**PLAIN, "combiner": RANDOMIZED},
    "bec_parity": {
        "channel": {"type": "bec", "epsilon": 0.5}, "n": 12,
        "clean_source": {"type": "iid_bernoulli", "p": 0.3},
        "denoisers": {"type": "bec_parity_pair"}, "combiner": {"type": "plain"},
        "trials": 2, "master_seed": 3, "h": "canonical_erasure",
        "loss": {"type": "matrix", "lambda": [[0, 1], [2, 0]]},
        "epsilons": [0.1], "output": {"format": "json"},
    },
    "majority_identity": {
        "channel": {"type": "dmc", "pi": [[0.8, 0.2], [0.3, 0.7]]}, "n": 12,
        "clean_source": {"type": "iid_bernoulli", "p": 0.5},
        "denoisers": {"type": "pair",
                      "first": {"type": "sliding_window", "k": 1, "rule": "majority"},
                      "second": {"type": "identity"}},
        "combiner": {"type": "randomized", "q": 0.1, "mode": "exact"},
        "trials": 2, "master_seed": 5,
    },
    "dmc3": {
        "channel": DMC3, "n": 12,
        "denoisers": {"type": "pair", "first": {"type": "constant", "symbol": 1},
                      "second": {"type": "sliding_window", "k": 0, "table": [0, 2, 1]}},
        "loss": {"type": "hamming"}, "trials": 2, "master_seed": 9,
    },
}

BAD_VALUES = (True, "x", 2.5, [], None)
# same-type boundary values, by the type of the value they replace
BOUNDARY_VALUES = {int: (0, -1, 1), float: (0.0, -1.0, 0.01, 0.5, 1.0, math.inf), str: ("",)}


def with_(**overrides) -> dict:
    return {**PLAIN, **overrides}


class TestReader:
    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="^where: expected an object"):
            read([1], "where", {})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown keys in where: \['b'\]"):
            read({"a": 1, "b": 2}, "where", {"a": int})

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="where: missing required key 'a'"):
            read({}, "where", {"a": int})

    @pytest.mark.parametrize("value", [True, 16.9, "3", None, [3]])
    def test_int_is_strict(self, value):
        with pytest.raises(ConfigError, match=r"where\.a: expected integer"):
            read({"a": value}, "where", {"a": int})

    def test_int_is_a_valid_float(self):
        value = read({"a": 3}, "where", {"a": float})["a"]
        assert value == 3.0 and type(value) is float
        with pytest.raises(ConfigError, match="expected number"):
            read({"a": False}, "where", {"a": float})

    def test_nested_lists_and_defaults(self):
        got = read('{"m": [[1, 2.5]]}', "where", {"m": [[float]]},
                   {"k": (int, 7), "s": (str, None)})
        assert got == {"m": [[1.0, 2.5]], "k": 7, "s": None}
        with pytest.raises(ConfigError, match=r"where\.m\[0\]\[1\]: expected number"):
            read({"m": [[1, True]]}, "where", {"m": [[float]]})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="where: invalid JSON"):
            read("{", "where", {})


LOSS_SIZE = r"^config\.loss: loss matrix has shape \(\d, \d\); the channel needs \(\d, \d\)$"
# Hamming loss is over the channel's K: a spec has no size to give
LOSS_K = r"^unknown keys in config\.loss: \['k'\]$"


@pytest.mark.parametrize("spec, message", [
    (with_(combiner=RANDOMIZED, channel={"type": "bec", "epsilon": 0.5},
           denoisers={"type": "bec_parity_pair"}), "binary channel"),
    (with_(combiner=RANDOMIZED, channel=DMC3,
           denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "constant"}}), "binary channel"),
    (with_(n=21, combiner={"type": "randomized", "nu": 0.75, "mode": "exact"}),
     "exact smoothing limited"),
    (with_(combiner={**RANDOMIZED, "m": 12.5}), r"combiner\.m: expected integer"),
    (with_(n=16.9), r"config\.n: expected integer"),
    (with_(trials=True), r"config\.trials: expected integer"),
    (with_(clean_source={"type": "all_zeros", "p": 0.5}), "unknown keys"),
    (with_(channel={"type": "bsc"}), "missing required key 'delta'"),
    (with_(channel={"type": "bec"}, denoisers={"type": "bec_parity_pair"}),
     "missing required key 'epsilon'"),
    (with_(denoisers={"type": "bsc_counterexample_pair"}), "missing required key 'delta'"),
    (with_(denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "sliding_window", "rule": "majority"}}),
     r"denoisers\.second: missing required key 'k'"),
    (with_(channel={**BSC, "pi": [[1, 0], [0, 1]]}), r"unknown keys in config\.channel"),
    (with_(loss={"type": "hamming", "size": 2}), r"unknown keys in config\.loss"),
    (with_(channel={"type": "bec", "epsilon": 0.5}), "requires a binary channel"),
    # n * M substituted-output entries per trial: 2 * 10^12, and 3 * 3333334
    (with_(n=10**12), r"^config\.n: a trial's substituted-output table"),
    (with_(n=3333334, channel={"type": "bec", "epsilon": 0.5},
           denoisers={"type": "bec_parity_pair"}), r"^config\.n: .* 3333334 x 3 entries"),
    # a loss over another alphabet than the channel's clean one
    (with_(loss={"type": "hamming", "k": 3}), LOSS_K),
    (with_(loss={"type": "matrix", "lambda": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}), LOSS_SIZE),
    (with_(channel=DMC3, loss={"type": "matrix", "lambda": [[0, 1], [1, 0]]},
           denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "constant"}}), LOSS_SIZE),
    (with_(loss={"type": "hamming", "k": 0}), LOSS_K),
    (with_(loss={"type": "hamming", "k": -1}), LOSS_K),
    (with_(n=0), r"^config: n and trials must be >= 1, got 0 and 2$"),
    (with_(trials=0), r"^config: n and trials must be >= 1, got 12 and 0$"),
    (with_(epsilons=[0.0]),
     r"^config\.epsilons: deviation thresholds must be positive and finite$"),
    (with_(combiner={"type": "randomized", "q": 0.5}),
     r"^config\.combiner: flip rate q must lie in \[0, 1/2\), got 0\.5$"),
    (with_(combiner={"type": "randomized", "nu": 1.0}),
     r"^config\.combiner: exponent nu must lie in \(0, 1\), got 1\.0$"),
    (with_(denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "sliding_window", "k": 0, "table": [0, 2]}}),
     r"^config\.denoisers\.second: table entry 2 at code 1 lies outside "
     r"the clean alphabet \[0, 2\)$"),
    (with_(denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "sliding_window", "k": 1, "rule": "median"}}),
     r"^config\.denoisers\.second: unknown sliding-window rule 'median'$"),
    (with_(channel={"type": "dmc", "pi": [[1.0]]}),
     r"^config\.channel: input alphabet must have at least 2 symbols$"),
    (with_(denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "sliding_window", "k": 0, "table": [-1, 0]}}),
     r"^config\.denoisers\.second: table entry -1 at code 0 lies outside "
     r"the clean alphabet \[0, 2\)$"),
    (with_(output={"path": "no-such-directory/trials.csv"}),
     r"^config\.output\.path: 'no-such-directory' is not an existing directory$"),
    (with_(output={"path": "."}), r"^config\.output\.path: '\.' is a directory, not a file$"),
    # n^-nu at or above 1/2, like an explicit q, whatever the mode
    (with_(combiner={"type": "randomized", "nu": 0.2}),
     r"^config\.combiner: flip rate q = n\^-nu = 12\^-0\.2 = 0\.6084 must lie in "
     r"\[0, 1/2\)$"),
    (with_(n=2, combiner={"type": "randomized"}), r"= 2\^-0\.75 = 0\.5946 must lie in"),
    (with_(n=1, combiner={"type": "randomized", "mode": "exact"}), r"= 1\^-0\.75 = 1 must lie in"),
    (with_(output={"path": ""}), r"^config\.output\.path: an empty path names no file$"),
    (with_(epsilons=[0.05, 0.01, 0.05]),
     r"^config\.epsilons: deviation thresholds must be distinct$"),
    # a loss whose trial sums, or the summary's squared deviations, could
    # overflow: an fsum OverflowError mid-run, or "se": Infinity in the summary
    (with_(n=8, loss={"type": "matrix", "lambda": [[0, 1e308], [1e308, 0]]}),
     r"^config\.loss: a largest loss of 1e\+308 can overflow a run's sums"),
    (with_(n=8, combiner=RANDOMIZED, loss={"type": "matrix", "lambda": [[1e307, 1e307]] * 2}),
     r"^config\.loss: a largest loss of 1e\+307 can overflow a run's sums"),
    # rejected before a window is sized: a width of 2k + 1 < 0 sizes no table
    (with_(denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "sliding_window", "k": -1, "rule": "majority"}}),
     r"^config\.denoisers\.second: window half-width must be nonnegative$"),
    (with_(denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "sliding_window", "k": -10**9, "table": [0, 1]}}),
     r"^config\.denoisers\.second: window half-width must be nonnegative$"),
])
def test_rejected_while_parsing(spec, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_json(spec)


def test_nan_in_json_text_is_rejected():
    text = json.dumps(with_(epsilons=[float("nan")]))
    assert '"epsilons": [NaN]' in text
    with pytest.raises(ConfigError, match=r"^config\.epsilons\[0\]: expected a finite number"):
        ExperimentConfig.from_json(text)


def test_nan_in_a_dict_is_rejected():
    pi = [[float("nan"), 0.2], [0.2, 0.8]]
    with pytest.raises(ConfigError, match=r"^config\.channel\.pi\[0\]\[0\]: expected a finite"):
        ExperimentConfig.from_json(with_(channel={"type": "dmc", "pi": pi}))


@pytest.mark.parametrize("as_text", [False, True])
@pytest.mark.parametrize("delta", [float("inf"), float("-inf"), 10**400],
                         ids=["inf", "-inf", "int-beyond-float"])
def test_infinite_numbers_are_rejected(delta, as_text):
    spec = with_(channel={"type": "bsc", "delta": delta})
    with pytest.raises(ConfigError, match=r"^config\.channel\.delta: expected a finite"):
        ExperimentConfig.from_json(json.dumps(spec) if as_text else spec)


def test_window_table_is_bounded_before_it_is_built(monkeypatch):
    def no_table(k, input_size):
        raise AssertionError(f"built a majority table of half-width {k}")

    monkeypatch.setattr(denoisers, "_majority_table", no_table)
    # 2^25 > 10^7 entries; a huge k is rejected without computing 2^(2k+1),
    # by the library call as by the spec parser
    for k in (12, 10**12):
        with pytest.raises(ValueError, match=rf"^a window of width {2 * k + 1} over 2 "):
            make_sliding_window(k, "majority")
        with pytest.raises(ConfigError, match=r"denoiser: a window of width \d+ over 2"):
            denoiser_from_spec({"type": "sliding_window", "k": k, "rule": "majority"},
                               make_bsc(0.2))
    monkeypatch.undo()
    # 3^15 > 10^7 on a ternary output alphabet, with a table as well
    with pytest.raises(ConfigError, match=r"3\^15 table entries"):
        denoiser_from_spec({"type": "sliding_window", "k": 7, "table": [0]},
                           make_bec(0.3))
    assert denoiser_from_spec({"type": "sliding_window", "k": 5, "rule": "majority"},
                              make_bsc(0.2)).table.size == 2 ** 11


def test_mask_count_is_bounded_while_parsing():
    # 10^9 masks of length 4096 would be 4.1e12 bools; the bound is m * n <= 10^7
    for m in (10**9, 2442):
        with pytest.raises(ConfigError, match=rf"^config\.combiner: {m} masks of length 4096"):
            ExperimentConfig.from_json(with_(n=4096, combiner={**RANDOMIZED, "m": m}))
    assert ExperimentConfig.from_json(
        with_(n=4096, combiner={**RANDOMIZED, "m": 2441})).smoothing.m == 2441
    # exact mode enumerates its own masks and reads no m, so it takes none
    for m in (10**9, 5):
        with pytest.raises(ConfigError, match=r"^config\.combiner\.m: exact mode"):
            ExperimentConfig.from_json(with_(combiner={**RANDOMIZED, "mode": "exact", "m": m}))
    assert ExperimentConfig.from_json(
        with_(combiner={"type": "randomized", "nu": 0.75, "mode": "exact"})).randomized


def test_a_large_loss_that_cannot_overflow_a_run_parses():
    """The overflow rule on the loss (see test_rejected_while_parsing)
    leaves room: a loss of 1e100 at n = 4096 over 10^6 trials parses."""
    for combiner in (PLAIN["combiner"], RANDOMIZED):
        cfg = ExperimentConfig.from_json(with_(
            n=4096, trials=10**6, combiner=combiner,
            loss={"type": "matrix", "lambda": [[0, 1e100], [1e100, 0]]}))
        assert cfg.lm.max() == 1e100


@pytest.mark.parametrize("loss", [None, {"type": "hamming"}])
def test_default_loss_is_hamming_over_the_clean_alphabet(loss):
    spec = {"channel": DMC3, "n": 10, "trials": 3, "master_seed": 4,
            "denoisers": {"type": "pair", "first": {"type": "identity"},
                          "second": {"type": "constant", "symbol": 2}}}
    if loss is not None:
        spec["loss"] = loss
    cfg = ExperimentConfig.from_json(spec)
    assert cfg.lm.shape == (3, 3)
    summary = aggregate(run_trials(cfg), cfg)
    assert summary["trials"] == 3


def test_plain_trial_estimates_each_denoiser_once(monkeypatch):
    """One substituted_outputs_batch and no denoise_batch per denoiser per
    block of plain trials, and no one-sequence estimate: the loss reads
    t_i(z_i) off the substituted table.  A BSC has 8 contexts, so both
    blocks read the context table; of its 16 joint codes (x_i, z_i,
    t_i(0), t_i(1)), an n = 12 row gathers its terms and an n = 16 row
    counts them."""
    calls = []

    def counted(d, name):
        real = getattr(d, name)

        def call(zs):
            calls.append((d, name, len(zs)))
            return real(zs)

        monkeypatch.setattr(d, name, call)

    monkeypatch.setattr(losses, "estimate_loss", None)
    monkeypatch.setattr(combine, "estimate_loss", None)
    for n in (12, 16):
        calls.clear()
        cfg = ExperimentConfig.from_json(with_(n=n, trials=5))
        for d in (cfg.d1, cfg.d2):
            for name in ("denoise_batch", "substituted_outputs_batch"):
                counted(d, name)
        monkeypatch.setattr(denoisers, "BLOCK_BYTES", 8 * 2 * n)     # int64 rows
        assert len(run_trials(cfg)["trial"]) == 5
        # blocks of two trials: rows 0-1, 2-3 and 4
        assert Counter(calls) == Counter(
            (d, "substituted_outputs_batch", rows) for rows in (2, 2, 1)
            for d in (cfg.d1, cfg.d2))


@pytest.mark.parametrize("value", ["0", "-1", "x", "2.5", "", " 2", "²"])
def test_bad_thread_count_rejected(monkeypatch, value):
    monkeypatch.setenv("DUO_THREADS", value)
    with pytest.raises(ConfigError, match="DUO_THREADS"):
        worker_count()
    with pytest.raises(ConfigError, match="DUO_THREADS"):     # a plain run checks it too
        run_trials(ExperimentConfig.from_json(with_()))


def test_thread_count(monkeypatch):
    monkeypatch.setenv("DUO_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("DUO_THREADS")
    assert worker_count() == 1


@pytest.mark.parametrize("argv", [
    ["estimate", "--channel", '{"type":"bsc"}', "--denoiser", '{"type":"identity"}',
     "--sequence", "0,1"],
    ["combine", "--channel", '{"type":"bsc","delta":0.2}',
     "--pair", '{"type":"bsc_counterexample_pair"}', "--sequence", "0,1"],
    ["combine", "--channel", '{"type":"bsc","delta":0.2}', "--randomized", "--m", "0",
     "--pair", '{"type":"bsc_counterexample_pair","delta":0.2}', "--sequence", "0,1"],
    ["influence", "--q", "0.1", "--nu", "0.5"],
    ["estimate", "--channel", '{"type":"bsc","delta":NaN}', "--denoiser", '{"type":"identity"}',
     "--sequence", "0,1"],
    ["influence", "--q", "nan"],
    ["influence", "--n", "4096", "--m", "1000000000"],
    ["influence", "--n", "1000000000000", "--q", "0.1"],
    ["verify", "--n", "1000000000000"],
    ["influence", "--sequence", "", "--q", "0.1"],
    ["combine", "--channel", '{"type":"bsc","delta":0.2}', "--nu", "0.9", "--m", "3",
     "--pair", '{"type":"bsc_counterexample_pair","delta":0.2}', "--sequence", "0,1"],
    ["influence", "--n", "2"],
    ["influence", "--sequence", "1,0,1", "--nu", "0.5", "--mode", "exact"],
    ["combine", "--channel", '{"type":"bsc","delta":0.2}', "--randomized",
     "--pair", '{"type":"bsc_counterexample_pair","delta":0.2}', "--sequence", "0,1"],
])
def test_cli_rejects_malformed_input(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


COMBINE_EXACT = ["combine", "--channel", '{"type":"bsc","delta":0.2}', "--randomized",
                 "--pair", '{"type":"bsc_counterexample_pair","delta":0.2}',
                 "--sequence", "0,1,1,0,1", "--q", "0.3", "--mode", "exact"]


@pytest.mark.parametrize("argv, flag", [
    (["influence", "--n", "6", "--q", "0.1", "--mode", "exact", "--m", "7"], "smoothing flags.m"),
    (["influence", "--n", "6", "--q", "0.1", "--mode", "exact", "--seed", "1"], "--seed"),
    (COMBINE_EXACT + ["--m", "5"], "smoothing flags.m"),
], ids=["influence_m", "influence_seed", "combine_m"])
def test_cli_rejects_flags_exact_mode_never_reads(argv, flag, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: exact mode") and "Traceback" not in err


def test_exact_combine_reads_its_seed(capsys):
    # the estimates are exact; the emitted mask is drawn from the seed's stream
    weights = set()
    for seed in range(8):
        assert main(COMBINE_EXACT + ["--seed", str(seed)]) == 0
        weights.add(json.loads(capsys.readouterr().out)["mask_weight"])
    assert len(weights) > 1


def test_unrunnable_n_is_rejected_before_any_trial(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(with_(n=10**12)))
    assert main(["experiment", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.n: ") and "Traceback" not in err
    # the largest binary n whose table fits: parsed, never run here
    assert ExperimentConfig.from_json(with_(n=5 * 10**6)).n == 5 * 10**6


def test_cli_smoothing_defaults(capsys):
    assert main(["influence", "--n", "6", "--mode", "exact"]) == 0
    q = 6 ** -0.75   # the default nu = 0.75
    influence = json.loads(capsys.readouterr().out)["influence"]
    assert influence == pytest.approx(6 * (1 - 2 * q) ** 6, abs=1e-12)


def _paths(node, prefix=()):
    """(path, parent is an object) of every value nested in a JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,), isinstance(node, dict)
        yield from _paths(value, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def spec_mutants(draw):
    """A base config writing its output to a file in the working directory,
    with one key dropped, one unknown key added at any depth, one value
    replaced by a value of another JSON type or by a boundary value of its
    own type, or the output path naming the working directory itself."""
    spec = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    spec.setdefault("output", {})["path"] = "trials.out"
    paths = list(_paths(spec))
    how = draw(st.sampled_from(["drop", "add", "replace", "boundary", "directory"]))
    if how == "drop":
        path = draw(st.sampled_from([p for p, in_object in paths if in_object]))
        del _at(spec, path[:-1])[path[-1]]
    elif how == "add":
        objects = [()] + [p for p, _ in paths if isinstance(_at(spec, p), dict)]
        _at(spec, draw(st.sampled_from(objects)))["unexpected"] = 1
    elif how == "replace":
        path = draw(st.sampled_from([p for p, _ in paths]))
        _at(spec, path[:-1])[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    elif how == "boundary":
        path = draw(st.sampled_from([p for p, _ in paths
                                     if type(_at(spec, p)) in BOUNDARY_VALUES]))
        values = BOUNDARY_VALUES[type(_at(spec, path))]
        _at(spec, path[:-1])[path[-1]] = draw(st.sampled_from(values))
    else:
        spec["output"]["path"] = "."
    return spec


FIELDS = ("channel", "h", "h_choice", "lm", "n", "clean_source", "clean_file", "d1", "d2",
          "smoothing", "trials", "epsilons", "master_seed", "output_path", "output_format", "raw")
FILE = {"type": "file", "path": "clean.txt"}

# Constructor arguments that no spec can spell, or that a part's parser
# rejects: each a change to a base config's fields, or a function of them.
ARGUMENT_DEFECTS = [
    lambda f: {"h": 2 * f["h"]},
    lambda f: {"h": f["h"][:, :1]},
    lambda f: {"h": np.full(f["h"].shape, math.nan)},
    lambda f: {"h": np.ones((2, 3))},
    lambda f: {"lm": f["lm"][:1]},
    lambda f: {"lm": np.full((3, 3), 1.0)},
    lambda f: {"lm": np.full(f["lm"].shape, math.inf)},
    {"n": 0}, {"n": 13}, {"trials": 0}, {"master_seed": -1}, {"master_seed": 2**64},
    {"epsilons": (math.nan,)}, {"epsilons": (math.inf,)}, {"epsilons": (-math.inf,)},
    {"epsilons": (0.1, 0.1)},
    {"clean_source": {"type": "iid_bernoulli"}},
    {"clean_source": {"type": "iid_bernoulli", "p": 1.5}},
    {"clean_source": {"type": "iid_bernoulli", "p": math.nan}},
    {"clean_source": {"type": "markov"}},
    {"clean_source": {}},
    {"clean_source": FILE},
    {"clean_file": np.zeros(12, np.int64)},
    {"clean_source": FILE, "clean_file": np.array([0, 5] * 6)},
    {"clean_source": FILE, "clean_file": np.array([1] * 11)},
    {"clean_source": FILE, "clean_file": np.array([-1] * 12)},
    {"clean_source": FILE, "clean_file": np.array([0.5] * 12)},
    {"clean_source": FILE, "clean_file": np.array([1, 0] * 6)},
    {"d1": denoisers.BecParityDenoiser(False)},
    {"d2": IdentityDenoiser(3)},
    {"d1": make_sliding_window(1, "majority")},
    {"smoothing": denoisers.SmoothingConfig(q=0.1, mode="exact")},
    {"smoothing": denoisers.SmoothingConfig(nu=0.75, m=4)},
    {"output_format": "xml"}, {"output_path": "."}, {"output_path": ""},
    {"output_path": "no-such-directory/trials.csv"},
]


@st.composite
def argument_mutants(draw):
    """The constructor call on the arguments of a parsed base config with
    one of ``ARGUMENT_DEFECTS``, or with one argument taken from another
    base."""
    name, other = (draw(st.sampled_from(sorted(BASES))) for _ in range(2))
    fields = {field: getattr(ExperimentConfig.from_json(BASES[name]), field) for field in FIELDS}
    if draw(st.booleans()):
        defect = draw(st.sampled_from(ARGUMENT_DEFECTS))
        fields.update(defect(fields) if callable(defect) else defect)
    else:
        field = draw(st.sampled_from(FIELDS))
        fields[field] = getattr(ExperimentConfig.from_json(BASES[other]), field)
    return functools.partial(ExperimentConfig, **fields)


@pytest.mark.parametrize("name", sorted(BASES))
def test_base_configs_run(name):
    cfg = ExperimentConfig.from_json(BASES[name])
    assert len(run_trials(cfg)["trial"]) == 2


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(make=st.one_of(spec_mutants().map(lambda spec: functools.partial(
    ExperimentConfig.from_json, spec)), argument_mutants()))
def test_mutated_config_runs_or_is_rejected_while_parsing(tmp_path, monkeypatch, make):
    # a mutated spec is parsed, mutated arguments go to the constructor;
    # every relative output path, a mutated one included, lands in tmp_path;
    # one tmp_path serves every example, so each run rewrites its file
    monkeypatch.chdir(tmp_path)
    try:
        cfg = make()
    except ConfigError:
        return
    run_experiment(cfg)
    assert cfg.output_path is None or os.path.getsize(cfg.output_path) > 0


TABLE_2 = np.random.default_rng(1).integers(0, 2, 8)
TABLE_3 = np.random.default_rng(2).integers(0, 3, 27)


@pytest.mark.parametrize("channel, d", [
    (make_bsc(0.2), ({"type": "identity"}, IdentityDenoiser())),
    (make_bec(0.3), ({"type": "identity"}, IdentityDenoiser(2, 3))),
    (make_bsc(0.2), ({"type": "constant", "symbol": 1}, ConstantDenoiser(1))),
    (Channel(DMC3["pi"]), ({"type": "constant", "symbol": 2}, ConstantDenoiser(2, 3))),
    (make_bsc(0.2), ({"type": "sliding_window", "k": 1, "rule": "majority"},
                     make_sliding_window(1, "majority"))),
    (make_bsc(0.2), ({"type": "sliding_window", "k": 1, "table": TABLE_2.tolist()},
                     make_sliding_window(1, TABLE_2))),
    (Channel(DMC3["pi"]), ({"type": "sliding_window", "k": 1, "table": TABLE_3.tolist()},
                           make_sliding_window(1, TABLE_3, 3, 3))),
])
def test_denoiser_spec_round_trips(channel, d):
    # d is a (spec, denoiser) pair: the spec, read against the channel,
    # builds a denoiser that acts as the one constructed directly
    spec, d = d
    again = denoiser_from_spec(spec, channel)
    for seed in range(3):
        z = np.random.default_rng(seed).integers(0, channel.output_size, 20)
        np.testing.assert_array_equal(again.denoise(z), d.denoise(z))
        np.testing.assert_array_equal(again.substituted_outputs(z), d.substituted_outputs(z))
