"""The strict spec reader and the parsers built on it: every malformed spec
is rejected with ConfigError before any trial runs."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duodenoise import combine, harness
from duodenoise.channel import make_bec, make_bsc, make_dmc
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
    "master_seed": 1, "h": "min_norm", "loss": {"type": "hamming", "k": 2},
    "output": {"format": "csv"},
}
RANDOMIZED = {"type": "randomized", "nu": 0.75, "mode": "monte_carlo", "m": 8,
              "exact_threshold": 20}

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
        "combiner": {"type": "randomized", "q": 0.1, "mode": "exact",
                     "exact_threshold": 12},
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


@pytest.mark.parametrize("spec, message", [
    (with_(combiner=RANDOMIZED, channel={"type": "bec", "epsilon": 0.5},
           denoisers={"type": "bec_parity_pair"}), "binary channel"),
    (with_(combiner=RANDOMIZED, channel=DMC3,
           denoisers={"type": "pair", "first": {"type": "identity"},
                      "second": {"type": "constant"}}), "binary channel"),
    (with_(combiner={**RANDOMIZED, "mode": "exact", "exact_threshold": 8}),
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
])
def test_rejected_while_parsing(spec, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_json(spec)


@pytest.mark.parametrize("loss", [None, {"type": "hamming"}])
def test_default_loss_is_hamming_over_the_clean_alphabet(loss):
    spec = {"channel": DMC3, "n": 10, "trials": 3, "master_seed": 4,
            "denoisers": {"type": "pair", "first": {"type": "identity"},
                          "second": {"type": "constant", "symbol": 2}}}
    if loss is not None:
        spec["loss"] = loss
    cfg = ExperimentConfig.from_json(spec)
    assert cfg.lm.size == 3
    summary = aggregate(run_trials(cfg), cfg)
    assert summary["trials"] == 3


def test_plain_trial_estimates_each_denoiser_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    real = harness.estimate_loss
    monkeypatch.setenv("DUO_THREADS", "1")
    monkeypatch.setattr(harness, "estimate_loss", counted)
    monkeypatch.setattr(combine, "estimate_loss", counted)
    cfg = ExperimentConfig.from_json(PLAIN)
    run_trials(cfg)
    assert calls == [cfg.d1, cfg.d2] * cfg.trials


@pytest.mark.parametrize("value", ["0", "-1", "x", "2.5", "", " 2", "²"])
def test_bad_thread_count_rejected(monkeypatch, value):
    monkeypatch.setenv("DUO_THREADS", value)
    with pytest.raises(ConfigError, match="DUO_THREADS"):
        worker_count()


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
])
def test_cli_rejects_malformed_input(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
def mutants(draw):
    """A base config with one key dropped, one unknown key added at any
    depth, or one value replaced by a value of another JSON type."""
    spec = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    paths = list(_paths(spec))
    how = draw(st.sampled_from(["drop", "add", "replace"]))
    if how == "drop":
        path = draw(st.sampled_from([p for p, in_object in paths if in_object]))
        del _at(spec, path[:-1])[path[-1]]
    elif how == "add":
        objects = [()] + [p for p, _ in paths if isinstance(_at(spec, p), dict)]
        _at(spec, draw(st.sampled_from(objects)))["unexpected"] = 1
    else:
        path = draw(st.sampled_from([p for p, _ in paths]))
        _at(spec, path[:-1])[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return spec


@pytest.mark.parametrize("name", sorted(BASES))
def test_base_configs_run(name):
    cfg = ExperimentConfig.from_json(BASES[name])
    assert len(run_trials(cfg)) == 2


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_mutated_config_runs_or_is_rejected_while_parsing(spec):
    try:
        cfg = ExperimentConfig.from_json(spec)
    except ConfigError:
        return
    aggregate(run_trials(cfg), cfg)


@pytest.mark.parametrize("channel, d", [
    (make_bsc(0.2), IdentityDenoiser()),
    (make_bec(0.3), IdentityDenoiser(2, 3)),
    (make_bsc(0.2), ConstantDenoiser(1)),
    (make_dmc(DMC3["pi"]), ConstantDenoiser(2, 3)),
    (make_bsc(0.2), make_sliding_window(1, "majority")),
    (make_bsc(0.2), make_sliding_window(1, np.random.default_rng(1).integers(0, 2, 8))),
    (make_dmc(DMC3["pi"]), make_sliding_window(1, np.random.default_rng(2).integers(0, 3, 27),
                                               3, 3)),
])
def test_denoiser_spec_round_trips(channel, d):
    again = denoiser_from_spec(d.spec(), channel)
    for seed in range(3):
        z = np.random.default_rng(seed).integers(0, channel.output_size, 20)
        np.testing.assert_array_equal(again.denoise(z), d.denoise(z))
        np.testing.assert_array_equal(again.substituted_outputs(z), d.substituted_outputs(z))
