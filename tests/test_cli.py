"""Command-line interface behavior and exit codes."""

from __future__ import annotations

import json

import pytest

from duodenoise import cli, denoisers
from duodenoise.cli import main
from duodenoise.harness import ConfigError, ExperimentConfig
from duodenoise.verify import CheckResult


def test_verify_passes(capsys):
    assert main(["verify", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_exits_2_on_a_failed_check(monkeypatch, capsys):
    failed = CheckResult("broken", False, "made to fail")
    monkeypatch.setattr(cli, "default_battery", lambda n: [failed])
    assert main(["verify"]) == 2
    assert capsys.readouterr().out == "[FAIL] broken: made to fail\n"


def test_verify_rejects_a_block_length_below_two(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "default_battery", lambda n: ran.append(n) or [])
    for n in ("2", "1", "0"):
        assert main(["verify", "--n", n]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --n: verify needs n in [3, 23]")
    assert ran == []


def test_estimate_identity_on_bsc(capsys):
    code = main([
        "estimate",
        "--channel", '{"type": "bsc", "delta": 0.25}',
        "--denoiser", '{"type": "identity"}',
        "--sequence", "0,1,1,0",
    ])
    assert code == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.25, abs=1e-12)


def test_estimate_erasure_form(capsys):
    code = main([
        "estimate",
        "--channel", '{"type": "bec", "epsilon": 0.5}',
        "--denoiser", '{"type": "identity"}',
        "--sequence", "0 1 2 2",
        "--erasure-form",
    ])
    assert code == 0
    # both unerased symbols would be reconstructed as 0 had they been erased
    assert float(capsys.readouterr().out) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("h", ["min_norm", "canonical_erasure"])
def test_estimate_erasure_form_rejects_an_h(h, monkeypatch, capsys):
    """The erasure form reads no h, so an explicit --h is an error, raised
    before the sequence is read."""
    monkeypatch.setattr(cli, "_parse_sequence", None)
    code = main([
        "estimate",
        "--channel", '{"type": "bec", "epsilon": 0.5}',
        "--denoiser", '{"type": "identity"}',
        "--sequence", "0,2,1,2",
        "--erasure-form", "--h", h,
    ])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --h: ")


COMBINE_BSC = ["combine", "--channel", '{"type": "bsc", "delta": 0.2}',
               "--pair", '{"type": "bsc_counterexample_pair", "delta": 0.2}']


def test_combine_plain(capsys):
    code = main([
        "combine",
        "--channel", '{"type": "bsc", "delta": 0.2}',
        "--pair", '{"type": "bsc_counterexample_pair", "delta": 0.2}',
        "--sequence", "1,0,0,0,0,0,0,0",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["chosen"] in (1, 2)
    assert len(result["output"]) == 8
    assert result["estimates"][0] < 0  # odd parity drives the copier negative


def test_combine_randomized(capsys):
    code = main([
        "combine", "--randomized", "--seed", "5", "--m", "16",
        "--channel", '{"type": "bsc", "delta": 0.2}',
        "--pair", '{"type": "bsc_counterexample_pair", "delta": 0.2}',
        "--sequence", ",".join(["1"] + ["0"] * 31),
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert "mask_weight" in result


def test_combine_names_smoothing_flags_given_without_randomized(capsys):
    code = main([
        "combine", "--nu", "0.9", "--m", "3",
        "--channel", '{"type": "bsc", "delta": 0.2}',
        "--pair", '{"type": "bsc_counterexample_pair", "delta": 0.2}',
        "--sequence", "0,1",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: --nu --m apply only with --randomized\n"


def test_combine_rejects_a_seed_without_randomized(capsys):
    code = main([
        "combine", "--seed", "5",
        "--channel", '{"type": "bsc", "delta": 0.2}',
        "--pair", '{"type": "bsc_counterexample_pair", "delta": 0.2}',
        "--sequence", "0,1",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed apply only with --randomized\n"


SEEDED = {
    "combine": ["combine", "--channel", '{"type": "bsc", "delta": 0.2}', "--pair",
                '{"type": "bsc_counterexample_pair", "delta": 0.2}', "--sequence", "1,0,0,0,0",
                "--randomized", "--q", "0.1", "--m", "4"],
    "influence": ["influence", "--n", "6", "--q", "0.1", "--m", "4"],
}


@pytest.mark.parametrize("command", sorted(SEEDED))
def test_seed_must_lie_below_two_to_the_64(command, monkeypatch, capsys):
    for seed in ("0", str(2**64 - 1)):
        assert main(SEEDED[command] + ["--seed", seed]) == 0
        assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "RngStream", None)     # rejected before any stream is built
    for seed in ("-1", str(2**64)):
        assert main(SEEDED[command] + ["--seed", seed]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --seed: a seed must lie in [0, 2^64), got {seed}\n"


def test_influence_rejects_a_block_length_beside_a_sequence(capsys):
    assert main(["influence", "--sequence", "0,1,1", "--n", "999"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --n applies only without --sequence\n")


def test_absent_seed_and_block_length_keep_their_defaults(capsys):
    combine = ["combine", "--randomized", "--m", "16",
               "--channel", '{"type": "bsc", "delta": 0.2}',
               "--pair", '{"type": "bsc_counterexample_pair", "delta": 0.2}',
               "--sequence", ",".join(["1"] + ["0"] * 31)]
    influence = ["influence", "--q", "0.1", "--m", "64"]
    for argv, explicit in ((combine, ["--seed", "0"]), (influence, ["--n", "16", "--seed", "0"])):
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + explicit) == 0
        assert capsys.readouterr().out == default


def test_experiment_runs_config(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    config = {
        "channel": {"type": "bec", "epsilon": 0.5},
        "n": 32,
        "denoisers": {"type": "bec_parity_pair"},
        "trials": 10,
        "master_seed": 3,
        "epsilons": [0.1],
        "output": {"path": str(csv_path), "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", str(cfg_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 10
    assert csv_path.read_text().startswith("trial,seed,parity,")


def test_influence_exact(capsys):
    code = main(["influence", "--n", "8", "--q", "0.1", "--mode", "exact"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["influence"] == pytest.approx(8 * 0.8 ** 8, abs=1e-12)


def test_bad_config_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"channel": {"type": "bsc", "delta": 0.2}}')
    assert main(["experiment", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_channel_json_exits_one(capsys):
    code = main([
        "estimate", "--channel", '{"type": "warp"}',
        "--denoiser", '{"type": "identity"}', "--sequence", "0,1",
    ])
    assert code == 1


def test_estimate_reads_a_sequence_file(tmp_path, capsys):
    seq = tmp_path / "z.txt"
    seq.write_text("0\n1\n1\n0\n")
    args = ["estimate", "--channel", '{"type": "bsc", "delta": 0.25}',
            "--denoiser", '{"type": "identity"}', "--sequence"]
    assert main(args + ["0,1,1,0"]) == 0
    inline = capsys.readouterr().out
    assert main(args + [f"@{seq}"]) == 0
    assert capsys.readouterr().out == inline


def test_influence_sequence_equals_block_length(capsys):
    smoothing = ["--q", "0.1", "--mode", "exact"]
    assert main(["influence", "--sequence", "0,0,0,0"] + smoothing) == 0
    from_sequence = capsys.readouterr().out
    assert main(["influence", "--n", "4"] + smoothing) == 0
    assert capsys.readouterr().out == from_sequence
    assert json.loads(from_sequence) == {"influence": 4 * 0.8 ** 4, "se": 0.0}


def test_influence_rejects_one_mask_before_any_draw(monkeypatch, capsys):
    # a standard error over the masks needs two of them
    monkeypatch.setattr(cli, "pointwise_influence", lambda *args: pytest.fail("influence ran"))
    assert main(["influence", "--q", "0.1", "--m", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: --m: the influence's standard error needs m >= 2 masks, got 1\n")


@pytest.mark.parametrize("channel, pair", [
    ('{"type":"bec","epsilon":0.5}', '{"type":"bec_parity_pair"}'),
    ('{"type":"dmc","pi":[[0.8,0.1,0.1],[0.1,0.1,0.8]]}',
     '{"type":"pair","first":{"type":"identity"},"second":{"type":"identity"}}'),
], ids=["bec", "dmc_2x3"])
def test_randomized_combine_rejects_a_non_binary_channel_before_any_draw(
        monkeypatch, capsys, channel, pair):
    drawn = []
    monkeypatch.setattr(denoisers, "draw_smoothing_masks", lambda *args: drawn.append(args))
    argv = ["combine", "--randomized", "--channel", channel, "--pair", pair,
            "--sequence", "0,1,2,0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: --channel: randomized combining needs a binary channel\n")
    assert drawn == []
    assert main(argv[:1] + argv[2:]) == 0          # the plain combiner takes it


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("argv", [
    COMBINE_BSC + ["--sequence", "1,0,0,0,0,0,0,0"],
    COMBINE_BSC + ["--sequence", ",".join(["1"] + ["0"] * 31), "--randomized", "--m", "1"],
    COMBINE_BSC + ["--sequence", "0,1,1,0,1", "--randomized", "--q", "0.3", "--mode", "exact"],
    ["influence", "--q", "0.1", "--m", "2"],
    ["influence", "--q", "0.1", "--m", "2", "--sequence", "1"],
    ["influence", "--n", "6", "--q", "0.25", "--mode", "exact"],
], ids=["combine", "combine_one_mask", "combine_exact", "influence_two_masks",
        "influence_one_symbol", "influence_exact"])
def test_printed_lines_are_strict_json(argv, capsys):
    # NaN and Infinity are not JSON: json.loads hands them to parse_constant
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)


def test_influence_rejects_empty_block(capsys):
    assert main(["influence", "--n", "0"]) == 1
    assert "--n: block length must be >= 1" in capsys.readouterr().err


# an identity pair outputs the symbols it read
COMBINE_IDENTITY = ["combine", "--channel", '{"type": "bsc", "delta": 0.2}', "--pair",
                    '{"type": "pair", "first": {"type": "identity"}, '
                    '"second": {"type": "identity"}}', "--sequence"]


def clean_file_config(path, n: int) -> dict:
    return {"channel": {"type": "bsc", "delta": 0.2}, "n": n,
            "denoisers": {"type": "bsc_counterexample_pair", "delta": 0.2},
            "trials": 1, "master_seed": 0,
            "clean_source": {"type": "file", "path": str(path)}}


@pytest.mark.parametrize("text", ["0,1,1,0", "0 1\n1 0", "0\n1\n1\n0\n"],
                         ids=["commas", "two_lines", "one_per_line"])
def test_every_sequence_path_reads_the_same_symbols(tmp_path, capsys, text):
    # --sequence TEXT, --sequence @file and a clean_source file holding TEXT
    path = tmp_path / "z.txt"
    path.write_text(text)
    for arg in (text, f"@{path}"):
        assert main(COMBINE_IDENTITY + [arg]) == 0
        assert json.loads(capsys.readouterr().out)["output"] == [0, 1, 1, 0]
    cfg = ExperimentConfig.from_json(clean_file_config(path, 4))
    assert cfg.clean_file.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("text", ["0_1,0", "+1", "1,\u0660", "", "99999999999999999999"],
                         ids=["underscore", "sign", "non_ascii_digit", "empty", "beyond_int64"])
def test_every_sequence_path_rejects_a_malformed_text(tmp_path, capsys, text):
    path = tmp_path / "z.txt"
    path.write_text(text)
    for arg in (text, f"@{path}"):
        assert main(COMBINE_IDENTITY + [arg]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ConfigError, match=r"^config\.clean_source\.path: "):
        ExperimentConfig.from_json(clean_file_config(path, 2))
