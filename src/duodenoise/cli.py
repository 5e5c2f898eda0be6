"""Command-line interface.

Subcommands: ``verify`` (exact self-checks), ``estimate`` (loss estimate of a
denoiser on a given noisy sequence), ``combine`` (run the combiner on one
sequence), ``experiment`` (full Monte Carlo experiment from a JSON config),
``influence`` (total influence of a smoothed functional).

Exit codes: 0 success, 1 validation/configuration error, 2 a ``verify``
check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channel import channel_from_json, h_from_choice, parse_symbols
from .combine import combined_denoise, randomized_combined_denoise
from .denoisers import ENUMERATION_LIMIT
from .harness import (
    ExperimentConfig,
    check_binary_channel,
    denoiser_from_spec,
    denoiser_pair_from_spec,
    pointwise_influence,
    run_experiment,
    smoothing_from_spec,
)
from .losses import erasure_estimate_loss, estimate_loss, hamming_loss
from .rng import RngStream
from .spec import build
from .verify import default_battery


def _parse_sequence(arg: str) -> np.ndarray:
    """The symbols of ``--sequence``, or of the file named after its ``@``."""
    if arg.startswith("@"):
        with open(arg[1:]) as fh:
            arg = fh.read()
    return parse_symbols(arg)


def _combiner_spec(args) -> dict:
    """The randomized-combiner spec that the smoothing flags given stand for."""
    flags = {key: getattr(args, key) for key in ("q", "nu", "mode", "m")}
    return {"type": "randomized", **{k: v for k, v in flags.items() if v is not None}}


def cmd_verify(args) -> int:
    # the battery enumerates all 2^n channel outputs; the cap keeps 2^n cheap
    if args.n < 2 or 2 ** min(args.n, 64) > ENUMERATION_LIMIT:
        raise ValueError(f"--n: verify needs n in [2, {ENUMERATION_LIMIT.bit_length() - 1}]: "
                         f"its parity counterexample holds from n = 2, and it enumerates "
                         f"2^n outputs; got {args.n}")
    results = default_battery(args.n)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 2


def cmd_estimate(args) -> int:
    channel = channel_from_json(args.channel, "--channel")
    _, h = h_from_choice(channel, None if args.h == "auto" else args.h, "--h")
    d = denoiser_from_spec(args.denoiser, channel, "--denoiser")
    lm = hamming_loss(channel.input_size)
    z = _parse_sequence(args.sequence)
    if args.erasure_form:
        value = erasure_estimate_loss(channel, lm, d, z)
    else:
        value = estimate_loss(channel, h, lm, d, z)
    print(f"{value:.12g}")
    return 0


def cmd_combine(args) -> int:
    flags = [f"--{key}" for key in ("q", "nu", "mode", "m", "seed")
             if getattr(args, key) is not None]
    if flags and not args.randomized:
        raise ValueError(f"{' '.join(flags)} apply only with --randomized")
    channel = channel_from_json(args.channel, "--channel")
    if args.randomized:
        check_binary_channel(channel, "--channel")
    _, h = h_from_choice(channel, None if args.h == "auto" else args.h, "--h")
    d1, d2 = denoiser_pair_from_spec(args.pair, channel, "--pair")
    lm = hamming_loss(channel.input_size)
    z = _parse_sequence(args.sequence)
    if args.randomized:
        cfg = smoothing_from_spec(_combiner_spec(args), "smoothing flags")
        out, sel, mask = randomized_combined_denoise(
            d1, d2, channel, h, lm, cfg, z, RngStream(args.seed or 0)
        )
        extra = {"mask_weight": int(mask.sum())}
    else:
        out, sel = combined_denoise(d1, d2, channel, h, lm, z)
        extra = {}
    print(json.dumps({
        "chosen": sel.chosen_index,
        "estimates": list(sel.estimates),
        "tie": sel.tie,
        "output": out.tolist(),
        **extra,
    }))
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    summary = run_experiment(cfg)
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


def cmd_influence(args) -> int:
    if args.sequence is not None and args.n is not None:
        raise ValueError("--n applies only without --sequence")
    cfg = smoothing_from_spec(_combiner_spec(args), "smoothing flags")
    if cfg.mode == "exact" and args.seed is not None:
        raise ValueError("--seed: exact mode enumerates every mask and draws none")
    if cfg.mode != "exact" and cfg.m < 2:
        raise ValueError(f"--m: the influence's standard error needs m >= 2 masks, got {cfg.m}")
    if args.sequence is not None:
        z = _parse_sequence(args.sequence)
    else:
        n = 16 if args.n is None else args.n
        if n < 1:
            raise ValueError(f"--n: block length must be >= 1, got {n}")
        build("--n", cfg.check_length, n)
        z = np.zeros(n, dtype=np.int64)

    def parity(rows: np.ndarray) -> np.ndarray:
        return rows.sum(axis=1) % 2

    value, se = pointwise_influence(parity, cfg, z, RngStream(args.seed or 0))
    print(json.dumps({"influence": value, "se": se}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duodenoise",
        description="Unbiased loss estimation and combination of denoisers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact self-check battery")
    p.add_argument("--n", type=int, default=8, help="block length for enumeration")
    p.set_defaults(func=cmd_verify)

    def channel_opts(p):
        p.add_argument("--channel", required=True, help="channel JSON")
        p.add_argument("--h", choices=("auto", "min_norm", "canonical_erasure"),
                       default="auto")

    def smoothing_opts(p):
        p.add_argument("--q", type=float, default=None, help="flip rate")
        p.add_argument("--nu", type=float, default=None, help="rate exponent, q = n^-nu")
        p.add_argument("--mode", choices=("exact", "monte_carlo"),
                       help="smoothing mode (default monte_carlo)")
        p.add_argument("--m", type=int,
                       help="Monte Carlo mask count (default 128; not with --mode exact)")
        p.add_argument("--seed", type=int,
                       help="mask stream seed (default 0; influence takes none with --mode exact)")

    sequence_help = ("symbols: decimal integers separated by commas and/or whitespace, "
                     "or @file for a file of symbols in the same syntax")

    p = sub.add_parser("estimate", help="estimate a denoiser's loss on a sequence")
    channel_opts(p)
    p.add_argument("--denoiser", required=True, help="denoiser JSON")
    p.add_argument("--sequence", required=True, help=sequence_help)
    p.add_argument("--erasure-form", action="store_true",
                   help="use the hypothetical-erasure shortcut (BEC only)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("combine", help="combine two denoisers on a sequence")
    channel_opts(p)
    p.add_argument("--pair", required=True, help="denoiser pair JSON")
    p.add_argument("--sequence", required=True, help=sequence_help)
    p.add_argument("--randomized", action="store_true")
    smoothing_opts(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    p.add_argument("config", help="path to the experiment JSON file")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("influence",
                       help="total influence of the smoothed parity functional")
    p.add_argument("--n", type=int, help="block length (default 16; not with --sequence)")
    p.add_argument("--sequence", default=None, help=sequence_help)
    smoothing_opts(p)
    p.set_defaults(func=cmd_influence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
