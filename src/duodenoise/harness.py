"""Monte Carlo experiment driver, exact-enumeration oracles, and influence.

Experiments are declared as JSON configs (channel, block length, clean
source, denoiser pair, combiner, trial count, master seed).  Each trial gets
its own derived random streams, so results are independent of worker count
and execution order; `DUO_THREADS` only changes speed.  The module also
provides exact expectations by state-space enumeration (the unbiasedness
oracle) and empirical/pointwise total-influence measurements.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import (
    Channel,
    HMatrix,
    channel_from_json,
    check_sequence,
    h_from_choice,
    is_bec,
    sample_output,
)
from .combine import randomized_combined_denoise, select_min_estimate
from .denoisers import (
    ConstantDenoiser,
    Denoiser,
    IdentityDenoiser,
    SmoothingConfig,
    make_bec_parity_pair,
    make_bsc_counterexample_pair,
    make_sliding_window,
    mask_set,
)
from .losses import (
    LossMatrix,
    cumulative_loss,
    estimate_loss,
    smoothed_conditional_loss,
)
from .rng import RngStream
from .spec import ConfigError, build, load, read, read_typed

TRIAL_COLUMNS = (
    "trial,seed,parity,loss_d1,loss_d2,est_d1,est_d2,chosen,loss_combined"
)
SMOOTHED_COLUMNS = "sm_loss_d1,sm_loss_d2,sm_est_d1,sm_est_d2,mask_weight"

ENUMERATION_LIMIT = 10**7

#: Rate exponent of a randomized combiner that names neither q nor nu.
DEFAULT_NU = 0.75


def denoiser_from_spec(spec, channel: Channel, path: str = "denoiser") -> Denoiser:
    """Parse a single-denoiser spec (dict or JSON text) against a channel's
    alphabets."""
    v = read_typed(spec, path, "denoiser type", {
        "identity": ({}, {}),
        "constant": ({}, {"symbol": (int, 0)}),
        "sliding_window": ({"k": int}, {"rule": (str, None), "table": ([int], None)}),
    })
    k, m = channel.input_size, channel.output_size
    if v["type"] == "identity":
        return IdentityDenoiser(k, m)
    if v["type"] == "constant":
        return build(path, ConstantDenoiser, v["symbol"], k, m)
    if (v["rule"] is None) == (v["table"] is None) or v["k"] < 0:
        raise ConfigError(f"{path}: sliding_window needs k >= 0 and one of rule and table")
    rule = v["rule"] if v["table"] is None else np.asarray(v["table"])
    return build(path, make_sliding_window, v["k"], rule, m, k)


def denoiser_pair_from_spec(spec, channel: Channel,
                            path: str = "denoisers") -> tuple[Denoiser, Denoiser]:
    """Parse a denoiser-pair spec (dict or JSON text) against a channel."""
    v = read_typed(spec, path, "denoiser pair type", {
        "bec_parity_pair": ({}, {}),
        "bsc_counterexample_pair": ({"delta": float}, {}),
        "pair": ({"first": dict, "second": dict}, {}),
    })
    if v["type"] == "bec_parity_pair":
        if not is_bec(channel):
            raise ConfigError(f"{path}: bec_parity_pair requires a binary erasure channel")
        return make_bec_parity_pair()
    if v["type"] == "bsc_counterexample_pair":
        if channel.pi.shape != (2, 2):
            raise ConfigError(f"{path}: bsc_counterexample_pair requires a binary channel")
        return build(path, make_bsc_counterexample_pair, v["delta"])
    return (denoiser_from_spec(v["first"], channel, f"{path}.first"),
            denoiser_from_spec(v["second"], channel, f"{path}.second"))


def smoothing_from_spec(spec, path: str = "combiner") -> SmoothingConfig | None:
    """The smoothing of a randomized-combiner spec; None for a plain one."""
    v = read_typed(spec, path, "combiner type", {
        "plain": ({}, {}),
        "randomized": ({}, {"q": (float, None), "nu": (float, None), "mode": (str, None),
                            "m": (int, None), "exact_threshold": (int, None)}),
    })
    if v.pop("type") == "plain":
        return None
    if v["q"] is None and v["nu"] is None:
        v["nu"] = DEFAULT_NU
    # absent keys take SmoothingConfig's defaults
    return build(path, SmoothingConfig, **{key: x for key, x in v.items() if x is not None})


def clean_source_from_spec(spec, channel: Channel, n: int, path: str = "clean_source"):
    """(source, clean sequence read from a file or None) of a clean-source spec."""
    source = read_typed(spec, path, "clean source", {
        "all_zeros": ({}, {}),
        "iid_bernoulli": ({}, {"p": (float, 0.5)}),
        "file": ({"path": str}, {}),
    })
    if not 0.0 <= source.get("p", 0.0) <= 1.0:
        raise ConfigError(f"{path}: Bernoulli parameter must lie in [0, 1], got {source['p']}")
    if source["type"] != "file":
        return source, None
    try:
        clean = check_sequence(np.loadtxt(source["path"], dtype=np.int64, ndmin=1),
                               channel.input_size, "clean file")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}.path: {exc}") from exc
    if len(clean) != n:
        raise ConfigError(f"{path}: clean file length {len(clean)} does not match n = {n}")
    return source, clean


def output_from_spec(spec, path: str = "output") -> tuple[str | None, str]:
    """(path or None, format) of an output spec."""
    v = read(spec, path, {}, {"path": (str, None), "format": (str, "csv")})
    if v["format"] not in ("csv", "json"):
        raise ConfigError(f"{path}: unknown output format: {v['format']!r}")
    return v["path"], v["format"]


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully parsed, immutable experiment description."""

    channel: Channel
    h: HMatrix
    h_choice: str
    lm: LossMatrix
    n: int
    clean_source: dict
    clean_file: np.ndarray | None
    d1: Denoiser
    d2: Denoiser
    smoothing: SmoothingConfig | None
    trials: int
    epsilons: tuple[float, ...]
    master_seed: int
    output_path: str | None
    output_format: str
    raw: dict

    @property
    def randomized(self) -> bool:
        return self.smoothing is not None

    @classmethod
    def from_json(cls, spec) -> "ExperimentConfig":
        """Parse an experiment config (dict or JSON text); every malformed or
        inconsistent config raises :class:`ConfigError` here."""
        spec = load(spec, "config")
        v = read(spec, "config", {
            "channel": dict, "n": int, "denoisers": dict, "trials": int, "master_seed": int,
        }, {
            "clean_source": (dict, {"type": "all_zeros"}),
            "combiner": (dict, {"type": "plain"}),
            "epsilons": ([float], []),
            "h": (str, None),
            "loss": (dict, {"type": "hamming"}),
            "output": (dict, {}),
        })
        n = v["n"]
        if n < 1 or v["trials"] < 1:
            raise ConfigError(f"config: n and trials must be >= 1, got {n} and {v['trials']}")
        if any(e <= 0 for e in v["epsilons"]):
            raise ConfigError("config.epsilons: deviation thresholds must be positive")
        channel = channel_from_json(v["channel"], "config.channel")
        source, clean_file = clean_source_from_spec(
            v["clean_source"], channel, n, "config.clean_source")
        d1, d2 = denoiser_pair_from_spec(v["denoisers"], channel, "config.denoisers")
        smoothing = smoothing_from_spec(v["combiner"], "config.combiner")
        if smoothing is not None and channel.pi.shape != (2, 2):
            raise ConfigError("config.combiner: randomized combining needs a binary channel")
        if smoothing is not None and smoothing.mode == "exact" and n > smoothing.exact_threshold:
            raise ConfigError(f"config.combiner: exact smoothing limited to "
                              f"n <= {smoothing.exact_threshold}, got n = {n}")
        h_choice, h = h_from_choice(channel, v["h"], "config.h")
        lm = LossMatrix.from_json(v["loss"], channel.input_size, "config.loss")
        if lm.size != channel.input_size:
            raise ConfigError("config.loss: loss matrix size does not match the clean alphabet")
        output_path, output_format = output_from_spec(v["output"], "config.output")
        return cls(
            channel=channel, h=h, h_choice=h_choice, lm=lm, n=n,
            clean_source=source, clean_file=clean_file, d1=d1, d2=d2,
            smoothing=smoothing, trials=v["trials"], epsilons=tuple(v["epsilons"]),
            master_seed=v["master_seed"], output_path=output_path,
            output_format=output_format, raw=spec,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class TrialRecord:
    """All quantities recorded for a single Monte Carlo trial."""

    trial: int
    seed: int
    parity: int
    loss_d1: float
    loss_d2: float
    est_d1: float
    est_d2: float
    chosen: int
    loss_combined: float
    sm_loss_d1: float | None = None
    sm_loss_d2: float | None = None
    sm_est_d1: float | None = None
    sm_est_d2: float | None = None
    mask_weight: int | None = None


def _sequence_parity(channel: Channel, z: np.ndarray) -> int:
    """Ones-parity on binary outputs; zero-count parity on a BEC; else -1."""
    if channel.output_size == 2:
        return int(z.sum() % 2)
    if is_bec(channel):
        return int((z == 0).sum() % 2)
    return -1


def _clean_sequence(cfg: ExperimentConfig, trial_stream: RngStream) -> np.ndarray:
    kind = cfg.clean_source["type"]
    if kind == "all_zeros":
        return np.zeros(cfg.n, dtype=np.int64)
    if kind == "iid_bernoulli":
        p = cfg.clean_source["p"]
        return (trial_stream.derive("clean").uniforms(cfg.n) < p).astype(np.int64)
    return cfg.clean_file


def _run_trial(cfg: ExperimentConfig, t: int) -> TrialRecord:
    trial = RngStream(cfg.master_seed).derive(f"trial/{t}")
    x = _clean_sequence(cfg, trial)
    z = sample_output(cfg.channel, x, trial.derive("channel"))
    o1, o2 = cfg.d1.denoise(z), cfg.d2.denoise(z)
    loss1 = cumulative_loss(cfg.lm, x, o1)
    loss2 = cumulative_loss(cfg.lm, x, o2)
    est1 = estimate_loss(cfg.channel, cfg.h, cfg.lm, cfg.d1, z)
    est2 = estimate_loss(cfg.channel, cfg.h, cfg.lm, cfg.d2, z)

    smoothed = {}
    if cfg.smoothing is None:
        sel = select_min_estimate(est1, est2)
        out = o1 if sel.chosen_index == 1 else o2
    else:
        out, sel, mask = randomized_combined_denoise(
            cfg.d1, cfg.d2, cfg.channel, cfg.h, cfg.lm, cfg.smoothing, z,
            trial.derive("combiner"),
        )
        drawn = mask_set(cfg.smoothing, cfg.n, trial.derive("smoothed-loss"))
        smoothed = {
            "sm_loss_d1": smoothed_conditional_loss(
                cfg.lm, cfg.d1, cfg.smoothing, x, z, drawn=drawn),
            "sm_loss_d2": smoothed_conditional_loss(
                cfg.lm, cfg.d2, cfg.smoothing, x, z, drawn=drawn),
            "sm_est_d1": sel.estimates[0],
            "sm_est_d2": sel.estimates[1],
            "mask_weight": int(mask.sum()),
        }
    return TrialRecord(
        trial=t, seed=trial.stream_id, parity=_sequence_parity(cfg.channel, z),
        loss_d1=loss1, loss_d2=loss2, est_d1=est1, est_d2=est2,
        chosen=sel.chosen_index, loss_combined=cumulative_loss(cfg.lm, x, out),
        **smoothed,
    )


def worker_count() -> int:
    """Thread count from DUO_THREADS, 1 when unset (affects speed only, never
    results)."""
    value = os.environ.get("DUO_THREADS", "1")
    if not (value.isascii() and value.isdigit() and int(value) >= 1):
        raise ConfigError(f"DUO_THREADS must be an integer >= 1, got {value!r}")
    return int(value)


def run_trials(cfg: ExperimentConfig) -> list[TrialRecord]:
    """All trials of the experiment, in trial-id order."""
    workers = worker_count()
    ids = range(cfg.trials)
    if workers == 1:
        return [_run_trial(cfg, t) for t in ids]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: _run_trial(cfg, t), ids))


def records_to_csv(records: list[TrialRecord], fh) -> None:
    """Write the trial CSV with the fixed column contract."""
    randomized = records and records[0].sm_est_d1 is not None
    header = TRIAL_COLUMNS + ("," + SMOOTHED_COLUMNS if randomized else "")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header.split(","))
    for r in records:
        row = [r.trial, r.seed, r.parity, r.loss_d1, r.loss_d2,
               r.est_d1, r.est_d2, r.chosen, r.loss_combined]
        if randomized:
            row += [r.sm_loss_d1, r.sm_loss_d2, r.sm_est_d1, r.sm_est_d2,
                    r.mask_weight]
        writer.writerow(row)


def records_csv_text(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    records_to_csv(records, buf)
    return buf.getvalue()


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    se = arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return float(arr.mean()), float(se)


def regret(records: list[TrialRecord], which: str = "plain") -> tuple[float, float]:
    """Mean combined loss minus the better candidate's mean loss, with a
    jackknife standard error.  ``which`` is a label check only; the candidate
    baselines are always the raw denoisers' realized losses."""
    if not records:
        raise ValueError("regret needs at least one trial record")
    if which not in ("plain", "randomized"):
        raise ValueError(f"unknown regret flavor: {which!r}")
    l1 = np.array([r.loss_d1 for r in records])
    l2 = np.array([r.loss_d2 for r in records])
    lc = np.array([r.loss_combined for r in records])
    value = lc.mean() - min(l1.mean(), l2.mean())
    n = len(records)
    if n == 1:
        return float(value), 0.0
    loo = lambda a: (a.sum() - a) / (n - 1)
    theta = loo(lc) - np.minimum(loo(l1), loo(l2))
    se = math.sqrt((n - 1) / n * ((theta - theta.mean()) ** 2).sum())
    return float(value), float(se)


def deviation_probability(records: list[TrialRecord], eps: float,
                          smoothed: bool = False):
    """Empirical P(|estimate - loss| >= eps) per denoiser, with binomial SEs.

    Returns ((p1, se1), (p2, se2)).
    """
    if eps <= 0:
        raise ValueError("deviation threshold must be positive")
    out = []
    for j in (1, 2):
        if smoothed:
            pairs = [(getattr(r, f"sm_est_d{j}"), getattr(r, f"sm_loss_d{j}"))
                     for r in records]
            if any(e is None or l is None for e, l in pairs):
                raise ValueError("smoothed deviation needs randomized-combiner records")
        else:
            pairs = [(getattr(r, f"est_d{j}"), getattr(r, f"loss_d{j}"))
                     for r in records]
        hits = sum(1 for e, l in pairs if abs(e - l) >= eps)
        p = hits / len(pairs)
        out.append((p, math.sqrt(p * (1.0 - p) / len(pairs))))
    return tuple(out)


def aggregate(records: list[TrialRecord], cfg: ExperimentConfig) -> dict:
    """Summary statistics with standard errors, plus the config echo."""
    which = "randomized" if cfg.randomized else "plain"
    means = {
        name: _mean_se([getattr(r, name) for r in records])
        for name in ("loss_d1", "loss_d2", "loss_combined", "est_d1", "est_d2")
    }
    if cfg.randomized:
        for name in ("sm_loss_d1", "sm_loss_d2", "sm_est_d1", "sm_est_d2"):
            means[name] = _mean_se([getattr(r, name) for r in records])
    reg_value, reg_se = regret(records, which)
    deviations = {}
    for eps in cfg.epsilons:
        (p1, s1), (p2, s2) = deviation_probability(records, eps,
                                                   smoothed=cfg.randomized)
        deviations[repr(eps)] = {"d1": [p1, s1], "d2": [p2, s2]}
    return {
        "version": f"duodenoise {__version__}",
        "config": cfg.raw,
        "h_choice": cfg.h_choice,
        "trials": len(records),
        "combiner": which,
        "means": {k: list(v) for k, v in means.items()},
        "chosen_2_fraction": sum(r.chosen == 2 for r in records) / len(records),
        "regret": {"value": reg_value, "se": reg_se},
        "deviation_probability": deviations,
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all trials, write the configured output file, return the aggregate."""
    records = run_trials(cfg)
    if cfg.output_path:
        if cfg.output_format == "csv":
            with open(cfg.output_path, "w") as fh:
                records_to_csv(records, fh)
        else:
            with open(cfg.output_path, "w") as fh:
                json.dump([r.__dict__ for r in records], fh, indent=1)
    return aggregate(records, cfg)


# --------------------------------------------------------------------------
# exact-enumeration oracles


def enumerate_expectation(ch: Channel, x, functional,
                          limit: int = ENUMERATION_LIMIT) -> float:
    """Exact E[functional(Z^n)] by summing over every channel output.

    ``functional`` maps an int64 sequence to a real.  The state space M^n is
    capped to keep this an oracle for small n only.
    """
    xs = check_sequence(x, ch.input_size, "clean sequence")
    n, m = len(xs), ch.output_size
    if m**n > limit:
        raise ValueError(f"state space {m}^{n} exceeds the enumeration limit {limit}")
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


def true_loss_functional(lm: LossMatrix, d: Denoiser, x):
    """z -> realized normalized loss of d against the fixed clean x."""
    xs = np.asarray(x, dtype=np.int64)
    return lambda z: cumulative_loss(lm, xs, d.denoise(z))


def estimate_functional(ch: Channel, h: HMatrix, lm: LossMatrix, d: Denoiser):
    """z -> estimated normalized loss of d."""
    return lambda z: estimate_loss(ch, h, lm, d, z)


# --------------------------------------------------------------------------
# total influence


def empirical_influence(f, x, ch: Channel, samples: int,
                        rng: RngStream) -> tuple[float, float]:
    """Monte Carlo total influence of f under the channel law at input x.

    One sample draws an i.i.d. pair (Z, Z~) and sums |f(Z) - f(Z with
    coordinate j resampled)| over j.  ``f`` must accept a (B, n) batch and
    return a length-B array.  Returns (estimate, standard error).
    """
    xs = check_sequence(x, ch.input_size, "clean sequence")
    n = len(xs)
    totals = np.empty(samples)
    for s in range(samples):
        stream = rng.derive(f"influence/{s}")
        z = sample_output(ch, xs, stream.derive("z"))
        zt = sample_output(ch, xs, stream.derive("resample"))
        rows = np.tile(z, (n + 1, 1))
        rows[np.arange(1, n + 1), np.arange(n)] = zt
        vals = np.asarray(f(rows), dtype=np.float64)
        totals[s] = np.abs(vals[0] - vals[1:]).sum()
    return _mean_se(totals)


def pointwise_influence(f, cfg: SmoothingConfig, z,
                        rng: RngStream | None = None,
                        chunk: int = 64) -> tuple[float, float]:
    """Sum over single-coordinate flips of the smoothed functional's change.

    ``f`` is the underlying batch functional ({0,1}^n rows -> reals); its
    smoothed version fbar(z) = E_W f(z xor W) is evaluated per ``cfg``.
    Exact mode returns (value, 0.0).  Monte Carlo mode shares one mask set
    across all flips and reports, as the error scale, the sum of the
    per-coordinate standard errors of the signed differences -- a
    conservative bound, since taking absolute values folds that noise into
    the estimate itself.
    """
    zs = check_sequence(z, 2, "sequence")
    n = len(zs)
    if cfg.mode == "monte_carlo" and rng is None:
        raise ValueError("monte_carlo pointwise influence needs an RngStream")
    masks, weights = mask_set(cfg, n, rng)
    if cfg.mode == "exact":
        rows = np.tile(zs, (n + 1, 1))
        rows[np.arange(1, n + 1), np.arange(n)] ^= 1
        big = (rows[:, None, :] ^ masks[None, :, :]).reshape(-1, n)
        fbar = np.asarray(f(big), dtype=np.float64).reshape(n + 1, -1) @ weights
        return float(np.abs(fbar[0] - fbar[1:]).sum()), 0.0

    m = masks.shape[0]
    base = np.asarray(f(zs[None, :] ^ masks), dtype=np.float64)
    value_terms, se_terms = [], []
    for start in range(0, n, chunk):
        js = np.arange(start, min(start + chunk, n))
        flipped = np.repeat((zs[None, :] ^ masks)[None, :, :], len(js), axis=0)
        flipped[np.arange(len(js)), :, js] ^= 1
        vals = np.asarray(f(flipped.reshape(-1, n)), dtype=np.float64)
        diffs = base[None, :] - vals.reshape(len(js), m)
        value_terms.append(np.abs(diffs.mean(axis=1)).sum())
        se_terms.append((diffs.std(axis=1, ddof=1) / math.sqrt(m)).sum())
    return float(math.fsum(value_terms)), float(math.fsum(se_terms))
