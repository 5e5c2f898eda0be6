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
    canonical_erasure_h,
    channel_from_json,
    check_sequence,
    compute_h,
    is_bec,
    sample_output,
)
from .combine import combined_denoise, randomized_combined_denoise
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

TRIAL_COLUMNS = (
    "trial,seed,parity,loss_d1,loss_d2,est_d1,est_d2,chosen,loss_combined"
)
SMOOTHED_COLUMNS = "sm_loss_d1,sm_loss_d2,sm_est_d1,sm_est_d2,mask_weight"

ENUMERATION_LIMIT = 10**7


class ConfigError(ValueError):
    """A malformed or inconsistent experiment configuration."""


def _take(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def denoiser_from_spec(spec: dict, channel: Channel) -> Denoiser:
    """Parse a single-denoiser JSON spec against a channel's alphabets."""
    kind = spec.get("type")
    k, m = channel.input_size, channel.output_size
    if kind == "identity":
        _take(spec, {"type"}, "identity denoiser")
        return IdentityDenoiser(k, m)
    if kind == "constant":
        _take(spec, {"type", "symbol"}, "constant denoiser")
        return ConstantDenoiser(int(spec.get("symbol", 0)), k, m)
    if kind == "sliding_window":
        _take(spec, {"type", "k", "rule", "table"}, "sliding-window denoiser")
        rule = spec.get("rule", spec.get("table"))
        if rule is None:
            raise ConfigError("sliding_window needs a rule or table")
        if isinstance(rule, list):
            rule = np.asarray(rule)
        return make_sliding_window(int(spec["k"]), rule, m, k)
    raise ConfigError(f"unknown denoiser type: {kind!r}")


def denoiser_pair_from_spec(spec: dict, channel: Channel) -> tuple[Denoiser, Denoiser]:
    kind = spec.get("type")
    if kind == "bec_parity_pair":
        _take(spec, {"type"}, "denoiser pair")
        if not is_bec(channel):
            raise ConfigError("bec_parity_pair requires a binary erasure channel")
        return make_bec_parity_pair()
    if kind == "bsc_counterexample_pair":
        _take(spec, {"type", "delta"}, "denoiser pair")
        return make_bsc_counterexample_pair(float(spec["delta"]))
    if kind == "pair":
        _take(spec, {"type", "first", "second"}, "denoiser pair")
        return (
            denoiser_from_spec(spec["first"], channel),
            denoiser_from_spec(spec["second"], channel),
        )
    raise ConfigError(f"unknown denoiser pair type: {kind!r}")


def _smoothing_from_spec(spec: dict) -> SmoothingConfig:
    _take(spec, {"type", "q", "nu", "mode", "m", "exact_threshold"}, "combiner")
    kwargs = {key: spec[key] for key in ("q", "nu", "mode", "m", "exact_threshold")
              if key in spec}
    if "q" not in kwargs:
        kwargs.setdefault("nu", 0.75)
    return SmoothingConfig(**kwargs)


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
        if isinstance(spec, (str, bytes)):
            spec = json.loads(spec)
        _take(
            spec,
            {"channel", "n", "clean_source", "denoisers", "combiner", "trials",
             "epsilons", "master_seed", "h", "loss", "output"},
            "experiment config",
        )
        for key in ("channel", "n", "denoisers", "trials", "master_seed"):
            if key not in spec:
                raise ConfigError(f"missing required config key: {key!r}")
        channel = channel_from_json(spec["channel"])
        n = int(spec["n"])
        if n < 1:
            raise ConfigError(f"block length must be >= 1, got {n}")
        trials = int(spec["trials"])
        if trials < 1:
            raise ConfigError(f"trial count must be >= 1, got {trials}")
        epsilons = tuple(float(e) for e in spec.get("epsilons", ()))
        if any(e <= 0 for e in epsilons):
            raise ConfigError("deviation thresholds must be positive")

        source = dict(spec.get("clean_source", {"type": "all_zeros"}))
        _take(source, {"type", "p", "path"}, "clean_source")
        clean_file = None
        if source.get("type") == "file":
            clean_file = check_sequence(
                np.loadtxt(source["path"], dtype=np.int64, ndmin=1),
                channel.input_size, "clean file",
            )
            if len(clean_file) != n:
                raise ConfigError(
                    f"clean file length {len(clean_file)} does not match n = {n}"
                )
        elif source.get("type") == "iid_bernoulli":
            p = float(source.get("p", 0.5))
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"Bernoulli parameter must lie in [0, 1], got {p}")
        elif source.get("type") != "all_zeros":
            raise ConfigError(f"unknown clean source: {source.get('type')!r}")

        d1, d2 = denoiser_pair_from_spec(spec["denoisers"], channel)

        combiner = dict(spec.get("combiner", {"type": "plain"}))
        if combiner.get("type") == "plain":
            _take(combiner, {"type"}, "combiner")
            smoothing = None
        elif combiner.get("type") == "randomized":
            smoothing = _smoothing_from_spec(combiner)
        else:
            raise ConfigError(f"unknown combiner type: {combiner.get('type')!r}")

        h_choice = spec.get("h", "canonical_erasure" if is_bec(channel) else "min_norm")
        if h_choice == "min_norm":
            h = compute_h(channel)
        elif h_choice == "canonical_erasure":
            h = canonical_erasure_h(channel)
        else:
            raise ConfigError(f"unknown h choice: {h_choice!r}")

        lm = LossMatrix.from_json(spec.get("loss", {"type": "hamming"}))
        if lm.size != channel.input_size:
            raise ConfigError("loss matrix size does not match the clean alphabet")

        output = dict(spec.get("output") or {})
        _take(output, {"path", "format"}, "output")
        output_format = output.get("format", "csv")
        if output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format: {output_format!r}")

        return cls(
            channel=channel, h=h, h_choice=h_choice, lm=lm, n=n,
            clean_source=source, clean_file=clean_file, d1=d1, d2=d2,
            smoothing=smoothing, trials=trials, epsilons=epsilons,
            master_seed=int(spec["master_seed"]),
            output_path=output.get("path"), output_format=output_format,
            raw=spec,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


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
    kind = cfg.clean_source.get("type", "all_zeros")
    if kind == "all_zeros":
        return np.zeros(cfg.n, dtype=np.int64)
    if kind == "iid_bernoulli":
        p = float(cfg.clean_source.get("p", 0.5))
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
        out, sel = combined_denoise(cfg.d1, cfg.d2, cfg.channel, cfg.h, cfg.lm, z)
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
    """Thread cap from DUO_THREADS (affects speed only, never results)."""
    try:
        return max(1, int(os.environ.get("DUO_THREADS", "1")))
    except ValueError:
        return 1


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


def smoothed_loss_functional(lm: LossMatrix, d: Denoiser, cfg: SmoothingConfig, x):
    """z -> exact expected loss of the smoothed d against the fixed clean x."""
    xs = np.asarray(x, dtype=np.int64)
    return lambda z: smoothed_conditional_loss(lm, d, cfg, xs, z)


# --------------------------------------------------------------------------
# total influence


def smoothed_position_functional(d: Denoiser, cfg: SmoothingConfig, i: int,
                                 rng: RngStream | None = None):
    """Batch functional rows -> E_W of the smoothed output at position i."""

    def fbar(rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(rows)
        n = rows.shape[1]
        masks, weights = mask_set(cfg, n, rng)
        big = (rows[:, None, :] ^ masks[None, :, :]).reshape(-1, n)
        outs = d.denoise_batch(big)[:, i].reshape(rows.shape[0], -1)
        return outs @ weights

    return fbar


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
