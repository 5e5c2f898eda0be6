"""Monte Carlo experiment driver, exact-enumeration oracles, and influence.

Experiments are declared as JSON configs (channel, block length, clean
source, denoiser pair, combiner, trial count, master seed).  The parsers of
a config's parts only read JSON; the :class:`ExperimentConfig` constructor
checks every rule on the values, so a config is checked the same way
however it is built.  Each trial gets its own derived random streams, so
results are independent of blocking, worker count and execution order.
Trials run in blocks through the denoisers' batch paths; plain blocks run
in the calling thread, randomized blocks on `DUO_THREADS` threads, which
change speed only.  The module also provides exact expectations by
state-space enumeration (the unbiasedness oracle) and pointwise
total-influence measurements.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import mmap
import os

import numpy as np

from . import __version__
from .channel import (
    Channel,
    channel_from_json,
    check_binary_channel,
    check_sequence,
    h_from_choice,
    is_bec,
    outputs_from_uniforms,
    parse_symbols,
)
from .combine import choose, randomized_combined_denoise
from .denoisers import (
    ENUMERATION_LIMIT,
    ConstantDenoiser,
    Denoiser,
    IdentityDenoiser,
    SmoothingConfig,
    _parity,
    blocks,
    functional_values,
    make_bec_parity_pair,
    make_bsc_counterexample_pair,
    make_sliding_window,
    mask_set,
    masked_values,
)
from .losses import (
    _array_key,
    _check_denoiser_fit,
    _check_fit,
    _check_h_fit,
    _check_loss_fit,
    _key_array,
    cumulative_loss,
    estimate_losses,
    loss_from_json,
    losses_and_estimates,
    smoothed_conditional_loss,
    true_losses,
)
from .record import Record
from .rng import RngStream, _child_id, uniform_rows
from .spec import ConfigError, build, load, read, read_typed

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
    if (v["rule"] is None) == (v["table"] is None):
        raise ConfigError(f"{path}: sliding_window needs exactly one of rule and table")
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
    """The smoothing of a randomized-combiner spec; None for a plain one.
    Exact mode enumerates every mask, so an exact spec that names m is
    rejected."""
    v = read_typed(spec, path, "combiner type", {
        "plain": ({}, {}),
        "randomized": ({}, {"q": (float, None), "nu": (float, None), "mode": (str, None),
                            "m": (int, None)}),
    })
    if v.pop("type") == "plain":
        return None
    if v["mode"] == "exact" and v["m"] is not None:
        raise ConfigError(f"{path}.m: exact mode enumerates every mask and reads no m")
    if v["q"] is None and v["nu"] is None:
        v["nu"] = DEFAULT_NU
    # absent keys take SmoothingConfig's defaults
    return build(path, SmoothingConfig, **{key: x for key, x in v.items() if x is not None})


def clean_source_from_spec(spec, path: str = "clean_source"):
    """(source, clean sequence read from a file or None) of a clean-source spec."""
    source = read_typed(spec, path, "clean source", {
        "all_zeros": ({}, {}),
        "iid_bernoulli": ({}, {"p": (float, 0.5)}),
        "file": ({"path": str}, {}),
    })
    if source["type"] != "file":
        return source, None
    try:
        with open(source["path"]) as fh:
            return source, parse_symbols(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}.path: {exc}") from exc


def check_seed(seed: int, path: str) -> int:
    """The seed, once it lies in [0, 2^64): a stream keys on its master seed
    modulo 2^64, so any other seed would alias one in that range."""
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{path}: a seed must lie in [0, 2^64), got {seed}")
    return seed


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only array of ``dtype``: ``a`` itself when it already
    is one that owns its data, else a read-only copy, so that no array a
    caller can still write is frozen or shared."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        return a
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


class ExperimentConfig(Record):
    """A fully parsed experiment description: immutable, and equal only to
    itself.

    The constructor checks every rule on a config's values, raising
    :class:`ConfigError` that names the part at fault, and holds ``h``,
    ``lm`` and ``clean_file`` as read-only arrays, whether the config comes
    from :meth:`from_json`, a direct call, ``pickle`` or ``copy``.
    """

    def __init__(self, channel: Channel, h: np.ndarray, h_choice: str, lm: np.ndarray, n: int,
                 clean_source: dict, clean_file: np.ndarray | None, d1: Denoiser, d2: Denoiser,
                 smoothing: SmoothingConfig | None, trials: int, epsilons: tuple[float, ...],
                 master_seed: int, output_path: str | None, output_format: str, raw: dict):
        h, lm, epsilons = _frozen(h, np.float64), _frozen(lm, np.float64), tuple(epsilons)
        if n < 1 or trials < 1:
            raise ConfigError(f"config: n and trials must be >= 1, got {n} and {trials}")
        if not all(0.0 < e < math.inf for e in epsilons):     # NaN fails too
            raise ConfigError("config.epsilons: deviation thresholds must be positive and finite")
        if len(set(epsilons)) < len(epsilons):
            raise ConfigError("config.epsilons: deviation thresholds must be distinct")
        check_seed(master_seed, "config.master_seed")
        if n * channel.output_size > ENUMERATION_LIMIT:
            raise ConfigError(f"config.n: a trial's substituted-output table of {n} x "
                              f"{channel.output_size} entries exceeds the limit "
                              f"{ENUMERATION_LIMIT}")
        kind = clean_source.get("type")
        if kind not in ("all_zeros", "iid_bernoulli", "file"):
            raise ConfigError(f"config.clean_source: unknown clean source: {kind!r}")
        p = clean_source.get("p") if kind == "iid_bernoulli" else 0.0
        if p is None or not 0.0 <= p <= 1.0:
            raise ConfigError(f"config.clean_source: Bernoulli parameter must lie in [0, 1], "
                              f"got {p}")
        if (kind == "file") != (clean_file is not None):
            raise ConfigError(f"config.clean_source: source type {kind!r} "
                              f"{'needs a' if kind == 'file' else 'takes no'} clean file")
        if clean_file is not None:
            clean_file = _frozen(build("config.clean_source.path", check_sequence, clean_file,
                                       channel.input_size, "clean file"), np.int64)
            if len(clean_file) != n:
                raise ConfigError(f"config.clean_source: clean file length {len(clean_file)} "
                                  f"does not match n = {n}")
        if smoothing is not None:
            build("config.combiner", check_binary_channel, channel)
            build("config.combiner", smoothing.check_length, n)
        build("config.h", _check_h_fit, channel, h)
        build("config.loss", _check_loss_fit, channel, lm)
        for d in (d1, d2):
            build("config.denoisers", _check_denoiser_fit, channel, d)
        # a position's estimate is at most K * max|h| * max lambda in magnitude,
        # its loss at most max lambda, and so are a trial's means of them
        bound = channel.input_size * float(np.abs(h).max()) * float(lm.max())
        sums = n * max(float(lm.max()), bound), 2 * bound * 2 * bound * trials
        if not all(map(math.isfinite, sums)):
            raise ConfigError(f"config.loss: a largest loss of {lm.max():g} can overflow a "
                              f"run's sums: n * max lambda * max(1, K * max|h|) and "
                              f"(2 * K * max|h| * max lambda)^2 * trials must be finite")
        if output_format not in ("csv", "json"):
            raise ConfigError(f"config.output: unknown output format: {output_format!r}")
        if output_path == "":
            raise ConfigError("config.output.path: an empty path names no file")
        if output_path is not None:
            directory = os.path.dirname(output_path) or "."
            if not os.path.isdir(directory):
                raise ConfigError(f"config.output.path: {directory!r} is not an existing directory")
            if os.path.isdir(output_path):
                raise ConfigError(f"config.output.path: {output_path!r} is a directory, not a file")
        self.__dict__.update(
            channel=channel, h=h, h_choice=h_choice, lm=lm, n=n, clean_source=clean_source,
            clean_file=clean_file, d1=d1, d2=d2, smoothing=smoothing, trials=trials,
            epsilons=epsilons, master_seed=master_seed, output_path=output_path,
            output_format=output_format, raw=raw)

    @property
    def randomized(self) -> bool:
        return self.smoothing is not None

    @classmethod
    def from_json(cls, spec) -> "ExperimentConfig":
        """Parse an experiment config (dict or JSON text).  The parsers of its
        parts read JSON only: they reject unknown keys, missing keys, values
        of the wrong JSON type and unreadable clean files, and build each
        part.  Every rule on the values, within a part or across parts, is
        the constructor's; either way a defect raises :class:`ConfigError`
        here."""
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
        channel = channel_from_json(v["channel"], "config.channel")
        source, clean_file = clean_source_from_spec(v["clean_source"], "config.clean_source")
        d1, d2 = denoiser_pair_from_spec(v["denoisers"], channel, "config.denoisers")
        smoothing = smoothing_from_spec(v["combiner"], "config.combiner")
        h_choice, h = h_from_choice(channel, v["h"], "config.h")
        lm = loss_from_json(v["loss"], channel.input_size, "config.loss")
        output = read(v["output"], "config.output", {},
                      {"path": (str, None), "format": (str, "csv")})
        return cls(
            channel=channel, h=h, h_choice=h_choice, lm=lm, n=v["n"],
            clean_source=source, clean_file=clean_file, d1=d1, d2=d2,
            smoothing=smoothing, trials=v["trials"], epsilons=v["epsilons"],
            master_seed=v["master_seed"], output_path=output["path"],
            output_format=output["format"], raw=spec,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _parities(channel: Channel, zs: np.ndarray) -> np.ndarray:
    """Per row: ones-parity on binary outputs, zero-count parity on a BEC,
    else -1."""
    if channel.output_size == 2:
        return _parity(zs)
    if is_bec(channel):
        return _parity(zs == 0)
    return np.full(len(zs), -1)


def _block(cfg: ExperimentConfig, ids: range) -> dict[str, list]:
    """The trial table of consecutive trials (see :func:`run_trials`).

    Each trial draws its clean and channel uniforms from its own streams,
    the ``"clean"`` and ``"channel"`` children of its ``trial/<t>`` stream;
    :func:`rng.uniform_rows` draws each set as one (B, n) block, over which
    each denoiser makes one ``substituted_outputs_batch`` pass, from which
    :func:`losses.losses_and_estimates` counts its loss and its estimate.
    The plain combiner picks per row by :func:`combine.choose`; a randomized
    run takes the rest of each row from :func:`_run_trial`.
    """
    root = RngStream(cfg.master_seed)
    seeds = [_child_id(root.stream_id, f"trial/{t}") for t in ids]
    kind = cfg.clean_source["type"]
    if kind == "iid_bernoulli":
        u = uniform_rows(cfg.master_seed, [_child_id(s, "clean") for s in seeds], cfg.n)
        x = (u < cfg.clean_source["p"]).astype(np.int64)
    else:
        clean = np.zeros(cfg.n, np.int64) if kind == "all_zeros" else cfg.clean_file
        x = np.broadcast_to(clean, (len(ids), cfg.n))
    u = uniform_rows(cfg.master_seed, [_child_id(s, "channel") for s in seeds], cfg.n)
    z = outputs_from_uniforms(cfg.channel, x, u)
    (l1, e1), (l2, e2) = (losses_and_estimates(cfg.channel, cfg.h, cfg.lm, d, x, z)
                          for d in (cfg.d1, cfg.d2))
    table = {
        "trial": list(ids), "seed": seeds, "parity": _parities(cfg.channel, z).tolist(),
        "loss_d1": l1.tolist(), "loss_d2": l2.tolist(),
        "est_d1": e1.tolist(), "est_d2": e2.tolist(),
    }
    if cfg.randomized:
        rows = zip(*(_run_trial(cfg, t, x[row], z[row], RngStream(cfg.master_seed, seed))
                     for row, (t, seed) in enumerate(zip(ids, seeds))))
        table.update(zip(("chosen", "loss_combined", "sm_loss_d1", "sm_loss_d2", "sm_est_d1",
                          "sm_est_d2", "mask_weight"), map(list, rows)))
        return table
    chosen = choose(e1, e2)
    table["chosen"] = chosen.tolist()
    table["loss_combined"] = np.where(chosen == 1, l1, l2).tolist()
    return table


def _run_trial(cfg: ExperimentConfig, t: int, x, z, trial: RngStream) -> tuple:
    """Trial t's chosen, loss_combined, sm_loss_d1, sm_loss_d2, sm_est_d1,
    sm_est_d2 and mask_weight: the randomized combiner's selection and
    losses on its clean row x and noisy row z, drawn from its stream.

    The library does not use ``t``; ``benchmarks/tracer.py`` reads it, in
    second position, as the trial id that tags its spans."""
    out, sel, mask = randomized_combined_denoise(
        cfg.d1, cfg.d2, cfg.channel, cfg.h, cfg.lm, cfg.smoothing, z,
        trial.derive("combiner"),
    )
    drawn = mask_set(cfg.smoothing, cfg.n, trial.derive("smoothed-loss"))
    sm_losses = [smoothed_conditional_loss(cfg.lm, d, drawn, x, z) for d in (cfg.d1, cfg.d2)]
    return (sel.chosen_index, cumulative_loss(cfg.lm, x, out), *sm_losses, *sel.estimates,
            int(mask.sum()))


def worker_count() -> int:
    """Thread count from DUO_THREADS, 1 when unset (affects speed only, never
    results)."""
    value = os.environ.get("DUO_THREADS", "1")
    if not (value.isascii() and value.isdigit() and int(value) >= 1):
        raise ConfigError(f"DUO_THREADS must be an integer >= 1, got {value!r}")
    return int(value)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not every platform has affinity masks
        return os.cpu_count() or 1


def run_trials(cfg: ExperimentConfig) -> dict[str, list]:
    """The trial table: a dict from each CSV column name, in header order, to
    a list of Python ints and floats with one entry per trial, in trial-id
    order.  The randomized columns (``sm_*`` and ``mask_weight``) are present
    only for randomized runs.

    Trials run in blocks of consecutive ids whose int64 noisy rows fill at
    most ``denoisers.BLOCK_BYTES``, and of one trial at least
    (``blocks(trials, 8 * n)``).  Plain blocks run in the calling thread;
    randomized blocks run on min(DUO_THREADS, blocks, usable CPUs) threads.
    """
    ids = [range(cfg.trials)[part] for part in blocks(cfg.trials, 8 * cfg.n)]
    workers = min(worker_count(), len(ids), _usable_cpus())
    if workers == 1 or not cfg.randomized:
        return _concatenate(_block(cfg, block) for block in ids)
    # imported here: most runs start no pool, and the import costs milliseconds
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _concatenate(pool.map(_block, [cfg] * len(ids), ids))


def _concatenate(tables) -> dict[str, list]:
    """The blocks' tables as one, their lists joined in order."""
    table = {}
    for part in tables:
        for name, column in part.items():
            table.setdefault(name, []).extend(column)
    return table


def records_to_csv(table: dict[str, list], fh) -> None:
    """Write the trial table of :func:`run_trials` as CSV, one row per trial under the header."""
    csv.writer(fh, lineterminator="\n").writerows(
        itertools.chain([list(table)], zip(*table.values())))


def aggregate(table: dict[str, list], cfg: ExperimentConfig) -> dict:
    """Summary statistics with standard errors, plus the config echo, of a
    trial table (see :func:`run_trials`).  Each column a summary reads --
    the losses, the estimates and ``chosen`` -- becomes one float64 array.

    ``regret`` is the mean combined loss minus the better candidate's mean
    loss, with a jackknife standard error; the candidate baselines are the
    raw denoisers' realized losses, for either combiner.
    ``deviation_probability`` maps each config threshold eps to each
    denoiser's empirical P(|estimate - loss| >= eps), with its binomial
    standard error; a randomized config reads the smoothed estimates and
    losses.  Before any column is read, a table that lacks a column the
    summary reads, has columns of different lengths or has no rows raises
    ``ValueError`` naming the column.
    """
    names = ["loss_d1", "loss_d2", "loss_combined", "est_d1", "est_d2"]
    if cfg.randomized:
        names += ["sm_loss_d1", "sm_loss_d2", "sm_est_d1", "sm_est_d2"]
    combiner = "randomized" if cfg.randomized else "plain"
    lengths = {name: len(column) for name, column in table.items()}
    for name in names + ["chosen"]:
        if name not in lengths:
            raise ValueError(f"the trial table has no {name!r} column for a {combiner} summary")
    n = lengths["loss_d1"]
    for name, length in lengths.items():
        if length != n:
            raise ValueError(f"trial table column {name!r} has {length} rows, 'loss_d1' has {n}")
    if not n:
        raise ValueError("trial table column 'loss_d1' has no rows")
    cols = {name: np.array(table[name], np.float64) for name in names + ["chosen"]}
    l1, l2, lc = cols["loss_d1"], cols["loss_d2"], cols["loss_combined"]
    loo = lambda a: (a.sum() - a) / max(n - 1, 1)
    theta = loo(lc) - np.minimum(loo(l1), loo(l2))
    se = lambda a: float(a.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    share = lambda p: [p, math.sqrt(p * (1.0 - p) / n)]      # with its binomial SE
    kind = "sm_" if cfg.randomized else ""
    gaps = [abs(cols[f"{kind}est_d{j}"] - cols[f"{kind}loss_d{j}"]) for j in (1, 2)]
    return {
        "version": f"duodenoise {__version__}",
        "config": cfg.raw,
        "h_choice": cfg.h_choice,
        "trials": n,
        "combiner": combiner,
        "means": {name: [float(cols[name].mean()), se(cols[name])] for name in names},
        "chosen_2_fraction": int(np.count_nonzero(cols["chosen"] == 2)) / n,
        "regret": {"value": float(lc.mean() - min(l1.mean(), l2.mean())),
                   "se": math.sqrt((n - 1) / n * ((theta - theta.mean()) ** 2).sum())},
        "deviation_probability": {
            repr(eps): {f"d{j}": share(int(np.count_nonzero(gap >= eps)) / n)
                        for j, gap in enumerate(gaps, 1)} for eps in cfg.epsilons},
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all trials, write the configured output file, return the aggregate."""
    table = run_trials(cfg)
    if cfg.output_path is not None:
        with open(cfg.output_path, "w") as fh:
            if cfg.output_format == "csv":
                records_to_csv(table, fh)
            else:
                json.dump([dict(zip(table, row)) for row in zip(*table.values())], fh, indent=1)
    return aggregate(table, cfg)


# --------------------------------------------------------------------------
# exact-enumeration oracles


def enumerate_expectation(ch: Channel, x, functional) -> float:
    """Exact E[functional(Z^n)] by summing over every channel output.

    ``functional`` maps a (B, n) int64 batch of outputs to B reals, like the
    influence functionals; anything but shape (B,) raises ``ValueError``.
    Only outputs of positive weight are evaluated (each position ranges over
    its support pi[x_i, z] > 0, and a weight that underflows to 0.0 is
    dropped), in lexicographic order with the last position fastest, one
    call per chunk of int64 states of at most ``denoisers.BLOCK_BYTES``
    (``blocks(states, 8 * n)``).  The weighted values go into one correctly
    rounded ``math.fsum``, so the total does not depend on the chunking.
    At most ENUMERATION_LIMIT states keep this an oracle for small n only.

    The states are decoded once per process, not once per chunk: a table
    holds the states and factors pi[x_i, z_i] of the trailing positions over
    their period, the smallest product of trailing support sizes that covers
    a chunk (or of all of them), so it takes less than 2 * M times a chunk's
    bytes of states for M output symbols.  The table depends only on the
    channel, the trailing clean symbols and the period, and is cached on
    them (:func:`_trailing_digits`).  A chunk reads its rows at
    index % period and writes in the leading positions of at most two
    decoded indices, so each weight is the ``.prod(axis=1)`` of the same
    factor row as a digit-by-digit decode.
    """
    xs = check_sequence(x, ch.input_size, "clean sequence")
    rows = ch.pi[xs]
    support = [np.flatnonzero(row) for row in rows]
    states = math.prod(len(s) for s in support)
    if states > ENUMERATION_LIMIT:
        raise ValueError(f"state space of {states} outputs exceeds the enumeration "
                         f"limit {ENUMERATION_LIMIT}")
    parts = blocks(states, 8 * len(xs))
    # no chunk is longer than the period, so it meets two leading parts at most
    lead, period = len(xs), 1
    while lead and period < parts[0].stop:
        lead -= 1
        period *= len(support[lead])
    low = _trailing_digits(_array_key(ch.pi), tuple(xs[lead:].tolist()), lead, period)

    def chunk(part: slice) -> list[float]:
        high, offset = divmod(part.start, period)
        wrap = period - offset          # rows before the trailing digits wrap
        top = _decode(rows[:lead], support[:lead], np.array([high, high + 1]))
        index = np.arange(part.start, part.stop) % period
        z, factors = (tail.take(index, axis=0) for tail in low)
        for out, head in zip((z, factors), top):
            out[:wrap, :lead], out[wrap:, :lead] = head
        weights = factors.prod(axis=1)
        if not weights.all():           # products that underflow to 0.0
            z, weights = z[weights > 0.0], weights[weights > 0.0]
            if not len(z):
                return []
        return (weights * functional_values(functional(z), len(z))).tolist()

    return math.fsum(itertools.chain.from_iterable(map(chunk, parts)))


def _decode(rows: np.ndarray, support: list[np.ndarray], index: np.ndarray):
    """(states, factors rows[i, z_i]), each (len(index), len(rows)), of the
    positions whose channel rows pi[x_i] are ``rows`` and whose supports are
    ``support``: position i takes the support entry of the mixed-radix
    digit i of index, the last position fastest."""
    z = np.empty((len(index), len(rows)), dtype=np.int64)
    for pos in range(len(rows) - 1, -1, -1):
        index, digit = np.divmod(index, len(support[pos]))
        z[:, pos] = support[pos][digit]
    return z, rows[np.arange(len(rows)), z]


@functools.lru_cache(maxsize=8)
def _trailing_digits(pi: tuple, tail: tuple[int, ...], lead: int, period: int):
    """The read-only trailing-digit table of :func:`enumerate_expectation`:
    (states, factors) of shape (period, lead + len(tail)) whose last
    positions, for the clean symbols ``tail``, are decoded from 0..period-1
    under the channel matrix of the ``losses._array_key`` key ``pi``.  The
    first ``lead`` columns hold zeros, which every chunk overwrites.  Built
    once per key in a process, so an oracle pass allocates no table of its
    own.
    """
    rows = _key_array(pi)[list(tail)]
    # zero-filled anonymous maps, not the malloc heap: a held table there can
    # pin the heap's top below each chunk's temporaries, which glibc then
    # trims and faults in again chunk by chunk under a fixed trim threshold
    shape = (period, lead + len(tail))
    z, factors = (np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype).reshape(shape)
                  for dtype in (np.int64, np.float64))
    z[:, lead:], factors[:, lead:] = _decode(rows, [np.flatnonzero(row) for row in rows],
                                             np.arange(period))
    z.flags.writeable = factors.flags.writeable = False
    return z, factors


def _check_batch(zs, alphabet_size: int) -> np.ndarray:
    """A (B, n) batch of noisy sequences, validated as check_sequence does one."""
    arr = np.asarray(zs)
    if arr.ndim != 2:
        raise ValueError(f"a batch functional takes (B, n) sequences, got shape {arr.shape}")
    return check_sequence(arr.ravel(), alphabet_size, "noisy batch").reshape(arr.shape)


def true_loss_functional(lm: np.ndarray, d: Denoiser, x):
    """Batch functional: row z -> cumulative_loss(lm, x, d.denoise(z)), the
    realized normalized loss of d against the fixed clean x."""
    xs = check_sequence(x, len(lm), "clean sequence")

    def functional(zs):
        zs = _check_batch(zs, d.input_size)
        if zs.shape[1] != len(xs):
            raise ValueError(f"length mismatch: {len(xs)} vs {zs.shape[1]}")
        return true_losses(lm, d, xs, zs)

    return functional


def estimate_functional(ch: Channel, h: np.ndarray, lm: np.ndarray, d: Denoiser):
    """Batch functional: row z -> estimate_loss(ch, h, lm, d, z), the
    estimated normalized loss of d; h, lm and d are checked here, once."""
    _check_fit(ch, h, lm, d)
    return lambda zs: estimate_losses(ch, h, lm, d, _check_batch(zs, ch.output_size))


# --------------------------------------------------------------------------
# total influence


def pointwise_influence(f, cfg: SmoothingConfig, z,
                        rng: RngStream | None = None) -> tuple[float, float]:
    """Sum over single-coordinate flips of the smoothed functional's change.

    ``f`` is the underlying batch functional ({0,1}^n rows -> reals); its
    smoothed version fbar(z) = E_W f(z xor W) is evaluated per ``cfg`` on
    one mask set shared by z and its n single flips.  Exact mode returns the
    sum of |fbar(z) - fbar(z with j flipped)| over the exact mask weights,
    and 0.0, from one walk of the 2^n masks: z with bit j flipped, under mask
    b, is z under mask b xor 2^j, so for a row-wise batch functional (a row's
    value does not depend on its batch) this gives the bits of a walk per
    flip.  Monte Carlo mode walks the m drawn masks for z and each flip,
    weighs them by plain 1/m, not by the stratified weights of ``mask_set``,
    and reports, as the error scale, the sum of the per-coordinate standard
    errors of the signed differences -- a conservative bound, since taking
    absolute values folds that noise into the estimate itself.  Those errors
    need m >= 2, so a smaller m is rejected before any mask is drawn.
    """
    zs = check_sequence(z, 2, "sequence")
    if cfg.mode != "exact" and cfg.m < 2:
        raise ValueError(f"a Monte Carlo influence's standard error needs m >= 2 masks, "
                         f"got {cfg.m}")
    n = len(zs)
    masks, weights = mask_set(cfg, n, rng)
    base = masked_values(f, masks, zs)
    if cfg.mode == "exact":         # bit j of mask b is bit j of b (enumerate_masks)
        b = np.arange(len(masks))
        return math.fsum(abs((base - base[b ^ (1 << j)]) @ weights) for j in range(n)), 0.0

    def diffs(j: int) -> np.ndarray:
        flipped = zs.copy()
        flipped[j] ^= 1
        return base - masked_values(f, masks, flipped)

    root_m = math.sqrt(len(masks))
    value_terms, se_terms = zip(*((abs(d.mean()), d.std(ddof=1) / root_m)
                                  for d in map(diffs, range(n))))
    return math.fsum(value_terms), math.fsum(se_terms)
