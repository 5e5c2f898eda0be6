"""Slow, obviously correct references that the tests check the library by.

One reference per quantity, from per-position loops, closed forms or the
one-sequence bodies the batch paths replaced; where a test compares bits, a
reference runs the numpy operations, in the order, whose bits the library
keeps.  From ``duodenoise`` it imports only the data types and constants
that ``test_exports`` allows.  It may call the batch methods of a denoiser
it is handed, which ``test_denoisers`` checks against :func:`reference_denoise`.
"""

from __future__ import annotations

import math

import numpy as np

from duodenoise.channel import ERASURE
from duodenoise.denoisers import (
    BecParityDenoiser,
    ConstantDenoiser,
    IdentityDenoiser,
    ParityCopyDenoiser,
    ParityMarkedZerosDenoiser,
    SlidingWindowDenoiser,
)
from duodenoise.rng import RngStream

M64 = (1 << 64) - 1


def fresh(stream: RngStream) -> np.random.Generator:
    """A generator built from the stream's Philox key, not by ``RngStream``."""
    key = ((stream.master_seed & M64) << 64) | (stream.stream_id & M64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_outputs(channel, xs, u) -> np.ndarray:
    """The inverse-CDF sampler as one (..., M) comparison, clipped to M - 1."""
    cum = np.cumsum(channel.pi, axis=1)
    z = (u[..., None] >= cum[xs]).sum(axis=-1)
    return np.minimum(z, channel.output_size - 1).astype(np.int64)


def reference_denoise(d, z) -> np.ndarray:
    """One-sequence reconstruction, the parity denoisers' by their former
    scalar methods; identity and constant do not read a window table."""
    z = np.asarray(z, dtype=np.int64)
    if isinstance(d, IdentityDenoiser):
        return np.array([s if s < d.output_size else 0 for s in z.tolist()], dtype=np.int64)
    if isinstance(d, ConstantDenoiser):
        return np.full(len(z), d.symbol, dtype=np.int64)
    if isinstance(d, SlidingWindowDenoiser):
        padded = [0] * d.k + z.tolist() + [0] * d.k
        out = []
        for i in range(len(z)):
            code = 0
            for s in padded[i : i + 2 * d.k + 1]:
                code = code * d.input_size + s
            out.append(d.table[code])
        return np.array(out, dtype=np.int64)
    if isinstance(d, BecParityDenoiser):
        fill = ((z == 0).sum() + d.complement) % 2
        return np.where(z == ERASURE, fill, z)
    if isinstance(d, ParityCopyDenoiser):
        return z.copy() if z.sum() % 2 else np.zeros(len(z), dtype=np.int64)
    if isinstance(d, ParityMarkedZerosDenoiser):
        out = np.zeros(len(z), dtype=np.int64)
        if z.sum() % 2:
            zero_pos = np.flatnonzero(z == 0)
            out[zero_pos[: math.floor(d.delta * len(zero_pos))]] = 1
        return out
    raise TypeError(f"no reference for {type(d).__name__}")


def brute_force_table(d, z: np.ndarray) -> np.ndarray:
    """The substituted-output table t[i, a]: z re-denoised with a at i."""
    z = np.asarray(z, dtype=np.int64)
    return np.array([[reference_denoise(d, np.concatenate([z[:i], [a], z[i + 1:]]))[i]
                      for a in range(d.input_size)] for i in range(len(z))], dtype=np.int64)


def reference_batch(d, rows) -> tuple[np.ndarray, np.ndarray]:
    """The reconstructions and substituted-output tables of rows, one by one."""
    return (np.stack([reference_denoise(d, r) for r in rows]),
            np.stack([brute_force_table(d, r) for r in rows]))


def reference_stratified_weights(masks: np.ndarray, q: float) -> np.ndarray:
    """Weights post-stratified on mask parity, ``sum % 2``: each class holds
    its probability, P(odd) = (1 - (1 - 2q)^n) / 2; 1/m when one is empty."""
    m, n = masks.shape
    parity = masks.sum(axis=1) % 2
    n_odd = int(parity.sum())
    if n_odd == 0 or n_odd == m:
        return np.full(m, 1.0 / m)
    p_odd = 0.5 * (1.0 - (1.0 - 2.0 * q) ** n)
    return np.where(parity == 1, p_odd / n_odd, (1.0 - p_odd) / (m - n_odd))


def reference_mask_set(cfg, n, rng):
    """int64 masks and weights, afresh: all 2^n masks in counter order, each
    of probability q^k (1 - q)^(n - k), or ``random((m, n)) < q`` drawn from
    a fresh generator of ``rng`` and stratified on parity."""
    q = cfg.resolve_q(n)
    if cfg.mode == "exact":
        masks = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        k = masks.sum(axis=1)
        return masks, np.power(q, k) * np.power(1.0 - q, n - k)
    masks = (fresh(rng).random((cfg.m, n)) < q).astype(np.int64)
    return masks, reference_stratified_weights(masks, q)


def estimates_kernel(ch, h, lam_tab: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_x h[x, z_i] sum_a pi[x, a] lam_tab[x, ..., i, a] per position, of
    the (K, ..., n, M) loss table: one ``einsum``, in-place products, a sum."""
    inner = np.einsum("x...a,xa->x...", lam_tab, ch.pi)
    for x, h_x in enumerate(h):
        inner[x] *= h_x[z]
    return inner.sum(axis=0)


def fsum_means(terms: np.ndarray) -> np.ndarray:
    """Each row's math.fsum over its n terms, divided by n."""
    return np.array([math.fsum(row) / terms.shape[1] for row in terms.tolist()])


def reference_estimate_losses(ch, h, lm, d, zs) -> np.ndarray:
    """The plain estimate of each row of the (B, n) batch zs: the fsum mean
    of the kernel's estimates on its substituted outputs, no context table."""
    return fsum_means(estimates_kernel(ch, h, lm[:, d.substituted_outputs_batch(zs)], zs))


def gathered_means(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Each table gathered at the codes, then :func:`fsum_means`."""
    return np.array([fsum_means(table[codes]) for table in tables])


def reference_per_symbol(ch, h, lm, d, cfg, z, rng) -> np.ndarray:
    """The smoothed per-symbol estimates by the former kernel: a flipped
    int64 table by ``take_along_axis``, averaged over the masks in float64."""
    zs = np.asarray(z, dtype=np.int64)
    masks, weights = reference_mask_set(cfg, len(zs), rng)
    tabs = d.substituted_outputs_batch(zs[None, :] ^ masks)
    sub_flip = masks[:, :, None] ^ np.arange(2)[None, None, :]
    mean_out = np.einsum("b,bia->ia", weights,
                         np.take_along_axis(tabs, sub_flip, axis=2).astype(float))
    exp_loss = (lm[:, 0][:, None, None] * (1.0 - mean_out)[None, :, :]
                + lm[:, 1][:, None, None] * mean_out[None, :, :])
    return estimates_kernel(ch, h, exp_loss, zs)


def reference_conditional_loss(lm, d, cfg, x, z, rng) -> float:
    """The smoothed conditional loss: each mask's mean loss as numpy's sum
    of its gathered terms, weighted over the masks."""
    xs, zs = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
    masks, weights = reference_mask_set(cfg, len(zs), rng)
    per_mask = lm[xs[None, :], d.denoise_batch(zs[None, :] ^ masks)].sum(axis=1) / len(zs)
    return float(weights @ per_mask)


def records_csv_text(table: dict[str, list]) -> str:
    """The trial CSV: the column names, then each trial's values by ``str``."""
    lines = [list(table), *zip(*table.values())]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def reference_rows(cfg, trial: RngStream):
    """The trial's clean and noisy rows, each from a fresh generator of its stream."""
    kind = cfg.clean_source["type"]
    if kind == "all_zeros":
        x = np.zeros(cfg.n, dtype=np.int64)
    elif kind == "iid_bernoulli":
        x = (fresh(trial.derive("clean")).random(cfg.n) < cfg.clean_source["p"]).astype(np.int64)
    else:
        x = cfg.clean_file
    return x, reference_outputs(cfg.channel, x, fresh(trial.derive("channel")).random(cfg.n))


def reference_plain_trial(cfg, t: int) -> dict:
    """The per-trial plain path the blocked one replaced: one-sequence
    sampling and denoising, ``math.fsum`` means of per-position losses and
    estimates, and the smaller estimate chosen, ties to the first."""
    trial = RngStream(cfg.master_seed).derive(f"trial/{t}")
    x, z = reference_rows(cfg, trial)
    o1, o2 = cfg.d1.denoise(z), cfg.d2.denoise(z)
    loss = lambda out: math.fsum(cfg.lm[x, out].tolist()) / cfg.n
    est1, est2 = (float(reference_estimate_losses(cfg.channel, cfg.h, cfg.lm, d, z[None])[0])
                  for d in (cfg.d1, cfg.d2))
    chosen = 1 if est1 <= est2 else 2
    pi, eps = cfg.channel.pi, cfg.channel.pi[0, -1]
    parity = int(z.sum() % 2) if pi.shape[1] == 2 else -1
    if np.array_equal(pi, [[1.0 - eps, 0.0, eps], [0.0, 1.0 - eps, eps]]):     # a BEC
        parity = int((z == 0).sum() % 2)
    return dict(trial=t, seed=trial.stream_id, parity=parity, loss_d1=loss(o1),
                loss_d2=loss(o2), est_d1=est1, est_d2=est2, chosen=chosen,
                loss_combined=loss(o1 if chosen == 1 else o2))


def reference_randomized_trial(cfg, t: int) -> dict:
    """Trial t's seven randomized columns, afresh: each candidate's smoothed
    estimate, the fsum mean of :func:`reference_per_symbol` over the
    ``estimation-masks`` set of the trial's ``combiner`` stream; the smaller
    one chosen, ties to the first; the winner emitted on z flipped by one
    ``random(n) < q`` mask of the combiner's ``emitted-mask`` stream; and
    each candidate's smoothed loss over the trial's ``smoothed-loss`` set."""
    trial = RngStream(cfg.master_seed).derive(f"trial/{t}")
    x, z = reference_rows(cfg, trial)
    ch, smoothing, combiner = cfg.channel, cfg.smoothing, trial.derive("combiner")
    est1, est2 = (fsum_means(reference_per_symbol(ch, cfg.h, cfg.lm, d, smoothing, z,
                                                  combiner.derive("estimation-masks"))[None])[0]
                  for d in (cfg.d1, cfg.d2))
    chosen = 1 if est1 <= est2 else 2
    q = smoothing.resolve_q(cfg.n)
    mask = (fresh(combiner.derive("emitted-mask")).random(cfg.n) < q).astype(np.int64)
    out = reference_denoise((cfg.d1, cfg.d2)[chosen - 1], z ^ mask)
    drawn = trial.derive("smoothed-loss")
    sm1, sm2 = (reference_conditional_loss(cfg.lm, d, smoothing, x, z, drawn)
                for d in (cfg.d1, cfg.d2))
    return dict(chosen=chosen, loss_combined=math.fsum(cfg.lm[x, out].tolist()) / cfg.n,
                sm_loss_d1=sm1, sm_loss_d2=sm2, sm_est_d1=est1, sm_est_d2=est2,
                mask_weight=int(mask.sum()))


def reference_expectation(ch, x, functional, block_bytes=None) -> float:
    """E f(Z) for Z drawn through the channel from x: the support's states in
    counter order, each weighted by its product of pi entries, those of
    weight 0.0 dropped, one fsum.  f takes one int64 sequence at a time or,
    with ``block_bytes``, (B, n) chunks of that many bytes of states, each
    state decoded digit by digit from its index."""
    xs = np.asarray(x, dtype=np.int64)
    n, rows = len(xs), ch.pi[xs]
    support = [np.flatnonzero(row) for row in rows]
    states = math.prod(map(len, support))
    size = states if block_bytes is None else max(1, block_bytes // (8 * n))
    values = []
    for start in range(0, states, size):
        index = np.arange(start, min(start + size, states))
        z = np.empty((len(index), n), dtype=np.int64)
        for pos in range(n - 1, -1, -1):
            index, digit = np.divmod(index, len(support[pos]))
            z[:, pos] = support[pos][digit]
        weights = rows[np.arange(n), z].prod(axis=1)
        z, weights = z[weights > 0.0], weights[weights > 0.0]
        if block_bytes is None:
            values += [float(w) * float(functional(row)) for w, row in zip(weights, z)]
        elif len(z):
            values += (weights * np.asarray(functional(z), dtype=np.float64)).tolist()
    return math.fsum(values)


def parity_functional(rows):
    return np.atleast_2d(np.asarray(rows)).sum(axis=1) % 2


def sine_functional(rows):
    """A functional that is not a function of parity alone."""
    return np.sin(rows @ np.linspace(0.3, 1.7, rows.shape[1])) + parity_functional(rows)


def reference_pointwise_influence(f, cfg, z, rng=None):
    """The pointwise influence sum_j |E f(z ^ mask) - E f(z ^ e_j ^ mask)|,
    one flip j at a time: over the exact weights, or in Monte Carlo mode as
    plain means over the masks, with the sum of each flip's standard error
    (0.0 in exact mode)."""
    zs = np.asarray(z, dtype=np.int64)
    masks, weights = reference_mask_set(cfg, len(zs), rng)
    base = np.asarray(f(zs ^ masks), dtype=np.float64)
    values, ses = [], [0.0]
    for j in range(len(zs)):
        flipped = zs ^ masks
        flipped[:, j] ^= 1
        diffs = base - np.asarray(f(flipped), dtype=np.float64)
        if cfg.mode == "exact":
            values.append(abs(diffs @ weights))
        else:
            values.append(abs(diffs.mean()))
            ses.append(diffs.std(ddof=1) / math.sqrt(len(masks)))
    return math.fsum(values), math.fsum(ses)
