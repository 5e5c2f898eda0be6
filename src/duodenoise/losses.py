"""True losses, the unbiased loss estimator, and its smoothed variants.

The central object is the estimator that turns a noisy sequence into an
estimate of a denoiser's cumulative loss without seeing the clean input: per
position it combines the channel dual matrix h with the losses the denoiser
would incur under every hypothetical value of that noisy symbol.  Estimates
are never clamped; negative values are meaningful (they are what drives the
estimate-minimizing combiner astray on the parity pairs).

All position sums use compensated (math.fsum) accumulation in index order, so
results do not depend on scheduling or vectorization details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ERASURE, Channel, HMatrix, check_sequence, is_bec
from .denoisers import Denoiser, SmoothingConfig, mask_set
from .rng import RngStream
from .spec import build, read_typed


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """Per-symbol loss lambda(clean, reconstruction), nonnegative entries."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lam, dtype=np.float64)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ValueError("loss matrix must be square")
        if lam.min() < 0.0 or not np.isfinite(lam).all():
            raise ValueError("losses must be finite and nonnegative")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    @property
    def size(self) -> int:
        return self.lam.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.lam.max())

    @classmethod
    def hamming(cls, k: int = 2) -> "LossMatrix":
        return cls(1.0 - np.eye(k))

    @classmethod
    def from_json(cls, text_or_dict, k: int = 2, path: str = "loss") -> "LossMatrix":
        """Parse a loss spec (dict or JSON text); Hamming loss is over ``k``
        symbols unless the spec names its own ``k``."""
        values = read_typed(text_or_dict, path, "loss type", {
            "hamming": ({}, {"k": (int, k)}),
            "matrix": ({"lambda": [[float]]}, {}),
        })
        if values["type"] == "hamming":
            return build(path, cls.hamming, values["k"])
        return build(path, cls, values["lambda"])


def cumulative_loss(lm: LossMatrix, x, xhat) -> float:
    """Normalized cumulative loss (1/n) sum_i lambda(x_i, xhat_i)."""
    xs = check_sequence(x, lm.size, "clean sequence")
    hs = check_sequence(xhat, lm.size, "reconstruction")
    if len(xs) != len(hs):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(hs)}")
    return math.fsum(lm.lam[xs, hs]) / len(xs)


def _estimates_from_table(ch: Channel, h: HMatrix, lm: LossMatrix,
                          z: np.ndarray, tab: np.ndarray) -> np.ndarray:
    """Per-symbol estimates from the substituted-output table tab[i, a]."""
    lam_tab = lm.lam[:, tab]                      # (K, n, M)
    inner = np.einsum("xia,xa->xi", lam_tab, ch.pi)
    return (h.h[:, z] * inner).sum(axis=0)


def per_symbol_estimate(ch: Channel, h: HMatrix, lm: LossMatrix,
                        d: Denoiser, z, i: int) -> float:
    """Estimated loss incurred at position i, from the noisy sequence alone."""
    estimates = per_symbol_estimates(ch, h, lm, d, z)
    if not 0 <= i < len(estimates):
        raise IndexError(f"position {i} out of range for length {len(estimates)}")
    return float(estimates[i])


def per_symbol_estimates(ch: Channel, h: HMatrix, lm: LossMatrix,
                         d: Denoiser, z) -> np.ndarray:
    """All n per-symbol estimates (one substituted-output table pass)."""
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    return _estimates_from_table(ch, h, lm, zs, d.substituted_outputs(zs))


def estimate_loss(ch: Channel, h: HMatrix, lm: LossMatrix, d: Denoiser, z) -> float:
    """Unbiased estimate of the normalized cumulative loss of d on z.

    May be negative; no clamping is performed.
    """
    return math.fsum(per_symbol_estimates(ch, h, lm, d, z)) / len(z)


def erasure_estimate_loss(ch: Channel, lm: LossMatrix, d: Denoiser, z) -> float:
    """Erasure-channel shortcut: for each unerased symbol, the loss the
    denoiser would incur there had that symbol been erased.

    Coincides exactly with :func:`estimate_loss` under the canonical erasure h
    when the erasure probability is 1/2 and the denoiser copies unerased
    symbols; otherwise the general estimator carries an extra eps/(1-eps)
    factor and a residual term for the copied positions.
    """
    if not is_bec(ch):
        raise ValueError("erasure estimate requires a binary erasure channel")
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    tab = d.substituted_outputs(zs)[:, ERASURE]
    unerased = zs != ERASURE
    return math.fsum(lm.lam[zs[unerased], tab[unerased]]) / len(zs)


@dataclass(frozen=True, eq=False)
class JointTypeCounts:
    """Counts N[b0, b1, b2] of positions with noisy symbol b0, denoised symbol
    b1, and denoised symbol b2 after flipping that noisy position."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape != (2, 2, 2) or counts.min() < 0:
            raise ValueError("counts must be a nonnegative 2x2x2 table")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def pair_count(self, b0: int, b1: int) -> int:
        return int(self.counts[b0, b1].sum())

    def symbol_count(self, b0: int) -> int:
        return int(self.counts[b0].sum())


def joint_type_counts(z, d: Denoiser) -> JointTypeCounts:
    """Joint type of (z, denoise(z), single-flip denoised symbols), binary case."""
    if d.input_size != 2:
        raise ValueError("joint type counts are defined for binary channels")
    zs = check_sequence(z, 2, "noisy sequence")
    xhat = d.denoise(zs)
    flipped = d.substituted_outputs(zs)[np.arange(len(zs)), 1 - zs]
    idx = 4 * zs + 2 * xhat + flipped
    return JointTypeCounts(np.bincount(idx, minlength=8).reshape(2, 2, 2))


def bsc_estimate_from_type(delta: float, t: JointTypeCounts, n: int) -> float:
    """Closed-form BSC loss estimate (Hamming loss) from the joint type.

    Algebraically identical to :func:`estimate_loss` on the same (z, d).
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    c = t.counts
    dbar = 1.0 - delta
    ratio = 1.0 - 2.0 * delta
    total = (
        -(delta / ratio) * (c[0, 0, 0] + c[1, 1, 1])
        + delta * (c[0, 0, 1] + c[1, 1, 0])
        + dbar * (c[0, 1, 0] + c[1, 0, 1])
        + (dbar / ratio) * (c[0, 1, 1] + c[1, 0, 0])
    )
    return float(total) / n


def per_symbol_deviation(ch: Channel, h: HMatrix, lm: LossMatrix, d: Denoiser,
                         x, z, i: int) -> float:
    """Estimate minus realized loss at position i (diagnostic; needs clean x).

    Summed over i and normalized this telescopes to
    estimate_loss - cumulative_loss.
    """
    xs = check_sequence(x, lm.size, "clean sequence")
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    est = per_symbol_estimate(ch, h, lm, d, zs, i)
    return est - float(lm.lam[xs[i], d.denoise(zs)[i]])


def _binary_check(d: Denoiser):
    if d.input_size != 2 or d.output_size != 2:
        raise ValueError("smoothed losses are defined for binary alphabets")


def smoothed_conditional_loss(lm: LossMatrix, d: Denoiser, cfg: SmoothingConfig,
                              x, z, rng: RngStream | None = None, *,
                              drawn=None) -> float:
    """Expected (over the flip mask) normalized loss of the smoothed denoiser.

    ``drawn`` is a (masks, weights) pair from :func:`mask_set`, for sharing
    one set between denoisers; without it the set is drawn from ``rng``.
    """
    _binary_check(d)
    xs = check_sequence(x, lm.size, "clean sequence")
    zs = check_sequence(z, 2, "noisy sequence")
    if len(xs) != len(zs):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(zs)}")
    n = len(zs)
    masks, weights = mask_set(cfg, n, rng) if drawn is None else drawn
    outs = d.denoise_batch(zs.astype(np.uint8)[None, :] ^ masks)     # (B, n)
    # binary outputs: each position's loss is one of its two loss entries
    lam_x = lm.lam[xs]
    per_mask = np.where(outs, lam_x[:, 1], lam_x[:, 0]).sum(axis=1) / n
    return float(weights @ per_mask)


def smoothed_per_symbol_estimates(ch: Channel, h: HMatrix, lm: LossMatrix,
                                  d: Denoiser, cfg: SmoothingConfig, z,
                                  rng: RngStream | None = None, *,
                                  drawn=None) -> np.ndarray:
    """Per-symbol estimates of the smoothed denoiser's expected loss.

    One mask set is shared across all positions and substituted symbols: a
    substituted-then-flipped evaluation equals a flipped-then-substituted one
    with the substituted symbol XORed by the mask bit, so each mask costs one
    substituted-output table.  ``drawn`` is a (masks, weights) pair from
    :func:`mask_set`; passing the same pair for both candidates of a
    combiner evaluates them on one mask set by construction.  Without it the
    set is drawn from ``rng``.  Monte Carlo masks are bool and the flipped
    inputs uint8, so the parity denoisers' per-mask tables take one byte per
    entry.

    The mask-weighted mean is one ``einsum`` over the mask axis, which adds
    the masks in index order: its bits do not depend on the table's integer
    dtype (a BLAS product or chunked partial sums would move low-order bits).
    """
    _binary_check(d)
    if ch.input_size != 2 or ch.output_size != 2:
        raise ValueError("smoothed estimation targets binary channels")
    zs = check_sequence(z, 2, "noisy sequence")
    n = len(zs)
    masks, weights = mask_set(cfg, n, rng) if drawn is None else drawn
    tabs = d.substituted_outputs_batch(zs.astype(np.uint8)[None, :] ^ masks)  # (B, n, 2)
    # entry [b, i, a] of the flipped table answers symbol a ^ masks[b, i]
    picked = np.empty_like(tabs)
    picked[..., 0] = np.where(masks, tabs[..., 1], tabs[..., 0])
    picked[..., 1] = np.where(masks, tabs[..., 0], tabs[..., 1])
    mean_out = np.einsum("b,bia->ia", weights, picked)
    # binary outputs: expected loss is a mixture of the two loss columns
    exp_loss = (
        lm.lam[:, 0][:, None, None] * (1.0 - mean_out)[None, :, :]
        + lm.lam[:, 1][:, None, None] * mean_out[None, :, :]
    )                                               # (K, n, M)
    inner = np.einsum("xia,xa->xi", exp_loss, ch.pi)
    return (h.h[:, zs] * inner).sum(axis=0)


def estimate_smoothed_loss(ch: Channel, h: HMatrix, lm: LossMatrix, d: Denoiser,
                           cfg: SmoothingConfig, z,
                           rng: RngStream | None = None, *,
                           drawn=None) -> float:
    """Unbiased estimate of the smoothed denoiser's expected normalized loss."""
    vals = smoothed_per_symbol_estimates(ch, h, lm, d, cfg, z, rng, drawn=drawn)
    return math.fsum(vals) / len(vals)
