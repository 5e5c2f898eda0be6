"""Denoisers: block maps from noisy sequences to reconstructions.

Besides the obvious ones (identity, constant, sliding window), this module
holds the two parity-driven pairs whose global sensitivity defeats plain loss
estimation, plus Bernoulli smoothing machinery.  Every denoiser supports a
substituted-output table -- at each position i, the output there after
replacing the noisy symbol at i -- which is what the loss estimator consumes,
and vectorized batch paths used by the smoothing and influence code.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .channel import ERASURE, check_sequence
from .rng import RngStream


class Denoiser(ABC):
    """A deterministic map from noisy length-n sequences to clean-alphabet ones.

    ``input_size`` is the noisy alphabet size, ``output_size`` the clean one.
    Subclasses may override the substituted/batch methods with faster paths;
    the defaults fall back to full evaluations and are always consistent with
    :meth:`denoise` by construction.  Batch methods take (B, n) arrays of any
    integer or bool dtype (the smoothing kernels pass uint8) and return the
    same values as the one-sequence methods.
    """

    input_size: int
    output_size: int

    @abstractmethod
    def denoise(self, z) -> np.ndarray:
        """Full reconstruction of the noisy sequence z."""

    def spec(self) -> dict:
        """The JSON spec that ``harness.denoiser_from_spec`` reads back."""
        raise NotImplementedError(f"{type(self).__name__} has no JSON spec")

    def substituted_outputs(self, z) -> np.ndarray:
        """Table t[i, a] = denoise(z with position i set to a)[i], shape (n, input_size)."""
        zs = check_sequence(z, self.input_size, "noisy sequence")
        n = len(zs)
        tab = np.empty((n, self.input_size), dtype=np.int64)
        work = zs.copy()
        for i in range(n):
            orig = work[i]
            for a in range(self.input_size):
                work[i] = a
                tab[i, a] = self.denoise(work)[i]
            work[i] = orig
        return tab

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`denoise` of a (B, n) batch."""
        return np.stack([self.denoise(row) for row in zs])

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`substituted_outputs`, shape (B, n, input_size)."""
        return np.stack([self.substituted_outputs(row) for row in zs])


class IdentityDenoiser(Denoiser):
    """Copies each noisy symbol; symbols outside the clean alphabet (e.g. the
    erasure of a BEC) map to 0.  Copy-preserving on erasure channels."""

    def __init__(self, output_size: int = 2, input_size: int | None = None):
        self.output_size = output_size
        self.input_size = output_size if input_size is None else input_size

    def spec(self) -> dict:
        return {"type": "identity"}

    def denoise(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        return np.where(zs < self.output_size, zs, 0)

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        return np.where(zs < self.output_size, zs, 0)

    def substituted_outputs(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        row = np.array(
            [a if a < self.output_size else 0 for a in range(self.input_size)],
            dtype=np.int64,
        )
        return np.tile(row, (len(zs), 1))


class ConstantDenoiser(Denoiser):
    """Always outputs one fixed clean symbol."""

    def __init__(self, symbol: int, output_size: int = 2, input_size: int | None = None):
        if not 0 <= symbol < output_size:
            raise ValueError(f"constant symbol {symbol} outside clean alphabet")
        self.symbol = symbol
        self.output_size = output_size
        self.input_size = output_size if input_size is None else input_size

    def spec(self) -> dict:
        return {"type": "constant", "symbol": self.symbol}

    def denoise(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        return np.full(len(zs), self.symbol, dtype=np.int64)

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        return np.full(zs.shape, self.symbol, dtype=np.int64)

    def substituted_outputs(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        return np.full((len(zs), self.input_size), self.symbol, dtype=np.int64)


class SlidingWindowDenoiser(Denoiser):
    """Each output symbol is a fixed function of the window of 2k+1 noisy
    symbols centred there; boundaries are padded with symbol 0."""

    def __init__(self, k: int, table: np.ndarray, input_size: int = 2,
                 output_size: int = 2, rule_name: str | None = None):
        if k < 0:
            raise ValueError("window half-width must be nonnegative")
        width = 2 * k + 1
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (input_size ** width,):
            raise ValueError(
                f"incomplete table: need {input_size ** width} entries for "
                f"window width {width}, got {table.size}"
            )
        if table.min() < 0 or table.max() >= output_size:
            raise ValueError("table outputs outside the clean alphabet")
        self.k = k
        self.table = table
        self.input_size = input_size
        self.output_size = output_size
        self.rule_name = rule_name
        # window code = sum_t z[i-k+t] * B^(2k-t); centre digit weighs B^k
        self._weights = input_size ** np.arange(width - 1, -1, -1, dtype=np.int64)

    def spec(self) -> dict:
        if self.rule_name is not None:
            return {"type": "sliding_window", "k": self.k, "rule": self.rule_name}
        return {"type": "sliding_window", "k": self.k, "table": self.table.tolist()}

    def _codes(self, zs: np.ndarray) -> np.ndarray:
        k = self.k
        pad = [(0, 0)] * (zs.ndim - 1) + [(k, k)]
        zp = np.pad(zs, pad)
        n = zs.shape[-1]
        codes = np.zeros(zs.shape, dtype=np.int64)
        for t, w in enumerate(self._weights):
            codes += w * zp[..., t : t + n]
        return codes

    def denoise(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        return self.table[self._codes(zs)]

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        return self.table[self._codes(zs)]

    def _substituted_from_codes(self, zs: np.ndarray, codes: np.ndarray) -> np.ndarray:
        centre = self.input_size ** self.k
        base = codes - zs * centre
        out = np.empty(zs.shape + (self.input_size,), dtype=np.int64)
        for a in range(self.input_size):
            out[..., a] = self.table[base + a * centre]
        return out

    def substituted_outputs(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        return self._substituted_from_codes(zs, self._codes(zs))

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        return self._substituted_from_codes(zs, self._codes(zs))


def _majority_table(k: int, input_size: int) -> np.ndarray:
    width = 2 * k + 1
    table = np.empty(input_size ** width, dtype=np.int64)
    for code, window in enumerate(itertools.product(range(input_size), repeat=width)):
        ones = sum(1 for s in window if s == 1)
        zeros = sum(1 for s in window if s == 0)
        table[code] = 1 if ones > zeros else 0
    return table


def make_sliding_window(k: int, rule, input_size: int = 2,
                        output_size: int = 2) -> SlidingWindowDenoiser:
    """Build a sliding-window denoiser from a named rule or a complete table.

    ``rule`` is ``"majority"`` (vote among window symbols equal to 1 vs 0,
    ties and non-binary symbols resolving to 0), a dict from (2k+1)-tuples to
    output symbols, or a flat table indexed by the base-``input_size`` window
    code.
    """
    width = 2 * k + 1
    if isinstance(rule, str):
        if rule != "majority":
            raise ValueError(f"unknown sliding-window rule {rule!r}")
        return SlidingWindowDenoiser(k, _majority_table(k, input_size),
                                     input_size, output_size, rule_name="majority")
    if isinstance(rule, dict):
        table = np.full(input_size ** width, -1, dtype=np.int64)
        weights = input_size ** np.arange(width - 1, -1, -1)
        for window, out in rule.items():
            if len(window) != width:
                raise ValueError(f"rule key {window} does not have width {width}")
            table[int(np.dot(weights, window))] = out
        if (table < 0).any():
            raise ValueError("incomplete table: some windows have no rule entry")
        return SlidingWindowDenoiser(k, table, input_size, output_size)
    return SlidingWindowDenoiser(k, rule, input_size, output_size)


class BecParityDenoiser(Denoiser):
    """Erasure-channel denoiser driven by the parity of the zero count.

    Unerased symbols are copied.  Every erased position gets the parity of the
    number of 0s in the whole noisy sequence (``complement=False``) or its
    complement (``complement=True``) -- a globally sensitive rule: one symbol
    change can flip every erased output.
    """

    input_size = 3
    output_size = 2

    def __init__(self, complement: bool):
        self.complement = bool(complement)

    def _fill(self, n_zeros) -> np.ndarray:
        return (np.asarray(n_zeros) + self.complement) % 2

    def denoise(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        fill = self._fill((zs == 0).sum())
        return np.where(zs == ERASURE, fill, zs)

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        fill = self._fill((zs == 0).sum(axis=1))[:, None]
        return np.where(zs == ERASURE, fill, zs)

    def substituted_outputs(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        return self._substituted(zs, (zs == 0).sum())

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        return self._substituted(zs, (zs == 0).sum(axis=1)[:, None])

    def _substituted(self, zs: np.ndarray, n_zeros) -> np.ndarray:
        is_zero = (zs == 0).astype(np.int64)
        tab = np.empty(zs.shape + (3,), dtype=np.int64)
        tab[..., 0] = 0
        tab[..., 1] = 1
        tab[..., 2] = self._fill(n_zeros - is_zero)
        return tab


class ParityCopyDenoiser(Denoiser):
    """All-zeros on even ones-parity; copies the noisy sequence on odd parity."""

    input_size = 2
    output_size = 2

    def denoise(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        if zs.sum() % 2:
            return zs.copy()
        return np.zeros(len(zs), dtype=np.int64)

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        return zs * _odd(zs)

    def substituted_outputs(self, z) -> np.ndarray:
        return self._substituted(check_sequence(z, self.input_size, "noisy sequence"))

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        return self._substituted(zs)

    def _substituted(self, zs: np.ndarray) -> np.ndarray:
        tab = np.zeros(zs.shape + (2,), dtype=zs.dtype)
        # substituting a flips the parity whenever a != z_i
        tab[..., 1] = _odd(zs) ^ (zs == 0)
        return tab


class ParityMarkedZerosDenoiser(Denoiser):
    """All-zeros on even ones-parity; on odd parity, clears every noisy 1 and
    raises exactly the first floor(delta * N0) zero positions (ascending
    index), N0 being the number of noisy 0s.  The fixed position rule makes
    trials reproducible."""

    input_size = 2
    output_size = 2

    def __init__(self, delta: float):
        if not 0.0 < delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
        self.delta = float(delta)

    def denoise(self, z) -> np.ndarray:
        zs = check_sequence(z, self.input_size, "noisy sequence")
        out = np.zeros(len(zs), dtype=np.int64)
        if zs.sum() % 2:
            zero_pos = np.flatnonzero(zs == 0)
            out[zero_pos[: math.floor(self.delta * len(zero_pos))]] = 1
        return out

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        is_zero = zs == 0
        counts = np.floor(self.delta * is_zero.sum(axis=1, keepdims=True)).astype(np.int64)
        rank = np.cumsum(is_zero, axis=1, dtype=np.int32) - is_zero
        return (is_zero & (rank < counts) & _odd(zs)).astype(zs.dtype)

    def substituted_outputs(self, z) -> np.ndarray:
        return self._substituted(check_sequence(z, self.input_size, "noisy sequence"))

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        return self._substituted(zs)

    def _substituted(self, zs: np.ndarray) -> np.ndarray:
        is_zero = zs == 0
        n_zeros = is_zero.sum(axis=-1, keepdims=True)
        rank = np.cumsum(is_zero, axis=-1, dtype=np.int32) - is_zero
        # a = 1 always yields 0; a = 0 yields 1 on the resulting odd-parity
        # sequences at the marked leading zero positions.  Setting z_i = 0
        # leaves N0 zeros where z_i is 0 and N0 + 1 where it is 1, so each
        # row has only two counts floor(delta * (N0 - is_zero + 1)).
        counts = np.where(
            is_zero,
            np.floor(self.delta * n_zeros).astype(np.int32),
            np.floor(self.delta * (n_zeros + 1)).astype(np.int32),
        )
        tab = np.zeros(zs.shape + (2,), dtype=zs.dtype)
        tab[..., 0] = (_odd(zs) ^ ~is_zero) & (rank < counts)
        return tab


def _odd(zs: np.ndarray) -> np.ndarray:
    """Ones-parity of each binary sequence (last axis), kept as a length-1 axis."""
    return zs.sum(axis=-1, keepdims=True) % 2 == 1


def make_bec_parity_pair() -> tuple[BecParityDenoiser, BecParityDenoiser]:
    """The erasure-channel pair: opposite zero-count parity fills."""
    return BecParityDenoiser(complement=False), BecParityDenoiser(complement=True)


def make_bsc_counterexample_pair(
    delta: float,
) -> tuple[ParityCopyDenoiser, ParityMarkedZerosDenoiser]:
    """The BSC pair that defeats plain estimate-minimizing combination.

    Both output all-zeros on even ones-parity (identical there); on odd parity
    the first copies the noisy sequence while the second keeps a delta
    fraction of the zero positions raised.
    """
    return ParityCopyDenoiser(), ParityMarkedZerosDenoiser(delta)


@dataclass(frozen=True)
class SmoothingConfig:
    """How to randomize a denoiser with an i.i.d. Bernoulli-q flip mask.

    Exactly one of ``q`` (explicit flip rate) or ``nu`` (rate exponent,
    q = n^-nu) must be given.  ``mode`` selects exact enumeration of all 2^n
    masks (only for n <= exact_threshold) or Monte Carlo with ``m`` masks.
    """

    q: float | None = None
    nu: float | None = None
    mode: str = "monte_carlo"
    m: int = 128
    exact_threshold: int = 20

    def __post_init__(self):
        if (self.q is None) == (self.nu is None):
            raise ValueError("specify exactly one of q and nu")
        if self.q is not None and not 0.0 <= self.q < 0.5:
            raise ValueError(f"flip rate q must lie in [0, 1/2), got {self.q}")
        if self.nu is not None and not 0.0 < self.nu < 1.0:
            raise ValueError(f"exponent nu must lie in (0, 1), got {self.nu}")
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown smoothing mode {self.mode!r}")
        if self.m < 1:
            raise ValueError("Monte Carlo sample count m must be >= 1")
        if self.exact_threshold < 1:
            raise ValueError("exact_threshold must be >= 1")

    def resolve_q(self, n: int) -> float:
        return self.q if self.q is not None else float(n) ** (-self.nu)


def draw_smoothing_mask(cfg: SmoothingConfig, n: int, rng: RngStream) -> np.ndarray:
    """One i.i.d. Bernoulli-q flip mask of length n, as bool."""
    return rng.uniforms(n) < cfg.resolve_q(n)


def draw_smoothing_masks(cfg: SmoothingConfig, n: int, rng: RngStream) -> np.ndarray:
    """The cfg.m Monte Carlo masks of an estimator call, bool of shape (m, n)."""
    return rng.generator().random((cfg.m, n)) < cfg.resolve_q(n)


def enumerate_masks(n: int) -> np.ndarray:
    """All 2^n binary masks, shape (2^n, n), in lexicographic counter order."""
    return (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1


def exact_mask_weights(masks: np.ndarray, q: float) -> np.ndarray:
    """Probability of each mask under i.i.d. Bernoulli-q flips."""
    n = masks.shape[1]
    counts = masks.sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.power(q, counts) * np.power(1.0 - q, n - counts)


def stratified_mask_weights(masks: np.ndarray, q: float) -> np.ndarray:
    """Monte Carlo mask weights, post-stratified on mask parity.

    Parity of the flip mask is the dominant source of estimator variance for
    globally parity-sensitive denoisers, and its exact distribution is known:
    P(odd) = (1 - (1-2q)^n)/2.  Reweighting the drawn masks so each parity
    class carries its exact probability keeps the estimator unbiased (given
    both classes are hit) while collapsing that variance.  If a class is
    empty the plain 1/m weights are returned.
    """
    m, n = masks.shape
    parity = masks.sum(axis=1) % 2
    n_odd = int(parity.sum())
    if n_odd == 0 or n_odd == m:
        return np.full(m, 1.0 / m)
    p_odd = 0.5 * (1.0 - (1.0 - 2.0 * q) ** n)
    weights = np.where(parity == 1, p_odd / n_odd, (1.0 - p_odd) / (m - n_odd))
    return weights


def mask_set(cfg: SmoothingConfig, n: int, rng: RngStream | None):
    """(masks, weights) per the config mode; MC weights are parity-stratified.

    Monte Carlo masks are bool; exact mode enumerates all 2^n masks.  A set
    drawn once can be shared by every smoothed quantity that uses the same
    stream.
    """
    q = cfg.resolve_q(n)
    if cfg.mode == "exact":
        if n > cfg.exact_threshold:
            raise ValueError(
                f"exact smoothing limited to n <= {cfg.exact_threshold}, got n = {n}"
            )
        masks = enumerate_masks(n)
        return masks, exact_mask_weights(masks, q)
    if rng is None:
        raise ValueError("monte_carlo smoothing needs an RngStream")
    masks = draw_smoothing_masks(cfg, n, rng)
    return masks, stratified_mask_weights(masks, q)


def smoothed_expected_output(d: Denoiser, cfg: SmoothingConfig, z, i: int,
                             rng: RngStream | None = None) -> float:
    """E_W of the denoiser output at position i on the mask-flipped input."""
    if d.input_size != 2 or d.output_size != 2:
        raise ValueError("smoothing is defined for binary-alphabet denoisers")
    zs = check_sequence(z, d.input_size, "noisy sequence")
    if not 0 <= i < len(zs):
        raise IndexError(f"position {i} out of range for length {len(zs)}")
    masks, weights = mask_set(cfg, len(zs), rng)
    outs = d.denoise_batch(zs[None, :] ^ masks)[:, i]
    return float(weights @ outs)
