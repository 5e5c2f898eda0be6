"""Denoisers: block maps from noisy sequences to reconstructions.

Besides sliding windows, whose zero padding is virtual, and identity and
constant, the windows of half-width 0, this module holds the two
parity-driven pairs whose global sensitivity defeats plain loss
estimation, plus Bernoulli smoothing machinery.  Every denoiser is two batch
methods over (B, n) arrays: the reconstruction, and the substituted-output
table -- at each position i, the output there after replacing the noisy
symbol at i -- which is what the loss estimator consumes.  The one-sequence
methods run a sequence as a batch of one.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from .channel import ERASURE, check_sequence
from .rng import RngStream


class Denoiser(ABC):
    """A deterministic map from noisy length-n sequences to clean-alphabet ones.

    ``input_size`` is the noisy alphabet size, ``output_size`` the clean one.
    A subclass implements the two batch methods, which take (B, n) arrays of
    any integer or bool dtype (the smoothing kernels pass uint8); the
    one-sequence methods validate a sequence and run it as a batch of one.
    """

    input_size: int
    output_size: int

    @abstractmethod
    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        """Row-wise full reconstruction of a (B, n) batch.

        Each subclass keeps its own pass rather than reading the
        reconstruction off :meth:`substituted_outputs_batch`: that reading
        cut the benchmark's randomized n=4096 run from 47.4 to 34.7 trials/s
        (medians, 2-core machine)."""

    @abstractmethod
    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        """Per row, the table t[i, a] = denoise(row with position i set to
        a)[i], shape (B, n, input_size)."""

    def denoise(self, z) -> np.ndarray:
        """Full reconstruction of the noisy sequence z."""
        return self.denoise_batch(check_sequence(z, self.input_size, "noisy sequence")[None])[0]

    def substituted_outputs(self, z) -> np.ndarray:
        """The (n, input_size) substituted-output table of the sequence z."""
        zs = check_sequence(z, self.input_size, "noisy sequence")
        return self.substituted_outputs_batch(zs[None])[0]


class SlidingWindowDenoiser(Denoiser):
    """Each output symbol is a fixed function of the window of 2k+1 noisy
    symbols centred there: ``table`` at the base-``input_size`` window code,
    first symbol most significant.  Boundaries are padded with symbol 0, but
    virtually: no padded copy of the batch is built."""

    def __init__(self, k: int, table: np.ndarray, input_size: int = 2,
                 output_size: int = 2):
        if k < 0:
            raise ValueError("window half-width must be nonnegative")
        width = 2 * k + 1
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (input_size ** width,):
            raise ValueError(
                f"incomplete table: need {input_size ** width} entries for "
                f"window width {width}, got {table.size}"
            )
        bad = np.flatnonzero((table < 0) | (table >= output_size))
        if bad.size:
            raise ValueError(f"table entry {table[bad[0]]} at code {bad[0]} lies outside "
                             f"the clean alphabet [0, {output_size})")
        self.k = k
        self.table = table
        self.input_size = input_size
        self.output_size = output_size
        # _rows[c, a] = table entry of the window whose 2k neighbours have
        # code c (first neighbour most significant) and whose centre is a
        half = input_size ** k
        self._rows = table.reshape(half, input_size, half).transpose(0, 2, 1).reshape(-1, input_size)
        self._offsets = [s for s in range(-k, k + 1) if s]
        self._weights = input_size ** np.arange(2 * k - 1, -1, -1, dtype=np.int64)

    def _codes(self, zs: np.ndarray) -> np.ndarray:
        """(B, n) int64 neighbour codes: each position's row of ``_rows``.
        Offset s adds only where position i + s lies inside the sequence."""
        n = zs.shape[-1]
        codes = np.zeros(zs.shape, dtype=np.int64)
        for s, w in zip(self._offsets, self._weights):
            lo, hi = max(0, -s), min(n, n - s)
            if lo < hi:
                codes[..., lo:hi] += w * zs[..., lo + s : hi + s]
        return codes

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        codes = self._codes(zs)
        codes *= self.input_size
        codes += zs
        return np.take(self._rows, codes)

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        return np.take(self._rows, self._codes(zs), axis=0)


class IdentityDenoiser(SlidingWindowDenoiser):
    """Copies each noisy symbol; symbols outside the clean alphabet (e.g. the
    erasure of a BEC) map to 0.  Copy-preserving on erasure channels.  The
    window of half-width 0 whose table is that map."""

    def __init__(self, output_size: int = 2, input_size: int | None = None):
        input_size = output_size if input_size is None else input_size
        symbols = np.arange(input_size)
        super().__init__(0, np.where(symbols < output_size, symbols, 0), input_size, output_size)


class ConstantDenoiser(SlidingWindowDenoiser):
    """Always outputs one fixed clean symbol: the window of half-width 0
    whose table holds only that symbol."""

    def __init__(self, symbol: int, output_size: int = 2, input_size: int | None = None):
        if not 0 <= symbol < output_size:
            raise ValueError(f"constant symbol {symbol} outside clean alphabet")
        self.symbol = symbol
        input_size = output_size if input_size is None else input_size
        super().__init__(0, np.full(input_size, symbol), input_size, output_size)


def _majority_table(k: int, input_size: int) -> np.ndarray:
    """Majority vote of 1s against 0s over each window code, ties to 0."""
    codes = np.arange(input_size ** (2 * k + 1), dtype=np.int64)
    vote = np.zeros(codes.shape, dtype=np.int8)
    for power in input_size ** np.arange(2 * k + 1, dtype=np.int64):
        digit = codes // power % input_size
        vote += digit == 1
        vote -= digit == 0
    return (vote > 0).astype(np.int64)


def make_sliding_window(k: int, rule, input_size: int = 2,
                        output_size: int = 2) -> SlidingWindowDenoiser:
    """Build a sliding-window denoiser from a named rule or a complete table.

    ``rule`` is ``"majority"`` (vote among window symbols equal to 1 vs 0,
    ties and non-binary symbols resolving to 0) or a flat table indexed by
    the base-``input_size`` window code.  A window whose table would have
    more than ENUMERATION_LIMIT entries is rejected before anything is built.
    """
    width = 2 * k + 1
    # input_size >= 2, so capping the exponent keeps a huge k cheap to reject
    if input_size ** min(width, 64) > ENUMERATION_LIMIT:
        raise ValueError(f"a window of width {width} over {input_size} symbols needs "
                         f"{input_size}^{width} table entries, above {ENUMERATION_LIMIT}")
    if isinstance(rule, str):
        if rule != "majority":
            raise ValueError(f"unknown sliding-window rule {rule!r}")
        rule = _majority_table(k, input_size)
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

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        fill = _parity(zs == 0)[:, None] ^ self.complement
        return np.where(zs == ERASURE, fill, zs)

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        is_zero = zs == 0
        tab = np.empty(zs.shape + (3,), dtype=np.int64)
        tab[..., 0] = 0
        tab[..., 1] = 1
        # substituting the erasure removes position i's zero, if it held one
        tab[..., 2] = _parity(is_zero)[:, None] ^ self.complement ^ is_zero
        return tab


class ParityCopyDenoiser(Denoiser):
    """All-zeros on even ones-parity; copies the noisy sequence on odd parity."""

    input_size = 2
    output_size = 2

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        return zs * _odd(zs)

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        tab = np.zeros(zs.shape + (2,), dtype=zs.dtype)
        # substituting a flips the parity whenever a != z_i, so a = 1 gives
        # the odd parity where z_i = 1 and the even one where z_i = 0: the
        # output there is 1 exactly where z_i equals the row's parity
        # as uint8, a same-dtype copy into the one-byte tables of smoothing
        tab[..., 1] = (zs == _odd(zs)).view(np.uint8)
        return tab


class ParityMarkedZerosDenoiser(Denoiser):
    """All-zeros on even ones-parity; on odd parity, clears every noisy 1 and
    raises exactly the first floor(delta * N0) zero positions (ascending
    index), N0 being the number of noisy 0s.  The fixed position rule makes
    trials reproducible.

    One rule marks the columns for both batch methods (:meth:`_marked`).
    With c0 = floor(delta * N0) and c1 = floor(delta * (N0 + 1)), which is
    c0 or c0 + 1, it marks the columns left of the zero of rank c0 (ranks
    count from 0) if c1 = c0 + 1, and those up to the zero of rank c0 - 1
    if c1 = c0.  Either way a zero is marked when its rank is below c0, so
    the marked zeros are the first floor(delta * N0), which ``denoise``
    raises; and a one is marked when fewer than c1 zeros lie left of it,
    which is when setting it to 0 makes a zero that the reconstruction of
    the new sequence, with N0 + 1 zeros, raises.  So the substituted
    table's a = 0 entry is 1 at the marked columns of odd substituted
    parity (a = 1 yields 0), and the reconstruction is the table read at
    the noisy symbol."""

    input_size = 2
    output_size = 2

    def __init__(self, delta: float):
        if not 0.0 < delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
        self.delta = float(delta)

    def _count(self, n_zeros: np.ndarray) -> np.ndarray:
        """floor(delta * N0), the number of marked zeros, per row."""
        return np.floor(self.delta * n_zeros).astype(np.int64)

    def _marked(self, zs: np.ndarray):
        """(is_zero, odd, marked) of binary rows: is_zero and the marking
        rule's columns, each (B, n), and each row's ones-parity, (B, 1).
        Every row's zeros come from one scan of the batch."""
        is_zero = zs == 0
        b, n = zs.shape
        zero_at = np.flatnonzero(is_zero)
        # row r's zeros are zero_at[bounds[r]:bounds[r + 1]]
        bounds = np.searchsorted(zero_at, np.arange(0, (b + 1) * n, n))
        n_zeros = np.diff(bounds)
        c0 = self._count(n_zeros)
        same = c0 == self._count(n_zeros + 1)
        # column of each row's zero of rank c0 - same, or -1 where that is
        # -1; the rank is below N0 since delta < 1/2
        rank = c0 - same
        rows = np.flatnonzero(rank >= 0)
        # columns compare three times faster in int32 than in int64
        column = np.int32 if n < 2**31 else np.int64
        last = np.full(b, -1, dtype=column)
        last[rows] = zero_at[bounds[rows] + rank[rows]] - rows * n
        marked = np.arange(n, dtype=column) < (last + same)[:, None]
        return is_zero, ((n - n_zeros) % 2 == 1)[:, None], marked

    def denoise_batch(self, zs: np.ndarray) -> np.ndarray:
        is_zero, odd, marked = self._marked(zs)
        return (is_zero & marked & odd).astype(zs.dtype)

    def substituted_outputs_batch(self, zs: np.ndarray) -> np.ndarray:
        is_zero, odd, marked = self._marked(zs)
        tab = np.zeros(zs.shape + (2,), dtype=zs.dtype)
        tab[..., 0] = ((odd ^ ~is_zero) & marked).view(np.uint8)
        return tab


def _parity(rows: np.ndarray) -> np.ndarray:
    """Each row's sum mod 2 over the last axis, for rows of any integer or
    bool dtype, in the rows' dtype (uint8 for bool).

    The low bit of a sum is the XOR of the terms' low bits, in two's
    complement too, so one XOR reduction and ``& 1`` give ``sum % 2``
    without widening the rows to int64; bool rows are read as uint8, on
    which the reduction runs many times faster than on bool."""
    if rows.dtype == bool:
        rows = rows.view(np.uint8)
    parity = np.bitwise_xor.reduce(rows, axis=-1)
    parity &= 1
    return parity


def _odd(zs: np.ndarray) -> np.ndarray:
    """Ones-parity of each binary sequence (last axis) as 0 or 1 in the
    sequences' own dtype, kept as a length-1 axis."""
    return _parity(zs).astype(zs.dtype, copy=False)[..., None]


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


#: Largest block length whose 2^n masks exact smoothing enumerates.
EXACT_MASK_LIMIT = 20

#: Most entries of a table, Monte Carlo mask set or state space the library
#: builds; exact mask sets are bounded by EXACT_MASK_LIMIT instead.
ENUMERATION_LIMIT = 10**7

#: Most input bytes of one batch pass: a chunk of a mask set, a block of
#: trials or a chunk of oracle states, so that per-pass temporaries stay in
#: cache.
BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class SmoothingConfig:
    """How to randomize a denoiser with an i.i.d. Bernoulli-q flip mask.

    Exactly one of ``q`` (explicit flip rate) or ``nu`` (rate exponent,
    q = n^-nu) must be given.  ``mode`` selects exact enumeration of all 2^n
    masks (only for n <= EXACT_MASK_LIMIT) or Monte Carlo with ``m`` masks
    (only for m * n <= ENUMERATION_LIMIT).
    """

    q: float | None = None
    nu: float | None = None
    mode: str = "monte_carlo"
    m: int = 128

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

    def resolve_q(self, n: int) -> float:
        return self.q if self.q is not None else float(n) ** (-self.nu)

    def check_length(self, n: int) -> None:
        """Reject a block length whose flip rate n^-nu is not below 1/2 (the
        bound on an explicit q), whose 2^n masks exact mode cannot
        enumerate, or whose m masks Monte Carlo mode cannot hold."""
        q = self.resolve_q(n)
        if q >= 0.5:
            raise ValueError(f"flip rate q = n^-nu = {n}^-{self.nu} = {q:.4g} must lie "
                             f"in [0, 1/2)")
        if self.mode == "exact" and n > EXACT_MASK_LIMIT:
            raise ValueError(f"exact smoothing limited to n <= {EXACT_MASK_LIMIT}, got n = {n}")
        if self.mode == "monte_carlo" and self.m * n > ENUMERATION_LIMIT:
            raise ValueError(f"{self.m} masks of length {n} exceed the limit of "
                             f"{ENUMERATION_LIMIT} mask entries")


def blocks(count: int, row_bytes: int) -> list[slice]:
    """Slices of ``count`` rows of ``row_bytes`` bytes each, in order: at
    most BLOCK_BYTES // row_bytes rows each, and never fewer than one.  A
    row of n bool masks takes n bytes, a row of n int64 symbols 8 * n."""
    size = max(1, BLOCK_BYTES // row_bytes)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def functional_values(values, rows: int) -> np.ndarray:
    """A batch functional's result on ``rows`` sequences, as float64; the
    functional maps (B, n) to B reals, so any shape but (rows,) raises
    ``ValueError``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (rows,):
        raise ValueError(f"functional returned shape {values.shape} for a batch of "
                         f"{rows} states; expected ({rows},)")
    return values


def masked_values(f, masks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The batch functional f on z xor each mask, float64 of length m in
    mask order: one call of f per ``blocks`` slice of the bool masks, on
    the rows ``z ^ masks[slice]``."""
    values = np.empty(len(masks))
    for rows in blocks(*masks.shape):
        values[rows] = functional_values(f(z ^ masks[rows]), rows.stop - rows.start)
    return values


def draw_smoothing_masks(cfg: SmoothingConfig, n: int, rng: RngStream) -> np.ndarray:
    """The cfg.m Monte Carlo masks of an estimator call, bool of shape (m, n).

    Bit for bit ``rng.generator().random((m, n)) < q``.  A uniform draw is
    (r >> 11) * 2^-53 of the generator's next raw 64-bit word r, so it is
    below q exactly when r is below ceil(q * 2^53) * 2^11; comparing the raw
    words, drawn chunk by chunk in the same order, skips forming the doubles;
    comparing the doubles in the same chunks ran the benchmark's randomized
    n=4096 workload 5% slower (2-core machine).
    """
    limit = math.ceil(cfg.resolve_q(n) * 2.0**53) << 11
    bits = rng.generator().bit_generator
    masks = np.empty((cfg.m, n), dtype=bool)
    for rows in blocks(cfg.m, n):
        np.less(bits.random_raw((rows.stop - rows.start, n)), limit, out=masks[rows])
    return masks


def draw_smoothing_mask(cfg: SmoothingConfig, n: int, rng: RngStream) -> np.ndarray:
    """One i.i.d. Bernoulli-q flip mask of length n, as bool: the single
    mask of a one-mask draw, bit for bit ``rng.uniforms(n) < q``."""
    return draw_smoothing_masks(replace(cfg, m=1), n, rng)[0]


def enumerate_masks(n: int) -> np.ndarray:
    """All 2^n binary masks, bool of shape (2^n, n), in lexicographic counter
    order (bit j of mask b is bit j of b)."""
    codes = np.arange(1 << n, dtype=np.int64)
    masks = np.empty((1 << n, n), dtype=bool)
    for j in range(n):
        masks[:, j] = (codes >> j) & 1
    return masks


def exact_mask_weights(masks: np.ndarray, q: float) -> np.ndarray:
    """Probability of each mask under i.i.d. Bernoulli-q flips."""
    n = masks.shape[1]
    counts = masks.sum(axis=1)
    return np.power(q, counts) * np.power(1.0 - q, n - counts)


def stratified_mask_weights(masks: np.ndarray, q: float) -> np.ndarray:
    """Monte Carlo mask weights, post-stratified on mask parity.

    Parity of the flip mask is the dominant source of estimator variance for
    globally parity-sensitive denoisers, and its exact distribution is known:
    P(odd) = (1 - (1-2q)^n)/2.  Reweighting the drawn masks so each parity
    class carries its exact probability keeps the estimator unbiased (given
    both classes are hit) while collapsing that variance.  If a class is
    empty the plain 1/m weights are returned.  The masks' parities come from
    :func:`_parity`, one XOR reduction of the (m, n) bool masks read as
    uint8, equal to their ``sum % 2``.
    """
    m, n = masks.shape
    parity = _parity(masks)
    n_odd = int(np.count_nonzero(parity))
    if n_odd == 0 or n_odd == m:
        return np.full(m, 1.0 / m)
    p_odd = 0.5 * (1.0 - (1.0 - 2.0 * q) ** n)
    weights = np.where(parity == 1, p_odd / n_odd, (1.0 - p_odd) / (m - n_odd))
    return weights


def mask_set(cfg: SmoothingConfig, n: int, rng: RngStream | None):
    """(masks, weights) per the config mode; MC weights are parity-stratified.

    Masks are bool in both modes: Monte Carlo masks are drawn from ``rng``;
    exact mode enumerates all 2^n masks and needs no stream.  Every smoothed
    quantity takes such a pair, so a set drawn once can be shared by every
    quantity and denoiser that uses the same stream.
    """
    cfg.check_length(n)
    q = cfg.resolve_q(n)
    if cfg.mode == "exact":
        masks = enumerate_masks(n)
        return masks, exact_mask_weights(masks, q)
    if rng is None:
        raise ValueError("monte_carlo smoothing needs an RngStream")
    masks = draw_smoothing_masks(cfg, n, rng)
    return masks, stratified_mask_weights(masks, q)


def check_binary(d: Denoiser) -> None:
    """Reject a denoiser whose input or output alphabet is not binary: a
    smoothed denoiser flips binary symbols and mixes binary outputs."""
    if d.input_size != 2 or d.output_size != 2:
        raise ValueError("smoothing is defined for binary-alphabet denoisers")
