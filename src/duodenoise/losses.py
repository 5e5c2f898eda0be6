"""True losses, the unbiased loss estimator, and its smoothed variants.

The central object is the estimator that turns a noisy sequence into an
estimate of a denoiser's cumulative loss without seeing the clean input: per
position it combines the channel dual matrix h with the losses the denoiser
would incur under every hypothetical value of that noisy symbol.  Estimates
are never clamped; negative values are meaningful (they are what drives the
estimate-minimizing combiner astray on the parity pairs).

A position's estimate depends on the position only through its context:
the noisy symbol z_i and the substituted outputs t_i(0), ..., t_i(M-1).  So
the plain estimator evaluates the per-symbol kernel once over all M * K^M
contexts and each position reads its context's entry (eight entries for a
binary channel, whatever the block length); only when there are more
contexts than positions, as for a large-alphabet DMC on a short block, does
the kernel run per position.  Either way the entries are the same floats.
The context table depends only on the channel, h and the loss, so a process
builds it once per distinct (channel, h, loss), keyed by their values, and
every later block, oracle chunk or single estimate reads the same read-only
table.

Like the denoisers, the estimator and the true loss have one batch form each,
:func:`estimate_losses` and :func:`true_losses`: they take a (B, n) integer
array of noisy sequences and trust it, as ``denoise_batch`` does.  The
one-sequence forms validate their arguments, and h, the loss and the
denoiser against the channel; :func:`estimate_loss` then runs a batch of one.

The smoothed quantities take one (masks, weights) set from
``denoisers.mask_set``; masks are bool in both exact and Monte Carlo mode.
They walk the set in chunks of at most ``denoisers.BLOCK_BYTES`` bytes of
bool masks (``denoisers.blocks``) through the denoiser's batch methods, so
their temporaries stay cache-sized.  For the whole set they hold only the
masks, per-mask scalars and, for the per-symbol estimates, one table of the
picked substituted outputs at one byte per entry.

Position sums are correctly rounded, bit for bit ``math.fsum``, so results
do not depend on scheduling or vectorization details.  They run in numpy, by
the error-free extraction of Rump, Ogita and Oishi ("Accurate floating-point
summation, part I", SIAM J. Sci. Comput. 2008), one batch of rows at a time;
see :func:`_row_means`.  The one exception is
:func:`smoothed_conditional_loss`, which sums each mask's row with plain
numpy addition: the randomized golden trial CSVs pin the bits of that sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ERASURE, H_IDENTITY_TOL, Channel, check_sequence, h_defect, is_bec
from .denoisers import Denoiser, blocks, check_binary, masked_values
from .spec import build, read_typed


def loss_matrix(lam) -> np.ndarray:
    """Per-symbol loss lambda(clean, reconstruction), a read-only float64 K x K array."""
    lam = np.array(lam, dtype=np.float64)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise ValueError("loss matrix must be square")
    if not lam.size:
        raise ValueError(f"loss matrix must not be empty, got shape {lam.shape}")
    if lam.min() < 0.0 or not np.isfinite(lam).all():
        raise ValueError("losses must be finite and nonnegative")
    lam.flags.writeable = False
    return lam


def hamming_loss(k: int = 2) -> np.ndarray:
    """The Hamming loss over ``k`` symbols."""
    if k < 1:
        raise ValueError(f"Hamming loss needs k >= 1 symbols, got k = {k}")
    return loss_matrix(1.0 - np.eye(k))


def loss_from_json(spec, k: int = 2, path: str = "loss") -> np.ndarray:
    """Parse a loss spec (dict or JSON text).  A Hamming spec names no size:
    its loss is over ``k`` symbols, the clean alphabet of the channel it is
    used with."""
    values = read_typed(spec, path, "loss type", {
        "hamming": ({}, {}),
        "matrix": ({"lambda": [[float]]}, {}),
    })
    if values["type"] == "hamming":
        return build(path, hamming_loss, k)
    return build(path, loss_matrix, values["lambda"])


def cumulative_loss(lm: np.ndarray, x, xhat) -> float:
    """Normalized cumulative loss (1/n) sum_i lambda(x_i, xhat_i)."""
    xs = check_sequence(x, len(lm), "clean sequence")
    hs = check_sequence(xhat, len(lm), "reconstruction")
    if len(xs) != len(hs):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(hs)}")
    return float(_row_means(lm[xs, hs][None])[0])


def _estimates_from_table(ch: Channel, h: np.ndarray, z: np.ndarray,
                          lam_tab: np.ndarray) -> np.ndarray:
    """Per-symbol estimates from the (K, ..., n, M) loss table
    lam_tab[x, ..., i, a]: the (expected) loss against clean symbol x of the
    output at position i once the noisy symbol there is replaced by a.  ``z``
    has the table's middle shape: (n,), a (B, n) batch, or the enumerated
    contexts of :func:`_context_estimates`."""
    inner = np.einsum("x...a,xa->x...", lam_tab, ch.pi)
    # in place, one clean symbol at a time: no (K, ..., n) temporary
    for x, h_x in enumerate(h):
        inner[x] *= h_x[z]
    return inner.sum(axis=0)


def _context_estimates(ch: Channel, h: np.ndarray, lm: np.ndarray, z: np.ndarray,
                       tab: np.ndarray) -> np.ndarray:
    """Per-symbol estimates of the positions with noisy symbols ``z``, of any
    shape, and substituted outputs ``tab``, of z's shape plus (M,).

    A position's estimate depends on it only through its context (z_i,
    t_i(0), ..., t_i(M-1)), so ``_estimates_from_table`` runs once over all
    M * K^M contexts, enumerated in the order of the code
    ((z_i * K + t_i(0)) * K + t_i(1)) ..., and each position reads its
    context's entry: the same float operations as per position, so the
    same bits.  That table comes from :func:`_context_table`, built once
    per distinct (channel, h, loss).  When there are more contexts than
    positions, the positions themselves go through the kernel.
    """
    k, m = len(lm), tab.shape[-1]
    if m * k ** m > z.size:
        return _estimates_from_table(ch, h, z, lm[:, tab])
    table = _context_table(*map(_array_key, (ch.pi, h, lm)))
    code = z.astype(np.int64)
    for a in range(m):
        code *= k
        code += tab[..., a]
    return table[code]


def _array_key(a: np.ndarray) -> tuple:
    """The bytes, shape and dtype of an array: a cache key that holds its
    values, so a later in-place write to the array cannot alias it."""
    a = np.asarray(a)
    return a.tobytes(), a.shape, a.dtype.str


def _key_array(key: tuple) -> np.ndarray:
    """The read-only array of an :func:`_array_key` key."""
    data, shape, dtype = key
    return np.frombuffer(data, dtype).reshape(shape)


@functools.lru_cache(maxsize=32)
def _context_table(pi: tuple, h: tuple, lm: tuple) -> np.ndarray:
    """The read-only table of :func:`_context_estimates` for the channel
    matrix, h and loss of the :func:`_array_key` keys: the estimates of all
    M * K^M contexts.  One build per distinct (pi, h, loss) in a process,
    from arrays equal to the keyed ones, so the entries are the bits a build
    per call gave.  Two threads that miss at once build the same bits."""
    pi, h, lm = map(_key_array, (pi, h, lm))
    k, m = pi.shape
    contexts = np.indices((m,) + (k,) * m).reshape(m + 1, -1)
    table = _estimates_from_table(Channel(pi), h, contexts[0], lm[:, contexts[1:].T])
    table.flags.writeable = False
    return table


def _check_fit(ch: Channel, h: np.ndarray | None, lm: np.ndarray, d: Denoiser) -> None:
    """Reject an h (unless None) that is not K x M or fails pi @ h.T = I by
    more than ``H_IDENTITY_TOL``, a loss that is not K x K, or a denoiser
    that does not map the channel's M noisy symbols to its K clean ones."""
    k, m = ch.pi.shape
    if h is not None and np.shape(h) != (k, m):
        raise ValueError(f"h has shape {np.shape(h)}; the channel needs ({k}, {m})")
    if h is not None and not h_defect(ch, h) <= H_IDENTITY_TOL:
        raise ValueError(f"h fails pi @ h.T = I by {h_defect(ch, h):g} (> {H_IDENTITY_TOL:g})")
    if np.shape(lm) != (k, k):
        raise ValueError(f"loss matrix has shape {np.shape(lm)}; the channel needs ({k}, {k})")
    if (d.input_size, d.output_size) != (m, k):
        raise ValueError(f"denoiser maps {d.input_size} noisy to {d.output_size} clean "
                         f"symbols; the channel has {m} noisy and {k} clean")


def per_symbol_estimates(ch: Channel, h: np.ndarray, lm: np.ndarray,
                         d: Denoiser, z) -> np.ndarray:
    """All n per-symbol estimates (one substituted-output table pass)."""
    _check_fit(ch, h, lm, d)
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    return _context_estimates(ch, h, lm, zs, d.substituted_outputs(zs))


def _row_means(terms: np.ndarray) -> np.ndarray:
    """Each row's correctly rounded sum over its n terms, divided by n: bit
    for bit ``math.fsum(row) / n``.  ``terms`` is a (B, n) float64 temporary
    of the caller, which this overwrites.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 2008): with 2^b >= n + 2 and
    sigma the power of two 2^(e+b) for the block's max |p| < 2^e, each term
    p splits into q = (sigma + p) - sigma and the remainder p - q, both
    exact.  The q are multiples of ulp(sigma)/2 whose every partial sum
    stays below sigma, so numpy sums each row of them exactly in any order,
    and the remainders are at most sigma / 2^53.  Repeating on the
    remainders until they are all zero leaves each row's exact sum as a few
    level sums: one level is that sum, two round correctly in one IEEE
    addition, and more go to ``math.fsum``.  A row that holds a non-finite
    term, or one so large that sigma would overflow, goes to ``math.fsum``
    whole, which keeps its results and its exceptions.
    """
    n = terms.shape[1]
    b = (n + 1).bit_length()                    # 2**b >= n + 2
    limit = 2.0 ** (1023 - b)                   # sigma is finite for |p| < limit
    top = max(terms.max(), -terms.min())
    fallback = {}
    if not top < limit:                         # a term too large, infinite or NaN
        wide = np.flatnonzero(~(np.abs(terms) < limit).all(axis=1))
        fallback = {r: math.fsum(terms[r].tolist()) for r in wide}
        terms[wide] = 0.0
        top = max(terms.max(), -terms.min())
    q = np.empty_like(terms)
    levels = []
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + b)    # every |p| < sigma / 2**b
        np.add(terms, sigma, out=q)
        q -= sigma
        terms -= q
        levels.append(q.sum(axis=1))
        top = max(terms.max(), -terms.min())
    sums = sum(levels[:2], np.zeros(len(terms)))     # exact, or one rounding
    if len(levels) > 2:                                # rows of 3+ nonzero levels
        for r in np.flatnonzero(np.any(levels[2:], axis=0)):
            sums[r] = math.fsum(level[r] for level in levels)
    for r, value in fallback.items():
        sums[r] = value
    return sums / n


def true_losses(lm: np.ndarray, d: Denoiser, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Per row z of the (B, n) batch zs, cumulative_loss(lm, x, d.denoise(z));
    xs is one clean sequence or a (B, n) block of them."""
    return _row_means(lm[xs, d.denoise_batch(zs)])


def estimate_losses(ch: Channel, h: np.ndarray, lm: np.ndarray, d: Denoiser,
                    zs: np.ndarray) -> np.ndarray:
    """Per row z of the (B, n) batch zs, estimate_loss(ch, h, lm, d, z)."""
    # the terms are gathered from the context table into a fresh (B, n)
    # array, which _row_means overwrites; the table itself is left intact
    return _row_means(_context_estimates(ch, h, lm, zs, d.substituted_outputs_batch(zs)))


def estimate_loss(ch: Channel, h: np.ndarray, lm: np.ndarray, d: Denoiser, z) -> float:
    """Unbiased estimate of the normalized cumulative loss of d on z.

    May be negative; no clamping is performed.
    """
    _check_fit(ch, h, lm, d)
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    return float(estimate_losses(ch, h, lm, d, zs[None])[0])


def erasure_estimate_loss(ch: Channel, lm: np.ndarray, d: Denoiser, z) -> float:
    """Erasure-channel shortcut: for each unerased symbol, the loss the
    denoiser would incur there had that symbol been erased.

    Coincides exactly with :func:`estimate_loss` under the canonical erasure h
    when the erasure probability is 1/2 and the denoiser copies unerased
    symbols; otherwise the general estimator carries an extra eps/(1-eps)
    factor and a residual term for the copied positions.
    """
    if not is_bec(ch):
        raise ValueError("erasure estimate requires a binary erasure channel")
    _check_fit(ch, None, lm, d)
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    tab = d.substituted_outputs(zs)[:, ERASURE]
    unerased = zs != ERASURE
    terms = np.zeros(len(zs))
    terms[unerased] = lm[zs[unerased], tab[unerased]]
    return float(_row_means(terms[None])[0])


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

    Algebraically identical to :func:`estimate_loss` on the same (z, d): it
    is the closed form of the estimator's context table, whose binary
    contexts (z_i, t_i(0), t_i(1)) the counts tally, with t_i(z_i) the
    denoised symbol and t_i(1 - z_i) the flipped one.  It sums in another
    order, so its bits may differ from the estimator's.
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


def smoothed_conditional_loss(lm: np.ndarray, d: Denoiser, drawn, x, z) -> float:
    """Expected (over the flip mask) normalized loss of the smoothed denoiser.

    ``drawn`` is a (masks, weights) pair from :func:`denoisers.mask_set`;
    the expectation is the weighted sum over its masks.  Each mask's loss is
    a plain numpy row sum, not a :func:`true_losses` call, which ran the
    benchmark's randomized n=4096 workload 24% slower (2-core machine).
    """
    check_binary(d)
    xs = check_sequence(x, len(lm), "clean sequence")
    zs = check_sequence(z, 2, "noisy sequence")
    if len(xs) != len(zs):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(zs)}")
    masks, weights = drawn
    # binary outputs: each position's loss is one of its two loss entries;
    # np.where selects fastest from contiguous columns on a bool condition
    lam0, lam1 = np.ascontiguousarray(lm[xs].T)
    sums = masked_values(
        lambda rows: np.where(d.denoise_batch(rows).astype(bool), lam1, lam0).sum(axis=1),
        masks, zs.astype(np.uint8))
    return float(weights @ (sums / len(zs)))


def smoothed_per_symbol_estimates(ch: Channel, h: np.ndarray, lm: np.ndarray,
                                  d: Denoiser, drawn, z) -> np.ndarray:
    """Per-symbol estimates of the smoothed denoiser's expected loss.

    ``drawn`` is a (masks, weights) pair from :func:`denoisers.mask_set`;
    passing the same pair for both candidates of a combiner evaluates them
    on one mask set by construction.  The set is shared across all
    positions and substituted symbols: a substituted-then-flipped evaluation
    equals a flipped-then-substituted one with the substituted symbol XORed
    by the mask bit, so each mask costs one substituted-output table.  The
    masks go through the denoiser in chunks of rows (``blocks``), and
    each chunk's picked entries land in one (m, n, 2) table of one byte per
    entry.

    The mask-weighted mean is one ``einsum`` over the mask axis of that
    whole table, which adds the masks in index order: its bits do not depend
    on the table's integer dtype (a BLAS product or chunked partial sums
    would move low-order bits).
    """
    check_binary(d)
    if ch.input_size != 2 or ch.output_size != 2:
        raise ValueError("smoothed estimation targets binary channels")
    _check_fit(ch, h, lm, d)
    zs = check_sequence(z, 2, "noisy sequence")
    masks, weights = drawn
    z8 = zs.astype(np.uint8)
    picked = np.empty(masks.shape + (2,), dtype=np.uint8)
    for rows in blocks(*masks.shape):
        block = picked[rows]
        block[...] = d.substituted_outputs_batch(z8 ^ masks[rows])
        # entry [b, i, a] of the flipped table answers symbol a ^ masks[b, i]:
        # where the mask is set, swap the two bytes of each position's pair
        pairs = block.view(np.uint16).reshape(-1)
        flips = np.flatnonzero(masks[rows])
        pairs[flips] = pairs[flips].byteswap()
    mean_out = np.einsum("b,bia->ia", weights, picked)
    # binary outputs: expected loss is a mixture of the two loss columns
    exp_loss = (
        lm[:, 0][:, None, None] * (1.0 - mean_out)[None, :, :]
        + lm[:, 1][:, None, None] * mean_out[None, :, :]
    )                                               # (K, n, M)
    return _estimates_from_table(ch, h, zs, exp_loss)


def estimate_smoothed_loss(ch: Channel, h: np.ndarray, lm: np.ndarray, d: Denoiser,
                           drawn, z) -> float:
    """Unbiased estimate of the smoothed denoiser's expected normalized loss
    over the (masks, weights) pair ``drawn``."""
    vals = smoothed_per_symbol_estimates(ch, h, lm, d, drawn, z)
    return float(_row_means(vals[None])[0])
