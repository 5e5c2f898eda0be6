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
contexts, and a position reads its context's entry (eight entries for a
binary channel, whatever the block length).  One rule, in
:func:`_served_table`, picks the route once per call: a batch reads the
table when its M * K^M contexts are no more than its positions, and
otherwise (a large-alphabet DMC on a short block) runs the kernel per
position.  Either way the entries are the same floats.  The context table
depends only on the channel, h and the loss, so a process builds it once
per distinct (channel, h, loss), keyed by their values, and every later
block, oracle chunk or single estimate reads the same read-only table.
It is built with the clean symbol x_i in front of each context, and
beside each estimate it holds the loss lambda(x_i, t_i(z_i)), since
t_i(z_i) is the reconstruction at i: so one code per position, counted
once, gives a plain trial both its true loss and its estimate
(:func:`losses_and_estimates`), from one substituted-output pass.

Like the denoisers, the estimator and the true loss have one batch form each,
:func:`estimate_losses` and :func:`true_losses`, and a plain trial takes
both at once from :func:`losses_and_estimates`: they take a (B, n) integer
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

Every position sum is correctly rounded, bit for bit ``math.fsum``, so it
does not depend on scheduling, vectorization or the BLAS kernel.  (The
mask-axis means are not: the smoothed loss weighs its masks by a BLAS dot,
the smoothed estimates by an ``einsum``.)  Position sums run in
numpy, by the error-free extraction of Rump, Ogita and Oishi ("Accurate
floating-point summation, part I", SIAM J. Sci. Comput. 2008; see
:func:`_extraction`).  A mean of table values -- a loss lambda(x_i, y_i),
an estimate of a context -- is counted, not gathered: a row's sum depends
on its codes only through how often each occurs, so one ``np.bincount`` of
the codes and the table's cached extraction levels give every row's exact
sum (:func:`_table_means`).  :func:`_row_means` extracts per position, and
is kept for terms that are no table's values: the smoothed estimates, and
the kernel's estimates of a batch with fewer positions than contexts.
:func:`smoothed_conditional_loss` counts too, from row sums of its output
bits instead of a ``bincount`` (:func:`_count_means`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channel import (
    ERASURE,
    Channel,
    check_binary_channel,
    check_h_identity,
    check_sequence,
    is_bec,
)
from .denoisers import Denoiser, blocks, check_binary
from .record import Record
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
    return float(_loss_means(lm, xs, hs[None])[0])


def _estimates_from_table(ch: Channel, h: np.ndarray, z: np.ndarray,
                          lam_tab: np.ndarray) -> np.ndarray:
    """Per-symbol estimates from the (K, ..., n, M) loss table
    lam_tab[x, ..., i, a]: the (expected) loss against clean symbol x of the
    output at position i once the noisy symbol there is replaced by a.  ``z``
    has the table's middle shape: (n,), a batch with fewer positions than
    M * K^M contexts (:func:`_served_table`), or those contexts, for
    :func:`_context_table`; an entry's floats do not depend on which."""
    inner = np.einsum("x...a,xa->x...", lam_tab, ch.pi)
    # in place, one clean symbol at a time: no (K, ..., n) temporary
    for x, h_x in enumerate(h):
        inner[x] *= h_x[z]
    return inner.sum(axis=0)


def _context_codes(code: np.ndarray, tab: np.ndarray, k: int) -> np.ndarray:
    """Each position's code ((z_i * K + t_i(0)) * K + t_i(1)) ..., written
    into ``code``, an int64 temporary of the caller that holds z_i, of any
    shape, for substituted outputs ``tab`` of its shape plus (M,).  A
    ``code`` that holds x_i * M + z_i keeps x_i in front."""
    for a in range(tab.shape[-1]):
        code *= k
        code += tab[..., a]
    return code


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
    """The read-only (2, K * M * K^M) table of the joint contexts (x_i,
    z_i, t_i(0), ..., t_i(M-1)) for the channel matrix, h and loss of the
    :func:`_array_key` keys, in the order of :func:`_context_codes` with x_i
    in front.  Row 0 holds each joint context's loss lambda(x_i, t_i(z_i));
    row 1 the estimate of its context (z_i, t_i(0), ...), whatever x_i, so
    its first M * K^M entries are the estimates of all contexts; a batch of
    at least M * K^M positions reads them (:func:`_served_table`).  One
    build per distinct (pi, h, loss) in a process, from arrays equal to the
    keyed ones, so the entries are the bits a build per call gave.  Two
    threads that miss at once build the same bits."""
    pi, h, lm = map(_key_array, (pi, h, lm))
    k, m = pi.shape
    contexts = np.indices((m,) + (k,) * m).reshape(m + 1, -1)
    estimates = _estimates_from_table(Channel(pi), h, contexts[0], lm[:, contexts[1:].T])
    joint = np.indices((k, m) + (k,) * m).reshape(m + 2, -1)
    x, z, outputs = joint[0], joint[1], joint[2:]
    table = np.stack([lm[x, outputs[z, np.arange(len(x))]], np.tile(estimates, k)])
    table.flags.writeable = False
    return table


def _served_table(ch: Channel, h: np.ndarray, lm: np.ndarray,
                  zs: np.ndarray) -> np.ndarray | None:
    """The cached :func:`_context_table` if it serves the batch ``zs``, else
    None.  The plain estimator's one rule: the table serves a batch with at
    least as many positions as its M * K^M contexts; a smaller batch runs
    the kernel per position."""
    k, m = ch.pi.shape
    if m * k ** m > zs.size:
        return None
    return _context_table(*map(_array_key, (ch.pi, h, lm)))


def _check_h_fit(ch: Channel, h: np.ndarray) -> None:
    """Reject an h that is not K x M or fails pi @ h.T = I by more than
    ``H_IDENTITY_TOL``."""
    k, m = ch.pi.shape
    if np.shape(h) != (k, m):
        raise ValueError(f"h has shape {np.shape(h)}; the channel needs ({k}, {m})")
    check_h_identity(ch, h)


def _check_loss_fit(ch: Channel, lm: np.ndarray) -> None:
    """Reject a loss that is not K x K."""
    k = ch.input_size
    if np.shape(lm) != (k, k):
        raise ValueError(f"loss matrix has shape {np.shape(lm)}; the channel needs ({k}, {k})")


def _check_denoiser_fit(ch: Channel, d: Denoiser) -> None:
    """Reject a denoiser that does not map the channel's M noisy symbols to
    its K clean ones."""
    k, m = ch.pi.shape
    if (d.input_size, d.output_size) != (m, k):
        raise ValueError(f"denoiser maps {d.input_size} noisy to {d.output_size} clean "
                         f"symbols; the channel has {m} noisy and {k} clean")


def _check_fit(ch: Channel, h: np.ndarray, lm: np.ndarray, d: Denoiser) -> None:
    """Reject an h, a loss or a denoiser that does not fit the channel."""
    _check_h_fit(ch, h)
    _check_loss_fit(ch, lm)
    _check_denoiser_fit(ch, d)


def per_symbol_estimates(ch: Channel, h: np.ndarray, lm: np.ndarray,
                         d: Denoiser, z) -> np.ndarray:
    """All n per-symbol estimates (one substituted-output table pass)."""
    _check_fit(ch, h, lm, d)
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    return _estimates_from_table(ch, h, zs, lm[:, d.substituted_outputs(zs)])


def _row_means(terms: np.ndarray) -> np.ndarray:
    """Each row's correctly rounded sum over its n terms, divided by n: bit
    for bit ``math.fsum(row) / n``.  ``terms`` is a (B, n) float64 temporary
    of the caller, which this overwrites.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 2008; see :func:`_extraction`)
    splits the terms into levels whose row sums numpy takes exactly, and
    :func:`_level_means` rounds those sums once.  A row that holds a
    non-finite term, or one so large that sigma would overflow, goes to
    ``math.fsum`` whole, which keeps its results and its exceptions.
    """
    n = terms.shape[1]
    b = (n + 1).bit_length()                    # 2**b >= n + 2
    limit = 2.0 ** (1023 - b)                   # sigma is finite for |p| < limit
    fallback = {}
    if not max(terms.max(), -terms.min()) < limit:     # too large, infinite or NaN
        wide = np.flatnonzero(~(np.abs(terms) < limit).all(axis=1))
        fallback = {r: math.fsum(terms[r].tolist()) for r in wide}
        terms[wide] = 0.0
    levels = [q.sum(axis=1) for q in _extraction(terms, b)]
    return _level_means(levels, fallback, len(terms), n)


def _extraction(terms: np.ndarray, b: int):
    """Yield the levels q of the finite ``terms``, all below 2^(1023 - b) in
    magnitude, in one reused buffer, leaving the remainders in ``terms``.

    With 2^b >= n + 2 and sigma the power of two 2^(e+b) for the max
    |p| < 2^e of what remains, each term p splits into q = (sigma + p) -
    sigma and the remainder p - q, both exact.  The q are multiples of
    ulp(sigma)/2, at most 2^e in magnitude, so any n of them, each taken up
    to n times, sum exactly in any order: every partial sum is a multiple
    of ulp(sigma)/2 below sigma.  The remainders are at most sigma / 2^53;
    the levels stop when they are all zero.
    """
    q = np.empty_like(terms)
    top = max(terms.max(), -terms.min())
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + b)    # every |p| < sigma / 2**b
        np.add(terms, sigma, out=q)
        q -= sigma
        terms -= q
        yield q
        top = max(terms.max(), -terms.min())


def _level_means(levels, fallback: dict, rows: int, n: int) -> np.ndarray:
    """The means of ``rows`` rows from their exact level sums and the fsum of
    the rows in ``fallback``: one level is a row's exact sum, two round
    correctly in one IEEE addition, and rows of three or more nonzero
    levels go to ``math.fsum``.  Either way a row reads its correctly
    rounded sum, divided by n."""
    sums = sum(levels[:2], np.zeros(rows))          # exact, or one rounding
    if len(levels) > 2:                                # rows of 3+ nonzero levels
        for r in np.flatnonzero(np.any(levels[2:], axis=0)):
            sums[r] = math.fsum(level[r] for level in levels)
    for r, value in fallback.items():
        sums[r] = value
    return sums / n


@functools.lru_cache(maxsize=64)
def _table_levels(tables: tuple, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(levels, wide) of the (T, C) tables of the :func:`_array_key` key
    ``tables`` for rows of n terms, 2^b >= n + 2.  Each table's entries
    split into its own :func:`_extraction` levels, wide entries (infinite,
    NaN or at least 2^(1023 - b) in magnitude) taken as zero; column
    l * T + t of the read-only (C, L * T) ``levels`` holds level l of table
    t, zero past that table's last level.  ``wide`` is the read-only (T, C)
    mask of the wide entries."""
    terms = _key_array(tables).copy()
    wide = ~(np.abs(terms) < 2.0 ** (1023 - b))
    terms[wide] = 0.0
    split = [[q.copy() for q in _extraction(table, b)] for table in terms]
    levels = np.zeros((max(map(len, split)), *terms.shape))
    for t, table_levels in enumerate(split):
        levels[:len(table_levels), t] = np.reshape(table_levels, (-1, terms.shape[1]))
    levels = levels.reshape(-1, terms.shape[1]).T
    levels.flags.writeable = wide.flags.writeable = False
    return levels, wide


def _count_means(tables: np.ndarray, counts: np.ndarray, n: int, terms) -> np.ndarray:
    """Per row of the (T, C) ``tables`` and per row of the (B, C) ``counts``
    of its entries in a row of n terms: the row's correctly rounded sum,
    divided by n, shape (T, B).

    All levels of :func:`_table_levels` sum as one ``counts @ levels``:
    every partial sum of a level's column is a multiple of the level's grid
    below sigma, so it is exact in any order, BLAS included (see
    :func:`_extraction`), and :func:`_level_means` rounds the rows as
    ``_row_means`` does.  A row r that counts a wide entry of table i goes
    to ``math.fsum(terms(i, r))``.
    """
    rows = len(counts)
    t = len(tables)
    levels, wide = _table_levels(_array_key(tables), (n + 1).bit_length())
    fallback = {}
    if wide.any():
        for i, r in zip(*np.nonzero(wide.astype(np.int64) @ counts.T)):
            fallback[i * rows + r] = math.fsum(terms(i, r))
    sums = (counts.astype(np.float64) @ levels).T.reshape(-1, t * rows)
    return _level_means(list(sums), fallback, t * rows, n).reshape(t, rows)


def _table_means(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per row of the (T, C) ``tables`` and per row of the (B, n) int64
    ``codes``, indices into a table: bit for bit ``_row_means(table[codes])``,
    shape (T, B).  ``codes`` is a temporary of the caller, which this
    overwrites.

    A row's sum depends on its codes only through how often each occurs,
    so one ``np.bincount`` gives the (B, C) counts of :func:`_count_means`.
    A row that counts a wide entry goes to ``math.fsum`` over its gathered
    terms in position order.  A table longer than a row would count into
    more entries than it has positions; its terms are gathered as before.
    """
    rows, n = codes.shape
    c = tables.shape[1]
    if c > n:
        return np.array([_row_means(table[codes]) for table in tables])
    codes += np.arange(0, rows * c, c)[:, None]
    counts = np.bincount(codes.ravel(), minlength=rows * c).reshape(rows, c)
    return _count_means(tables, counts, n, lambda i, r: tables[i, codes[r] - r * c].tolist())


def _loss_means(lm: np.ndarray, xs: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Per row of the (B, n) reconstructions xhat, the mean loss
    lambda(x_i, xhat_i), counted from the loss matrix; xs is one clean
    sequence or a (B, n) block of them."""
    return _table_means(lm.reshape(1, -1), xs * len(lm) + xhat)[0]


def true_losses(lm: np.ndarray, d: Denoiser, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Per row z of the (B, n) batch zs, cumulative_loss(lm, x, d.denoise(z));
    xs is one clean sequence or a (B, n) block of them."""
    return _loss_means(lm, xs, d.denoise_batch(zs))


def estimate_losses(ch: Channel, h: np.ndarray, lm: np.ndarray, d: Denoiser,
                    zs: np.ndarray) -> np.ndarray:
    """Per row z of the (B, n) batch zs, estimate_loss(ch, h, lm, d, z)."""
    tab = d.substituted_outputs_batch(zs)
    table = _served_table(ch, h, lm, zs)
    if table is None:
        return _row_means(_estimates_from_table(ch, h, zs, lm[:, tab]))
    k, m = ch.pi.shape
    return _table_means(table[1:, :m * k ** m], _context_codes(zs.astype(np.int64), tab, k))[0]


def losses_and_estimates(ch: Channel, h: np.ndarray, lm: np.ndarray, d: Denoiser,
                         xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Per row z of the (B, n) batch zs, true_losses and estimate_losses of
    d at once, shape (2, B), from one ``substituted_outputs_batch`` pass and
    no ``denoise_batch`` pass: t_i(z_i) is denoise(z)_i.  xs is one clean
    sequence or a (B, n) block of them.

    When the context table serves the batch (:func:`_served_table`), one
    joint code (x_i, z_i, t_i(0), ..., t_i(M-1)) per position indexes both
    of its rows, so both means come from one :func:`_table_means` of it.
    Otherwise the loss is taken from x_i and t_i(z_i), and the estimate
    from the kernel per position.
    """
    tab = d.substituted_outputs_batch(zs)
    table = _served_table(ch, h, lm, zs)
    if table is None:
        xhat = np.take_along_axis(tab, zs[..., None], axis=-1)[..., 0]
        return np.stack([_loss_means(lm, xs, xhat),
                         _row_means(_estimates_from_table(ch, h, zs, lm[:, tab]))])
    k, m = ch.pi.shape
    return _table_means(table, _context_codes(xs * m + zs, tab, k))


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
    _check_loss_fit(ch, lm)
    _check_denoiser_fit(ch, d)
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    tab = d.substituted_outputs(zs)[:, ERASURE]
    # code K * K reads the zero term of an erased position
    codes = np.where(zs != ERASURE, zs * len(lm) + tab, lm.size)
    return float(_table_means(np.append(lm, 0.0)[None], codes[None])[0, 0])


class JointTypeCounts(Record):
    """Counts N[b0, b1, b2] of positions with noisy symbol b0, denoised symbol
    b1, and denoised symbol b2 after flipping that noisy position, held as a
    read-only int64 array.  Immutable, and equal only to itself."""

    def __init__(self, counts: np.ndarray):
        counts = np.array(counts, dtype=np.int64)
        if counts.shape != (2, 2, 2) or counts.min() < 0:
            raise ValueError("counts must be a nonnegative 2x2x2 table")
        counts.flags.writeable = False
        self.__dict__.update(counts=counts)


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


def _check_drawn(drawn, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (masks, weights) of ``drawn``, rejected unless (m, n) and (m,)."""
    masks, weights = drawn
    shape = np.shape(masks)
    if len(shape) != 2 or shape[1] != n or np.shape(weights) != shape[:1]:
        raise ValueError(f"masks of shape {shape} and weights of shape {np.shape(weights)} "
                         f"do not fit a sequence of length {n}: need (m, {n}) and (m,)")
    return masks, weights


def smoothed_conditional_loss(lm: np.ndarray, d: Denoiser, drawn, x, z) -> float:
    """Expected (over the flip mask) normalized loss of the smoothed denoiser.

    ``drawn`` is a (masks, weights) pair from :func:`denoisers.mask_set`;
    the expectation is the weighted sum over its masks.  Each mask's mean
    loss is counted: two int32 row sums of its output y, the ones of y and,
    when x has ones, those of y & x, give the counts N[x, y] of
    :func:`_count_means`.  A row that counts a wide entry expands its
    counts for ``math.fsum``: the terms are nonnegative, so their order
    changes neither the sum nor the exception.
    """
    check_binary(d)
    if np.shape(lm) != (2, 2):
        raise ValueError(f"loss matrix has shape {np.shape(lm)}; smoothing needs (2, 2)")
    xs = check_sequence(x, 2, "clean sequence")
    zs = check_sequence(z, 2, "noisy sequence")
    if len(xs) != len(zs):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(zs)}")
    masks, weights = _check_drawn(drawn, len(zs))
    n = len(zs)
    x1 = xs.astype(np.uint8)
    z8 = zs.astype(np.uint8)
    n1 = int(np.count_nonzero(x1))
    counts = np.empty((len(masks), 4), dtype=np.int64)    # columns N00, N01, N10, N11
    for rows in blocks(*masks.shape):
        y = d.denoise_batch(z8 ^ masks[rows])
        block = counts[rows]
        block[:, 3] = (y & x1).sum(axis=1, dtype=np.int32) if n1 else 0
        block[:, 1] = y.sum(axis=1, dtype=np.int32) - block[:, 3]
        block[:, 2] = n1 - block[:, 3]
        block[:, 0] = n - n1 - block[:, 1]
    table = lm.reshape(1, 4)
    means = _count_means(table, counts, n, lambda i, r: np.repeat(table[i], counts[r]).tolist())
    return float(weights @ means[0])


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
    check_binary_channel(ch)
    _check_fit(ch, h, lm, d)
    zs = check_sequence(z, 2, "noisy sequence")
    masks, weights = _check_drawn(drawn, len(zs))
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
