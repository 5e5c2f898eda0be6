"""Discrete memoryless channels and their estimator dual matrices.

A channel is a row-stochastic transition matrix ``pi`` from a clean alphabet of
size K to a noisy alphabet of size M (M >= K).  The loss estimator needs a
companion matrix ``h`` with ``pi @ h.T == I``; for square invertible channels
it is unique, otherwise any solution works and we expose both the
minimum-norm choice and the conventional erasure-channel choice.
"""

from __future__ import annotations

import numpy as np

from .record import Record
from .rng import RngStream
from .spec import ConfigError, build, read_typed

ROW_SUM_TOL = 1e-12
H_IDENTITY_TOL = 1e-9

#: By convention the erasure symbol of an erasure channel is the last
#: (highest-index) output symbol.
ERASURE = 2


def parse_symbols(text: str) -> np.ndarray:
    """The symbols written in ``text`` as int64: ASCII decimal integers
    separated by commas and/or whitespace, newlines included.  Any other
    token (a sign, an underscore, a non-ASCII digit) raises ValueError."""
    tokens = text.replace(",", " ").split()
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"not a decimal symbol: {token!r}")
    try:
        return np.array(list(map(int, tokens)), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"symbol out of range: {exc}") from exc


def check_sequence(seq, alphabet_size: int, name: str = "sequence") -> np.ndarray:
    """Validate and return seq as an int64 array with symbols < alphabet_size."""
    arr = np.asarray(seq)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array of symbols")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must contain integer symbols")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() >= alphabet_size:
        raise ValueError(
            f"{name} has symbols outside [0, {alphabet_size}): "
            f"range [{arr.min()}, {arr.max()}]"
        )
    return arr


class Channel(Record):
    """A DMC given by its K x M row-stochastic transition matrix ``pi``, held
    as a read-only float64 array.  Immutable, and equal only to itself."""

    def __init__(self, pi: np.ndarray):
        pi = np.array(pi, dtype=np.float64)
        if pi.ndim != 2:
            raise ValueError("pi must be a 2-d matrix")
        k, m = pi.shape
        if k < 2:
            raise ValueError("input alphabet must have at least 2 symbols")
        if m < k:
            raise ValueError("output alphabet cannot be smaller than the input alphabet")
        if not (pi.min() >= 0.0 and pi.max() <= 1.0):     # NaN fails both
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_err = np.abs(pi.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(
                f"rows of pi must sum to 1 within {ROW_SUM_TOL:g} (max error {row_err:g}); "
                "normalize explicitly if that is intended"
            )
        pi.flags.writeable = False
        self.__dict__.update(pi=pi)

    @property
    def input_size(self) -> int:
        return self.pi.shape[0]

    @property
    def output_size(self) -> int:
        return self.pi.shape[1]


def h_defect(channel: Channel, h: np.ndarray) -> float:
    """max |pi @ h.T - I|, the violation of the defining identity."""
    k = channel.input_size
    return float(np.abs(channel.pi @ h.T - np.eye(k)).max())


def check_h_identity(channel: Channel, h: np.ndarray) -> None:
    """Reject an h that fails pi @ h.T = I by more than ``H_IDENTITY_TOL``,
    or by a NaN defect."""
    defect = h_defect(channel, h)
    if not defect <= H_IDENTITY_TOL:
        raise ValueError(f"h fails pi @ h.T = I by {defect:g} (> {H_IDENTITY_TOL:g})")


def _check_h(channel: Channel, h: np.ndarray) -> np.ndarray:
    """h as a read-only float64 K x M array, once it satisfies pi @ h.T = I."""
    h = np.array(h, dtype=np.float64)
    check_h_identity(channel, h)
    h.flags.writeable = False
    return h


def check_binary_channel(channel: Channel) -> None:
    """Reject a channel that is not binary, which randomized combining needs."""
    if channel.pi.shape != (2, 2):
        raise ValueError("randomized combining needs a binary channel")


def make_bsc(delta: float) -> Channel:
    """Binary symmetric channel with crossover probability delta in (0, 1/2)."""
    if not 0.0 < delta < 0.5:
        raise ValueError(
            f"degenerate channel: BSC crossover must lie in (0, 1/2), got {delta}"
        )
    pi = [[1.0 - delta, delta], [delta, 1.0 - delta]]
    return Channel(pi)


def make_bec(epsilon: float) -> Channel:
    """Binary erasure channel; the erasure is output symbol 2."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"erasure probability must lie in (0, 1), got {epsilon}")
    pi = [[1.0 - epsilon, 0.0, epsilon], [0.0, 1.0 - epsilon, epsilon]]
    return Channel(pi)


def channel_from_json(text_or_dict, path: str = "channel") -> Channel:
    """Parse a channel spec, given as a dict or as JSON text."""
    values = read_typed(text_or_dict, path, "channel type", {
        "bsc": ({"delta": float}, {}),
        "bec": ({"epsilon": float}, {}),
        "dmc": ({"pi": [[float]]}, {}),
    })
    make = {"bsc": make_bsc, "bec": make_bec, "dmc": Channel}[values.pop("type")]
    return build(path, make, *values.values())


def is_bec(channel: Channel) -> bool:
    """Structural test for a binary erasure channel (erasure = symbol 2)."""
    if channel.input_size != 2 or channel.output_size != 3:
        return False
    pi = channel.pi
    eps = pi[0, 2]
    expected = np.array([[1.0 - eps, 0.0, eps], [0.0, 1.0 - eps, eps]])
    return 0.0 < eps < 1.0 and bool(np.allclose(pi, expected, atol=1e-15))


def sample_output(channel: Channel, x, rng: RngStream) -> np.ndarray:
    """One channel realization: each symbol drawn from the row pi(x_i, .).

    Uses inverse-CDF on a single uniform per position with cumulative sums in
    fixed symbol order, so the output is bit-reproducible given the stream.
    """
    xs = check_sequence(x, channel.input_size, "input")
    return outputs_from_uniforms(channel, xs, rng.uniforms(len(xs)))


def outputs_from_uniforms(channel: Channel, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The inverse-CDF outputs of :func:`sample_output` for clean symbols xs
    and uniforms u of the same shape, e.g. a (B, n) block of trials: the
    number of the first M - 1 cumulative probabilities of row xs that u
    reaches.  The rows of ``cum`` are nondecreasing, so a u at or above a
    last entry that rounds below 1 still gives symbol M - 1."""
    cum = np.cumsum(channel.pi, axis=1)
    z = np.zeros(u.shape, np.int64)
    for column in cum[:, :-1].T:
        z += u >= column[xs]
    return z


def compute_h(channel: Channel) -> np.ndarray:
    """Solve pi @ h.T = I for h.

    Square invertible pi gives the unique transpose-inverse; a wide full-rank
    pi gives the minimum-Frobenius-norm solution.  Rank-deficient pi admits no
    solution at all.
    """
    pi = channel.pi
    k = channel.input_size
    if np.linalg.matrix_rank(pi) < k:
        raise ValueError("no valid h exists: transition matrix is rank deficient")
    if channel.output_size == k:
        h = np.linalg.inv(pi).T
    else:
        h = np.linalg.pinv(pi).T
    return _check_h(channel, h)


def canonical_erasure_h(channel: Channel) -> np.ndarray:
    """The conventional erasure-channel h: 1(x = z)/(1 - eps), zero at erasures.

    Differs from the minimum-norm solution yet satisfies the same identity;
    it makes the estimator reduce to the hypothetical-erasure form.
    """
    if not is_bec(channel):
        raise ValueError("canonical erasure h requires a binary erasure channel")
    eps = float(channel.pi[0, 2])
    h = np.zeros((2, 3))
    h[0, 0] = h[1, 1] = 1.0 / (1.0 - eps)
    return _check_h(channel, h)


def h_from_choice(channel: Channel, choice: str | None = None,
                  path: str = "h") -> tuple[str, np.ndarray]:
    """(choice, h) for a named h; without a choice, ``canonical_erasure`` on
    a binary erasure channel and ``min_norm`` otherwise."""
    if choice is None:
        choice = "canonical_erasure" if is_bec(channel) else "min_norm"
    makers = {"min_norm": compute_h, "canonical_erasure": canonical_erasure_h}
    if choice not in makers:
        raise ConfigError(f"{path}: unknown h choice: {choice!r}")
    return choice, build(path, makers[choice], channel)
