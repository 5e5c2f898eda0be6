"""Deterministic, named random streams.

Every source of randomness in the library is an explicit :class:`RngStream`
argument.  A stream is identified by ``(master_seed, stream_id)`` and is backed
by the counter-based Philox generator keyed by that pair, so the same pair
always produces the same draws, on any platform, independent of evaluation
order or thread count.  Sub-streams for named purposes ("channel",
"estimation masks", trial indices, ...) are derived by hashing the parent id
together with a tag.

A Philox stream's whole state is its key and a counter, so
:func:`uniform_rows` does not build a generator per stream: each thread keeps
one and, for each row, resets its state to the row's stream key, counter zero
and an empty buffer, then draws straight into that row.
:meth:`RngStream.uniforms` is its one-row case.  That generator is never
handed out, so a reset cannot disturb a holder; :meth:`RngStream.generator`
returns a fresh generator that the caller owns.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

_per_thread = threading.local()


def _child_id(stream_id: int, tag) -> int:
    """The stream id of the child of stream ``stream_id`` named ``tag``: a
    stable 64-bit hash of the two, identical across runs and platforms."""
    payload = f"{stream_id & _MASK64}/{tag}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def uniform_rows(master_seed: int, stream_ids, n: int) -> np.ndarray:
    """(len(stream_ids), n) float64: row r is the first n uniform [0,1)
    draws of stream ``(master_seed, stream_ids[r])``, bit for bit its
    ``generator().random(n)``.  Each row is drawn in place from this
    thread's generator after resetting it to the row's key (low word the
    stream id, high word the master seed)."""
    try:
        gen, state, key = _per_thread.reset
    except AttributeError:          # this thread's first stream
        gen = np.random.Generator(np.random.Philox(key=0))
        state = gen.bit_generator.state  # counter zero, empty buffer
        key = state["state"]["key"]
        _per_thread.reset = gen, state, key
    rows = np.empty((len(stream_ids), n))
    key[1] = master_seed & _MASK64
    for row, stream_id in zip(rows, stream_ids):
        key[0] = stream_id & _MASK64
        gen.bit_generator.state = state
        gen.random(out=row)
    return rows


@dataclass(frozen=True)
class RngStream:
    """A reproducible stream of randomness keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator for this stream, always at counter zero."""
        key = ((self.master_seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, tag) -> "RngStream":
        """Child stream for a named purpose or index.

        Distinct tags (and distinct parents) give statistically independent
        streams; the derivation is a stable hash, so it is identical across
        runs and platforms.
        """
        return RngStream(self.master_seed, _child_id(self.stream_id, tag))

    def uniforms(self, n: int) -> np.ndarray:
        """The first n uniform [0,1) draws of this stream, bit for bit
        ``self.generator().random(n)``: the one-row :func:`uniform_rows`."""
        return uniform_rows(self.master_seed, [self.stream_id], n)[0]
