"""Deterministic, named random streams.

Every source of randomness in the library is an explicit :class:`RngStream`
argument.  A stream is identified by ``(master_seed, stream_id)`` and is backed
by the counter-based Philox generator keyed by that pair, so the same pair
always produces the same draws, on any platform, independent of evaluation
order or thread count.  Sub-streams for named purposes ("channel",
"estimation masks", trial indices, ...) are derived by hashing the parent id
together with a tag.

A Philox stream's whole state is its key and a counter, so
:meth:`RngStream.uniforms` does not build a generator per stream: each thread
keeps one and resets its state to the stream's key, counter zero and an empty
buffer before drawing.  That generator is never handed out, so a reset cannot
disturb a holder; :meth:`RngStream.generator` returns a fresh generator that
the caller owns.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

_per_thread = threading.local()


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
        payload = f"{self.stream_id & _MASK64}/{tag}".encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return RngStream(self.master_seed, int.from_bytes(digest, "little"))

    def uniforms(self, n: int) -> np.ndarray:
        """The first n uniform [0,1) draws of this stream, bit for bit
        ``self.generator().random(n)``, drawn from this thread's generator
        after resetting it to the stream's key (low word the stream id, high
        word the master seed)."""
        try:
            gen, state, key = _per_thread.reset
        except AttributeError:      # this thread's first stream
            gen = np.random.Generator(np.random.Philox(key=0))
            state = gen.bit_generator.state  # counter zero, empty buffer
            key = state["state"]["key"]
            _per_thread.reset = gen, state, key
        key[0] = self.stream_id & _MASK64
        key[1] = self.master_seed & _MASK64
        gen.bit_generator.state = state
        return gen.random(n)
