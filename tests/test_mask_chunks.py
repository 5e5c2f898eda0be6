"""The smoothing kernels and the mask draw across chunk boundaries.

Every smoothed quantity walks its bool mask set in chunks of at most
``BLOCK_BYTES // n`` mask rows, and the mask draw makes its raw 64-bit
words in chunks of at most ``BLOCK_BYTES // (8 * n)``.  At the library's
chunk size the
property cases of ``test_smoothing_kernel`` (n <= 300, m <= 64) fit in one
chunk, so here the size is patched down to one entry, to one row, and to a
size that leaves a short last chunk.  Chunking is only a speed-up if every
bit stays: the kernels must be ``==`` to the int64 reference kernels, the
chunked draw must equal the one-shot ``random((m, n)) < q``, and the
one-mask draw of the emitted mask must equal ``uniforms(n) < q``.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from duodenoise import denoisers
from duodenoise.channel import compute_h, make_bsc
from duodenoise.denoisers import (
    ConstantDenoiser,
    IdentityDenoiser,
    ParityCopyDenoiser,
    ParityMarkedZerosDenoiser,
    SlidingWindowDenoiser,
    SmoothingConfig,
    blocks,
    draw_smoothing_mask,
    draw_smoothing_masks,
    enumerate_masks,
    make_sliding_window,
    mask_set,
    masked_values,
)
from duodenoise.losses import (
    estimate_smoothed_loss,
    loss_matrix,
    smoothed_conditional_loss,
    smoothed_per_symbol_estimates,
)
from duodenoise.rng import RngStream
from reference import reference_conditional_loss, reference_per_symbol

DENOISERS = {
    "window": SlidingWindowDenoiser(1, np.array([0, 1, 1, 0, 1, 0, 0, 1])),
    "majority": make_sliding_window(2, "majority"),
    "identity": IdentityDenoiser(),
    "constant": ConstantDenoiser(1),
    "parity_copy": ParityCopyDenoiser(),
    "marked_zeros": ParityMarkedZerosDenoiser(0.2),
    "marked_zeros_029": ParityMarkedZerosDenoiser(0.29),
}

# (config, n); every mask count leaves a remainder when split into 3 rows
SETS = {
    "exact": (SmoothingConfig(q=0.15, mode="exact"), 7),
    "monte_carlo_q": (SmoothingConfig(q=0.1, m=13), 50),
    "monte_carlo_nu": (SmoothingConfig(nu=0.5, m=40), 97),
}

# chunk sizes in entries, as a function of n
CHUNKS = {"one_entry": lambda n: 1, "one_row": lambda n: n, "short_last": lambda n: 3 * n}


@pytest.mark.parametrize("chunk", CHUNKS.values(), ids=CHUNKS.keys())
@pytest.mark.parametrize("case", SETS.values(), ids=SETS.keys())
@pytest.mark.parametrize("d", DENOISERS.values(), ids=DENOISERS.keys())
def test_chunked_kernels_match_int64_reference(d, case, chunk, monkeypatch):
    cfg, n = case
    monkeypatch.setattr(denoisers, "BLOCK_BYTES", chunk(n))
    m = 1 << n if cfg.mode == "exact" else cfg.m
    sizes = [rows.stop - rows.start for rows in blocks(m, n)]
    assert len(sizes) > 1 and sum(sizes) == m

    ch = make_bsc(0.2)
    h = compute_h(ch)
    lm = loss_matrix([[0.0, 2.5], [0.7, 0.1]])
    gen = RngStream(n).generator()
    x = (gen.random(n) < 0.5).astype(np.int64)
    z = (gen.random(n) < 0.3).astype(np.int64)
    z[0] = 1 - z[1:].sum() % 2      # odd parity, where the parity pairs differ
    stream = RngStream(41).derive("estimation-masks")

    drawn = mask_set(cfg, n, stream)
    ref = reference_per_symbol(ch, h, lm, d, cfg, z, stream)
    assert np.array_equal(smoothed_per_symbol_estimates(ch, h, lm, d, drawn, z), ref)
    assert estimate_smoothed_loss(ch, h, lm, d, drawn, z) == math.fsum(ref) / n
    assert smoothed_conditional_loss(lm, d, drawn, x, z) == \
        reference_conditional_loss(lm, d, cfg, x, z, stream)


@pytest.mark.parametrize("m, n, q", [
    (1, 1, 0.3), (5, 7, 0.1), (64, 300, 0.45), (128, 4096, 4096 ** -0.75),
    (17, 1000, 0.02), (3, 70000, 0.2), (4, 33, 0.0), (6, 40, 0.5 - 2**-54),
])
@pytest.mark.parametrize("entries", [None, 1, 2500])
def test_chunked_draw_equals_one_shot_draw(m, n, q, entries, monkeypatch):
    if entries is not None:
        monkeypatch.setattr(denoisers, "BLOCK_BYTES", entries)
    stream = RngStream(2020, m * n)
    masks = draw_smoothing_masks(SmoothingConfig(q=q, m=m), n, stream)
    assert masks.dtype == np.bool_
    assert np.array_equal(masks, stream.generator().random((m, n)) < q)
    # the emitted mask is a one-mask draw: bit for bit its former float body
    single = draw_smoothing_mask(SmoothingConfig(q=q), n, stream)
    assert single.dtype == np.bool_
    assert np.array_equal(single, stream.uniforms(n) < q)


class RecordingBits:
    """A bit generator's ``random_raw``, recording the size of each call."""

    def __init__(self, bits):
        self.bits = bits
        self.sizes = []

    def random_raw(self, size):
        self.sizes.append(size)
        return self.bits.random_raw(size)


@pytest.mark.parametrize("m, n", [(128, 4096), (16, 4096), (40, 1000), (5, 7),
                                  (3, 8192), (2, 70000)])
def test_mask_draw_chunks_fit_the_byte_budget(m, n, monkeypatch):
    # each chunk's raw 64-bit words fill at most BLOCK_BYTES, or one row
    stream = RngStream(7, m * n)
    expected = stream.generator().random((m, n)) < 0.1
    recorders = []
    generator = RngStream.generator

    def recording(self):
        recorders.append(RecordingBits(generator(self).bit_generator))
        return SimpleNamespace(bit_generator=recorders[-1])

    monkeypatch.setattr(RngStream, "generator", recording)
    masks = draw_smoothing_masks(SmoothingConfig(q=0.1, m=m), n, stream)
    assert np.array_equal(masks, expected)
    [recorder] = recorders
    rows = [size[0] for size in recorder.sizes]
    assert sum(rows) == m and all(size[1] == n for size in recorder.sizes)
    assert all(8 * k * n <= denoisers.BLOCK_BYTES or k == 1 for k in rows)
    assert max(rows) == max(1, min(m, denoisers.BLOCK_BYTES // (8 * n)))


def test_chunks_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(denoisers, "BLOCK_BYTES", 3 * 100 + 7)
    assert blocks(10, 100) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]
    assert blocks(2, 10) == [slice(0, 2)]
    assert blocks(2, 1000) == [slice(0, 1), slice(1, 2)]   # a row above the size
    assert blocks(0, 10) == []


def test_mask_set_cuts_keep_their_boundaries():
    """The byte budget cuts a bool mask set where the former budget of 2^16
    mask x position entries did: one byte per entry, in the helper and in
    the calls a functional sees."""
    assert denoisers.BLOCK_BYTES == 1 << 16
    for m, n in itertools.product(
            (1, 2, 13, 40, 128, 1000, 1 << 14),
            (1, 7, 50, 97, 255, 256, 300, 1000, 4095, 4096, 4097, 65535, 65536, 65537, 70000)):
        rows = max(1, (1 << 16) // n)
        former = [slice(start, min(start + rows, m)) for start in range(0, m, rows)]
        assert blocks(m, n) == former, (m, n)
        if m * n <= 1 << 20:
            sizes = []
            masked_values(lambda zs: sizes.append(len(zs)) or np.zeros(len(zs)),
                          np.zeros((m, n), dtype=bool), np.zeros(n, dtype=np.uint8))
            assert sizes == [part.stop - part.start for part in former], (m, n)


def test_exact_masks_are_bool_in_counter_order():
    n = 9
    masks = enumerate_masks(n)
    assert masks.dtype == np.bool_
    codes = np.arange(1 << n, dtype=np.int64)[:, None]
    assert np.array_equal(masks, (codes >> np.arange(n)) & 1)
