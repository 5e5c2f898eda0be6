"""The smoothing kernels against their int64 reference, bit for bit.

The reference is the former kernel: each call draws its own int64 masks,
builds the int64 flipped table with ``take_along_axis`` and averages it in
float64.  The library shares one bool mask set between calls and selects in
one-byte tables; that is only a speed-up if every estimate keeps every bit,
so these tests use ``np.array_equal`` and ``==``, never a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duodenoise.channel import compute_h, make_bsc
from duodenoise.denoisers import (
    ConstantDenoiser,
    IdentityDenoiser,
    ParityCopyDenoiser,
    ParityMarkedZerosDenoiser,
    SlidingWindowDenoiser,
    SmoothingConfig,
    make_sliding_window,
    mask_set,
)
from duodenoise.losses import (
    estimate_smoothed_loss,
    hamming_loss,
    loss_matrix,
    smoothed_conditional_loss,
    smoothed_per_symbol_estimates,
)
from duodenoise.rng import RngStream
from reference import reference_conditional_loss, reference_per_symbol


@st.composite
def denoisers(draw):
    kind = draw(st.sampled_from(["window", "parity_copy", "marked_zeros",
                                 "identity", "constant"]))
    if kind == "window":
        k = draw(st.integers(0, 2))
        table = draw(st.lists(st.integers(0, 1), min_size=2 ** (2 * k + 1),
                              max_size=2 ** (2 * k + 1)))
        return SlidingWindowDenoiser(k, np.array(table))
    if kind == "parity_copy":
        return ParityCopyDenoiser()
    if kind == "marked_zeros":
        return ParityMarkedZerosDenoiser(draw(st.sampled_from([0.2, 0.29, 0.49])))
    if kind == "identity":
        return IdentityDenoiser()
    return ConstantDenoiser(draw(st.integers(0, 1)))


@st.composite
def smoothing_cases(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        cfg = SmoothingConfig(q=draw(st.floats(0.0, 0.45)), mode="exact")
    else:
        m = draw(st.integers(1, 64))
        if draw(st.booleans()):
            cfg = SmoothingConfig(nu=draw(st.floats(0.3, 0.95)), m=m)
            # only n with n^-nu < 1/2 pass check_length; test_denoisers pins
            # the rejected (nu, n) at the ends of this range
            n = draw(st.integers(1, 300).filter(lambda n: cfg.resolve_q(n) < 0.5))
        else:
            n = draw(st.integers(1, 300))
            cfg = SmoothingConfig(q=draw(st.floats(0.0, 0.45)), m=m)
    seq = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    x, z = np.array(draw(seq)), np.array(draw(seq))
    # integer losses are counted, others summed; the asymmetric integer ones
    # with a nonzero diagonal tell every count N[x, y] apart
    lam = draw(st.sampled_from([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.5], [0.7, 0.1]],
                                [[1.0, 4.0], [2.0, 5.0]], [[0.0, 2.0], [3.0, 0.0]]]))
    return cfg, x, z, loss_matrix(lam)


@given(d=denoisers(), case=smoothing_cases(), delta=st.floats(0.05, 0.45),
       seed=st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_smoothed_kernels_match_int64_reference(d, case, delta, seed):
    cfg, x, z, lm = case
    ch = make_bsc(delta)
    h = compute_h(ch)
    stream = RngStream(seed).derive("estimation-masks")
    n = len(z)

    ref = reference_per_symbol(ch, h, lm, d, cfg, z, stream)
    drawn = mask_set(cfg, n, stream)
    assert np.array_equal(smoothed_per_symbol_estimates(ch, h, lm, d, drawn, z), ref)
    assert estimate_smoothed_loss(ch, h, lm, d, drawn, z) == math.fsum(ref) / n
    assert smoothed_conditional_loss(lm, d, drawn, x, z) == \
        reference_conditional_loss(lm, d, cfg, x, z, stream)


def test_parity_pair_matches_reference_at_experiment_size():
    """n = 4096 and m = 128: the headline experiment's shape, with its
    all-zero clean row and with a Bernoulli(1/2) one, whose ones the counted
    smoothed loss reads, for the parity pair and a k = 1 window."""
    ch = make_bsc(0.2)
    h = compute_h(ch)
    cfg = SmoothingConfig(nu=0.75, m=128)
    gen = RngStream(2020).generator()
    z = (gen.random(4096) < 0.2).astype(np.int64)
    z[0] = 1 - z[1:].sum() % 2   # odd parity, where the pair differs
    cleans = (np.zeros(4096, dtype=np.int64), (gen.random(4096) < 0.5).astype(np.int64))
    stream = RngStream(2020).derive("estimation-masks")
    drawn = mask_set(cfg, len(z), stream)
    for lm in (hamming_loss(2), loss_matrix([[1.0, 4.0], [2.0, 5.0]])):
        for d in (ParityCopyDenoiser(), ParityMarkedZerosDenoiser(0.2),
                  make_sliding_window(1, "majority")):
            assert np.array_equal(
                smoothed_per_symbol_estimates(ch, h, lm, d, drawn, z),
                reference_per_symbol(ch, h, lm, d, cfg, z, stream),
            )
            for x in cleans:
                assert smoothed_conditional_loss(lm, d, drawn, x, z) == \
                    reference_conditional_loss(lm, d, cfg, x, z, stream)


@pytest.mark.parametrize("exponent, counted", [(52, True), (53, False)])
def test_conditional_loss_counts_below_two_to_the_53(exponent, counted, monkeypatch):
    """Integer losses are counted while n * max lambda < 2^53, where every
    partial sum of a row is exact; at 2^53 they are summed as numpy does.
    Either way the bits are the reference's."""
    n = 64
    lm = loss_matrix([[3.0, 2.0 ** exponent / n], [1.0, 7.0]])
    cfg = SmoothingConfig(q=0.3, m=40)
    gen = RngStream(exponent).generator()
    x = (gen.random(n) < 0.5).astype(np.int64)
    z = (gen.random(n) < 0.5).astype(np.int64)
    stream = RngStream(exponent).derive("estimation-masks")
    drawn = mask_set(cfg, n, stream)
    selected = []
    where = np.where
    monkeypatch.setattr(np, "where", lambda *args: selected.append(1) or where(*args))
    got = smoothed_conditional_loss(lm, ParityCopyDenoiser(), drawn, x, z)
    monkeypatch.undo()
    assert bool(selected) is not counted
    assert got == reference_conditional_loss(lm, ParityCopyDenoiser(), cfg, x, z, stream)
