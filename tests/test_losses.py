"""Loss arrays, the unbiased estimator, joint types, and smoothing."""

from __future__ import annotations

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duodenoise.channel import Channel, canonical_erasure_h, compute_h, make_bec, make_bsc
from duodenoise.denoisers import (
    BecParityDenoiser,
    ConstantDenoiser,
    IdentityDenoiser,
    ParityCopyDenoiser,
    ParityMarkedZerosDenoiser,
    SmoothingConfig,
    make_bec_parity_pair,
    make_bsc_counterexample_pair,
    make_sliding_window,
    mask_set,
)
from duodenoise.harness import (
    ConfigError,
    ExperimentConfig,
    estimate_functional,
    run_experiment,
)
from duodenoise.losses import (
    JointTypeCounts,
    _array_key,
    _context_table,
    _estimates_from_table,
    _row_means,
    _table_means,
    bsc_estimate_from_type,
    cumulative_loss,
    erasure_estimate_loss,
    estimate_loss,
    estimate_losses,
    estimate_smoothed_loss,
    hamming_loss,
    joint_type_counts,
    loss_from_json,
    loss_matrix,
    losses_and_estimates,
    per_symbol_estimates,
    smoothed_conditional_loss,
    smoothed_per_symbol_estimates,
    true_losses,
)
from duodenoise.rng import RngStream
from reference import estimates_kernel, fsum_means, gathered_means, reference_estimate_losses

HAMMING = hamming_loss(2)


class TestLoss:
    def test_hamming(self):
        np.testing.assert_array_equal(HAMMING, [[0, 1], [1, 0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            loss_matrix([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            loss_matrix([[0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^loss matrix must not be empty, got shape "
                                             r"\(0, 0\)$"):
            loss_matrix(np.zeros((0, 0)))
        with pytest.raises(ValueError, match=r"^Hamming loss needs k >= 1 symbols, got k = 0$"):
            hamming_loss(0)

    def test_from_json(self):
        lm = loss_from_json({"type": "matrix", "lambda": [[0, 2], [3, 0]]})
        np.testing.assert_array_equal(lm, [[0, 2], [3, 0]])
        assert loss_from_json('{"type": "hamming"}', 4).shape == (4, 4)
        assert loss_from_json({"type": "hamming"}, 3).shape == (3, 3)
        # the size is the caller's: a Hamming spec that names one is rejected
        with pytest.raises(ConfigError, match=r"^unknown keys in loss: \['k'\]$"):
            loss_from_json({"type": "hamming", "k": 3}, 3)

    @pytest.mark.parametrize("make", [
        lambda: hamming_loss(2),
        lambda: loss_matrix([[0.0, 1.0, 4.0], [2.0, 0.0, 1.0], [3.0, 0.5, 0.0]]),
        lambda: loss_from_json({"type": "hamming"}, 3),
        lambda: loss_from_json({"type": "matrix", "lambda": [[0, 2], [3, 0]]}),
        lambda: ExperimentConfig.from_json({
            "channel": {"type": "bsc", "delta": 0.2}, "n": 4, "trials": 1,
            "master_seed": 1, "denoisers": {"type": "bsc_counterexample_pair", "delta": 0.2},
            "loss": {"type": "matrix", "lambda": [[0, 1], [2, 0]]}}).lm,
    ], ids=["hamming", "matrix", "json_hamming", "json_matrix", "config"])
    def test_loss_is_a_read_only_float64_array(self, make):
        lm = make()
        assert type(lm) is np.ndarray and lm.dtype == np.float64 and lm.ndim == 2
        with pytest.raises(ValueError, match="read-only"):
            lm[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            lm += 1.0

    def test_cumulative_loss(self):
        assert cumulative_loss(HAMMING, [0, 1, 1, 0], [0, 0, 1, 1]) == 0.5
        with pytest.raises(ValueError, match="length mismatch"):
            cumulative_loss(HAMMING, [0, 1], [0])


class TestEstimator:
    def test_identity_on_bsc_estimates_crossover_rate(self):
        # for the identity the estimate is exactly delta whatever z is
        ch = make_bsc(0.25)
        h = compute_h(ch)
        for z in ([0, 0, 0], [1, 0, 1, 1], [0, 1]):
            got = estimate_loss(ch, h, HAMMING, IdentityDenoiser(), z)
            assert got == pytest.approx(0.25, abs=1e-12)

    def test_constant_zero_on_bsc(self):
        # per-symbol value is h(1, z_i): -delta/(1-2delta) at 0, dbar/(1-2delta) at 1
        ch = make_bsc(0.25)
        h = compute_h(ch)
        d = ConstantDenoiser(0, 2)
        got = estimate_loss(ch, h, HAMMING, d, [0, 0, 1, 1])
        assert got == pytest.approx((2 * -0.5 + 2 * 1.5) / 4, abs=1e-12)

    def test_estimates_can_go_negative(self):
        ch = make_bsc(0.2)
        h = compute_h(ch)
        z = np.zeros(9, dtype=np.int64)
        z[0] = 1  # odd parity, mostly zeros
        got = estimate_loss(ch, h, HAMMING, ParityCopyDenoiser(), z)
        assert got < 0.0

    def test_symbols_the_denoiser_cannot_read_are_rejected(self):
        # a binary denoiser on a BEC is rejected before any symbol is read
        ch = make_bec(0.3)
        with pytest.raises(ValueError, match="denoiser maps 2 noisy to 2 clean symbols; "
                                             "the channel has 3 noisy"):
            estimate_loss(ch, compute_h(ch), HAMMING, IdentityDenoiser(), [0, 2, 1])

    @pytest.mark.parametrize("call, message", [
        (lambda: erasure_estimate_loss(make_bec(0.3), HAMMING, IdentityDenoiser(), [0, 1, 0]),
         "denoiser maps 2 noisy to 2 clean symbols; the channel has 3 noisy and 2 clean"),
        (lambda: estimate_loss(make_bsc(0.2), compute_h(make_bec(0.3)), HAMMING,
                               IdentityDenoiser(), [0, 1, 0]),
         r"h has shape \(2, 3\); the channel needs \(2, 2\)"),
        (lambda: estimate_loss(make_bsc(0.2), np.zeros((2, 2)), HAMMING,
                               IdentityDenoiser(), [0, 1, 0]),
         r"h fails pi @ h.T = I by 1 \(> 1e-09\)"),
        (lambda: estimate_loss(make_bsc(0.2), compute_h(make_bsc(0.2)), loss_matrix([[0.0]]),
                               IdentityDenoiser(), [0, 1, 0]),
         r"loss matrix has shape \(1, 1\); the channel needs \(2, 2\)"),
        (lambda: per_symbol_estimates(make_bsc(0.2), compute_h(make_bsc(0.2)), hamming_loss(3),
                                      IdentityDenoiser(), [0, 1, 0]),
         r"loss matrix has shape \(3, 3\)"),
        (lambda: estimate_functional(make_bsc(0.2), compute_h(make_bsc(0.2)), HAMMING,
                                     IdentityDenoiser(3))(np.zeros((1, 3), np.int64)),
         "denoiser maps 3 noisy to 3 clean symbols; the channel has 2 noisy and 2 clean"),
        (lambda: estimate_functional(make_bec(0.3), canonical_erasure_h(make_bec(0.3)), HAMMING,
                                     IdentityDenoiser())(np.zeros((1, 3), np.int64)),
         "denoiser maps 2 noisy to 2 clean symbols; the channel has 3 noisy"),
        (lambda: estimate_smoothed_loss(make_bsc(0.2), np.zeros((2, 2)), HAMMING,
                                        IdentityDenoiser(),
                                        mask_set(SmoothingConfig(q=0.1, mode="exact"), 3, None),
                                        [0, 1, 0]),
         "h fails pi @ h.T = I"),
    ], ids=["erasure_binary_denoiser", "bec_h_on_bsc", "zero_h", "one_symbol_loss",
            "ternary_loss", "ternary_denoiser_functional", "binary_denoiser_on_bec_functional",
            "smoothed_zero_h"])
    def test_arguments_that_do_not_fit_the_channel_are_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_per_symbol_estimates_sum_to_estimate(self):
        ch = make_bsc(0.3)
        h = compute_h(ch)
        d = make_sliding_window(1, "majority")
        z = RngStream(5).generator().integers(0, 2, size=64)
        vals = per_symbol_estimates(ch, h, HAMMING, d, z)
        assert math.fsum(vals) / 64 == estimate_loss(ch, h, HAMMING, d, z)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


_BSC = make_bsc(0.2)
_BEC = make_bec(0.3)
_DMC3 = Channel([[0.7, 0.2, 0.1], [0.15, 0.6, 0.25], [0.05, 0.25, 0.7]])
_DMC5 = Channel(0.1 + 0.5 * np.eye(5))
_LOSS3 = loss_matrix([[0.0, 1.0, 4.0], [2.0, 0.0, 1.0], [3.0, 0.5, 0.0]])
_LOSS5 = loss_matrix(np.abs(np.subtract.outer(np.arange(5), np.arange(5))) ** 1.5)

# (id, channel, h, loss, denoisers): every denoiser kind on a channel it reads
ESTIMATOR_CASES = [
    ("bsc", _BSC, compute_h(_BSC), HAMMING,
     [IdentityDenoiser(), ConstantDenoiser(1), make_sliding_window(1, "majority"),
      make_sliding_window(2, "majority"), ParityCopyDenoiser(),
      ParityMarkedZerosDenoiser(0.2), ParityMarkedZerosDenoiser(0.49)]),
    *[(f"bec-{name}", _BEC, h, HAMMING,
       [IdentityDenoiser(2, 3), ConstantDenoiser(1, 2, 3),
        make_sliding_window(1, "majority", 3, 2),
        BecParityDenoiser(complement=False), BecParityDenoiser(complement=True)])
      for name, h in (("min_norm", compute_h(_BEC)), ("canonical", canonical_erasure_h(_BEC)))],
    ("dmc3", _DMC3, compute_h(_DMC3), _LOSS3,
     [IdentityDenoiser(3, 3), ConstantDenoiser(2, 3, 3), make_sliding_window(1, "majority", 3, 3)]),
    # 5 * 5^5 = 15625 contexts: more than most batches here have positions
    ("dmc5", _DMC5, compute_h(_DMC5), _LOSS5,
     [IdentityDenoiser(5, 5), ConstantDenoiser(3, 5, 5), make_sliding_window(1, "majority", 5, 5)]),
]


def _assert_estimates_match_reference(ch, h, lm, d, zs):
    want = estimates_kernel(ch, h, lm[:, d.substituted_outputs_batch(zs)], zs)
    assert np.array_equal(_bits(estimate_losses(ch, h, lm, d, zs)), _bits(fsum_means(want)))
    for row, z in enumerate(zs[:3]):
        assert np.array_equal(_bits(per_symbol_estimates(ch, h, lm, d, z)), _bits(want[row]))
        assert _bits(estimate_loss(ch, h, lm, d, z)) == _bits(reference_estimate_losses(
            ch, h, lm, d, z[None])[0])


class TestContextTable:
    """The estimator reads each position's estimate from a table over the
    M * K^M contexts (z_i, t_i(0..M-1)); its results equal the per-position
    kernel's bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(ESTIMATOR_CASES), st.data())
    def test_equals_per_position_kernel_bitwise(self, case, data):
        _, ch, h, lm, denoisers = case
        d = data.draw(st.sampled_from(denoisers), label="denoiser")
        shape = data.draw(st.sampled_from([(1, 1), (3, 1), (1, 2), (7, 33), (2, 300),
                                           (1, 4096), (512, 14)]), label="shape")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        zs = np.random.default_rng(seed).integers(0, ch.output_size, shape)
        _assert_estimates_match_reference(ch, h, lm, d, zs)

    @pytest.mark.parametrize("case,shape,table", [
        ("bsc", (1, 1), False),         # 8 contexts, one position
        ("bsc", (1, 8), True),
        ("dmc5", (2, 9), False),        # 15625 contexts, 18 positions
        ("dmc5", (4, 4096), True),
    ])
    def test_both_sides_of_the_size_rule(self, case, shape, table, monkeypatch):
        _, ch, h, lm, denoisers = next(c for c in ESTIMATOR_CASES if c[0] == case)
        zs = RngStream(15).generator().integers(0, ch.output_size, shape)
        context_rows = []

        def kernel(ch_, h_, z, lam_tab):
            context_rows.append(z.shape == (ch.output_size * len(lm) ** ch.output_size,))
            return _estimates_from_table(ch_, h_, z, lam_tab)

        for d in denoisers:
            want = reference_estimate_losses(ch, h, lm, d, zs)
            # an empty cache, so that the table side builds its table here
            _context_table.cache_clear()
            with monkeypatch.context() as patch:
                patch.setattr("duodenoise.losses._estimates_from_table", kernel)
                got = estimate_losses(ch, h, lm, d, zs)
            assert np.array_equal(_bits(got), _bits(want))
        assert context_rows == [table] * len(denoisers)

    # both sides of the rule: a binary channel has 8 (BSC) or 24 (BEC)
    # contexts and 16 or 48 joint codes, dmc5 15625 and 78125
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ESTIMATOR_CASES), st.data())
    def test_joint_form_equals_the_single_forms_bitwise(self, case, data):
        name, ch, h, lm, denoisers = case
        d = data.draw(st.sampled_from(denoisers), label="denoiser")
        shapes = [(2, 9), (4, 4096)] if name == "dmc5" else [(1, 1), (2, 12), (1, 16), (512, 14)]
        b, n = data.draw(st.sampled_from(shapes), label="shape")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        zs = gen.integers(0, ch.output_size, (b, n))
        # one clean sequence for the batch, or one per row
        xs = gen.integers(0, ch.input_size, data.draw(st.sampled_from([(n,), (b, n)])))
        want = np.stack([true_losses(lm, d, xs, zs), estimate_losses(ch, h, lm, d, zs)])
        assert np.array_equal(_bits(losses_and_estimates(ch, h, lm, d, xs, zs)), _bits(want))


_DMC23 = Channel([[0.7, 0.2, 0.1], [0.15, 0.25, 0.6]])
_BSC3 = make_bsc(0.3)
_SKEWED = loss_matrix([[0.0, 2.0], [0.5, 0.0]])
# (channel, h, denoiser) of each channel the cache tests interleave
CACHE_CASES = [
    (_BSC, compute_h(_BSC), make_sliding_window(1, "majority")),
    (_BSC3, compute_h(_BSC3), ParityCopyDenoiser()),
    (_BEC, canonical_erasure_h(_BEC), BecParityDenoiser(complement=True)),
    (_DMC23, compute_h(_DMC23), make_sliding_window(1, "majority", 3, 2)),
]


class TestContextTableCache:
    """The context table is built once per distinct (channel, h, loss) and
    read from a cache after that; what is read equals a fresh build bit for
    bit, whatever was built in between."""

    def test_interleaved_keys_match_fresh_builds(self):
        gen = RngStream(31).generator()
        calls = [(ch, h, lm, d, gen.integers(0, ch.output_size, (3, 64)))
                 for ch, h, d in CACHE_CASES for lm in (HAMMING, _SKEWED)]
        fresh = []
        for ch, h, lm, d, zs in calls:
            _context_table.cache_clear()
            fresh.append(_bits(estimate_losses(ch, h, lm, d, zs)))
        _context_table.cache_clear()
        for _ in range(3):
            for (ch, h, lm, d, zs), want in zip(calls, fresh):
                assert np.array_equal(_bits(estimate_losses(ch, h, lm, d, zs)), want)
        info = _context_table.cache_info()
        assert (info.misses, info.hits) == (len(calls), 2 * len(calls))

    def test_an_h_written_in_place_gets_its_own_table(self):
        ch, h, d = CACHE_CASES[0]
        h = h.copy()
        zs = RngStream(32).generator().integers(0, 2, (2, 50))
        before = estimate_losses(ch, h, HAMMING, d, zs)
        h[0, 1] += 0.25
        after = estimate_losses(ch, h, HAMMING, d, zs)
        _context_table.cache_clear()
        assert np.array_equal(_bits(after), _bits(estimate_losses(ch, h, HAMMING, d, zs)))
        assert not np.array_equal(_bits(after), _bits(before))

    def test_the_cached_table_is_read_only(self):
        ch, h, d = CACHE_CASES[0]
        estimate_losses(ch, h, HAMMING, d, np.zeros((1, 8), np.int64))
        table = _context_table(*map(_array_key, (ch.pi, h, HAMMING)))
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0

    def test_a_plain_run_builds_one_table_per_triple(self):
        spec = {"channel": {"type": "bsc", "delta": 0.2}, "n": 64, "trials": 400,
                "master_seed": 3, "denoisers": {"type": "bsc_counterexample_pair", "delta": 0.2}}
        _context_table.cache_clear()
        run_experiment(ExperimentConfig.from_json(spec))    # 4 blocks, 2 denoisers
        assert _context_table.cache_info().misses == 1
        run_experiment(ExperimentConfig.from_json(spec))
        run_experiment(ExperimentConfig.from_json({**spec, "loss": {
            "type": "matrix", "lambda": [[0.0, 2.0], [0.5, 0.0]]}}))
        run_experiment(ExperimentConfig.from_json({**spec, "channel": {
            "type": "bsc", "delta": 0.3}}))
        assert _context_table.cache_info().misses == 3


@st.composite
def _term_blocks(draw):
    """(B, n) float64 blocks whose rows take one extraction level (small
    integers), two (terms of like magnitude), three or more (exponents
    spread wide), or none (all +0.0 or all -0.0), and subnormal rows and
    rows too large for any level, which go to math.fsum whole."""
    shape = draw(st.sampled_from([(1, 1), (4, 1), (1, 2), (3, 17), (8, 256),
                                  (1, 4096), (600, 14)]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "like", "spread", "zeros", "negative zeros",
                                 "subnormal", "huge", "mixed"]))
    if kind == "integers":
        return gen.integers(-1000, 1000, shape).astype(np.float64)
    if kind == "like":
        return gen.choice([-0.2 / 0.6, 0.2, 0.8, 0.8 / 0.6, 0.0], shape)
    if kind == "spread":
        return gen.standard_normal(shape) * np.exp2(gen.integers(-1074, 1000, shape))
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "negative zeros":
        return np.full(shape, -0.0)
    if kind == "subnormal":
        return gen.integers(-2**20, 2**20, shape) * 5e-324
    if kind == "huge":
        return gen.choice([1e308, -1e308, 1.5e307, -2.0**1020], shape)
    # each row of its own kind, so one block mixes fast and fallback rows
    rows = [draw(st.sampled_from([0.1, -1e-300, 2.0**1020, 5e-324, -0.0, 1.0]))
            * gen.standard_normal(shape[1]) for _ in range(shape[0])]
    return np.array(rows)


class TestExactRowSums:
    """losses._row_means is math.fsum(row) / n bit for bit, in numpy."""

    @settings(max_examples=300, deadline=None)
    @given(_term_blocks())
    def test_equals_fsum_bytewise(self, terms):
        try:
            want = fsum_means(terms)
        except OverflowError:
            with pytest.raises(OverflowError):
                _row_means(terms.copy())
            return
        assert _row_means(terms.copy()).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40), st.integers(1, 3))
    def test_any_floats_give_fsums_result_or_exception(self, row, copies):
        terms = np.array([row] * copies)
        try:
            want = fsum_means(terms)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                _row_means(terms.copy())
            return
        assert _row_means(terms.copy()).tobytes() == want.tobytes()

    def test_signed_zero_rows_sum_to_positive_zero(self):
        terms = np.array([[-0.0, -0.0], [0.0, -0.0], [1.0, -1.0]])
        assert _row_means(terms).tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("shape", [(8, 256), (1, 4096)])
    def test_bsc_blocks_never_call_fsum(self, shape, monkeypatch):
        # a BSC estimate term is one of -delta/(1-2delta), delta, 1-delta and
        # (1-delta)/(1-2delta), all within a factor 8 of each other, so each
        # row takes at most two levels and no Python summation
        ch = make_bsc(0.2)
        h = compute_h(ch)
        zs = RngStream(14).generator().integers(0, 2, shape)
        pairs = [(d, reference_estimate_losses(ch, h, HAMMING, d, zs))
                 for d in (*make_bsc_counterexample_pair(0.2), make_sliding_window(1, "majority"))]

        def no_fsum(values):
            raise AssertionError("math.fsum called")

        monkeypatch.setattr(math, "fsum", no_fsum)
        for d, want in pairs:
            assert estimate_losses(ch, h, HAMMING, d, zs).tobytes() == want.tobytes()


@st.composite
def _table_cases(draw):
    """((T, C) float64 tables, (B, n) int64 codes into them), B from 1 to
    8 and n from 1 to 5000, C at most 64, so on either side of C <= n.
    Tables take one extraction level (small integers), two (entries of like
    magnitude) or three and more (exponents spread wide), or hold infinite,
    NaN or too-large entries; each row of codes reads a prefix of the
    table of its own length, so some rows count a special entry and
    others do not."""
    rows, n = draw(st.integers(1, 8)), draw(st.integers(1, 5000))
    t, c = draw(st.integers(1, 3)), draw(st.integers(1, 64))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integers", "like", "spread", "subnormal", "special"]))
    if kind == "integers":
        tables = gen.integers(-1000, 1000, (t, c)).astype(np.float64)
    elif kind == "like":
        tables = gen.choice([-0.2 / 0.6, 0.2, 0.8, 0.8 / 0.6, 0.0, -0.0], (t, c))
    elif kind == "subnormal":
        tables = gen.integers(-2**20, 2**20, (t, c)) * 5e-324
    else:
        tables = gen.standard_normal((t, c)) * np.exp2(gen.integers(-1074, 1000, (t, c)))
    if kind == "special":
        special = [math.inf, -math.inf, math.nan, 2.0**1012, -1e308, 1e308]
        at = gen.integers(0, c, draw(st.integers(1, 4)))
        tables[gen.integers(0, t, len(at)), at] = gen.choice(special, len(at))
    prefixes = gen.integers(1, c + 1, rows)[:, None]
    return tables, gen.integers(0, prefixes, (rows, n))


class TestCountedTableMeans:
    """losses._table_means counts each row's codes and sums the table's
    levels from the counts; it equals gathering, then each row's math.fsum
    over n, bit for bit, exceptions included."""

    @settings(max_examples=300, deadline=None)
    @given(_table_cases())
    def test_equals_gathered_row_means_bytewise(self, case):
        tables, codes = case
        try:
            want = gathered_means(tables, codes)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                _table_means(tables, codes.copy())
            return
        assert _table_means(tables, codes.copy()).tobytes() == want.tobytes()

    def test_opposite_infinities_raise_as_fsum_does(self):
        tables = np.array([[1.0, math.inf, -math.inf, 0.5]])
        codes = np.array([[0, 3, 0, 3, 3], [0, 1, 2, 3, 3]])
        with pytest.raises(ValueError, match=r"^-inf \+ inf in fsum$"):
            _table_means(tables, codes)

    def test_spread_tables_take_the_fsum_branch(self, monkeypatch):
        # entries 2^-60 apart in magnitude leave three nonzero levels per
        # row at n = 4096, and those rows go to math.fsum
        gen = RngStream(41).generator()
        tables = np.array([[1.0, 2.0**-60, 3.0 * 2.0**-120, -0.75]])
        codes = gen.integers(0, 4, (5, 4096))
        want = gathered_means(tables, codes)
        calls = []
        real = math.fsum
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or real(values))
        assert _table_means(tables, codes.copy()).tobytes() == want.tobytes()
        assert calls

    def test_a_longer_table_than_a_row_is_gathered(self, monkeypatch):
        monkeypatch.setattr(np, "bincount", None)
        tables = np.arange(9.0)[None]
        codes = np.array([[8, 0, 3], [1, 2, 7]])
        assert _table_means(tables, codes).tobytes() == gathered_means(tables, codes).tobytes()


class TestErasureShortcut:
    def test_matches_general_estimator_at_half(self):
        ch = make_bec(0.5)
        h = canonical_erasure_h(ch)
        d1, d2 = make_bec_parity_pair()
        g = RngStream(7).generator()
        for d in (d1, d2, IdentityDenoiser(2, 3)):
            for _ in range(20):
                z = g.integers(0, 3, size=40)
                assert erasure_estimate_loss(ch, HAMMING, d, z) == pytest.approx(
                    estimate_loss(ch, h, HAMMING, d, z), abs=1e-12
                )

    def test_scales_by_odds_away_from_half(self):
        # general estimator = eps/(1-eps) * erasure form for copy-preserving
        # denoisers under the canonical h
        eps = 0.3
        ch = make_bec(eps)
        h = canonical_erasure_h(ch)
        d = make_bec_parity_pair()[0]
        g = RngStream(8).generator()
        for _ in range(10):
            z = g.integers(0, 3, size=30)
            lhs = estimate_loss(ch, h, HAMMING, d, z)
            rhs = eps / (1 - eps) * erasure_estimate_loss(ch, HAMMING, d, z)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_requires_bec(self):
        with pytest.raises(ValueError, match="erasure"):
            erasure_estimate_loss(make_bsc(0.2), HAMMING, IdentityDenoiser(), [0, 1])


class TestJointType:
    def test_counts_on_hand_worked_example(self):
        # identity: denoised symbol = z_i, flipped symbol = 1 - z_i
        t = joint_type_counts([0, 0, 1], IdentityDenoiser())
        assert t.counts[0, 0, 1] == 2
        assert t.counts[1, 1, 0] == 1
        assert t.counts.sum() == 3

    def test_marginals(self):
        z = RngStream(9).generator().integers(0, 2, size=100)
        d = make_sliding_window(1, "majority")
        t = joint_type_counts(z, d)
        assert t.counts[0].sum() == (z == 0).sum()
        assert t.counts[1, 1].sum() == ((z == 1) & (d.denoise(z) == 1)).sum()

    def test_validation(self):
        with pytest.raises(ValueError, match="2x2x2"):
            JointTypeCounts(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^joint type counts are defined for binary "
                                             "channels$"):
            joint_type_counts([0, 2, 1], BecParityDenoiser(False))

    def test_counts_are_immutable(self):
        counts = np.arange(8).reshape(2, 2, 2)
        for t in (JointTypeCounts(counts), JointTypeCounts(counts=counts.tolist()),
                  joint_type_counts([0, 1, 1], IdentityDenoiser())):
            assert t.counts.dtype == np.int64 and not t.counts.flags.writeable
            with pytest.raises(AttributeError):
                t.counts = counts
            twin = pickle.loads(pickle.dumps(t))
            assert np.array_equal(twin.counts, t.counts) and twin.counts.dtype == np.int64
            with pytest.raises(AttributeError):
                twin.counts = counts

    def test_round_trip_rebuilds_read_only_counts(self):
        # unpickling calls JointTypeCounts(counts), which freezes its copy
        twin = pickle.loads(pickle.dumps(JointTypeCounts(np.ones((2, 2, 2)))))
        assert not twin.counts.flags.writeable
        t = joint_type_counts([0, 1], IdentityDenoiser())
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1/2\), got 0\.5$"):
            bsc_estimate_from_type(0.5, t, 2)

    def test_closed_form_matches_estimator(self):
        ch = make_bsc(0.2)
        h = compute_h(ch)
        d = make_bsc_counterexample_pair(0.2)[1]
        z = RngStream(10).generator().integers(0, 2, size=257)
        t = joint_type_counts(z, d)
        assert bsc_estimate_from_type(0.2, t, 257) == pytest.approx(
            estimate_loss(ch, h, HAMMING, d, z), abs=1e-12
        )


class TestSmoothedLosses:
    def test_conditional_loss_exact_identity(self):
        # position-wise: P(error) = q where z agrees with x, 1 - q elsewhere
        cfg = SmoothingConfig(q=0.125, mode="exact")
        x = np.array([0, 0, 1, 1])
        z = np.array([0, 1, 1, 1])
        got = smoothed_conditional_loss(HAMMING, IdentityDenoiser(), mask_set(cfg, 4, None),
                                        x, z)
        assert got == pytest.approx((3 * 0.125 + 0.875) / 4, abs=1e-12)

    def test_smoothed_estimate_exact_identity(self):
        # the smoothed identity misreads each symbol w.p. delta + q(1 - 2 delta)
        delta, q = 0.25, 0.125
        ch = make_bsc(delta)
        h = compute_h(ch)
        cfg = SmoothingConfig(q=q, mode="exact")
        got = estimate_smoothed_loss(ch, h, HAMMING, IdentityDenoiser(),
                                     mask_set(cfg, 5, None), [0, 1, 0, 1, 1])
        assert got == pytest.approx(delta + q * (1 - 2 * delta), abs=1e-12)

    def test_q_zero_reduces_to_plain(self):
        ch = make_bsc(0.2)
        h = compute_h(ch)
        drawn = mask_set(SmoothingConfig(q=0.0, mode="exact"), 10, None)
        d = make_bsc_counterexample_pair(0.2)[0]
        z = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 0])
        assert estimate_smoothed_loss(ch, h, HAMMING, d, drawn, z) == pytest.approx(
            estimate_loss(ch, h, HAMMING, d, z), abs=1e-12
        )
        # mask 0 has weight 1 and every other weight is 0, so the smoothed
        # loss is the plain one bit for bit: for a loss whose pairwise row
        # sum (4.599999999999999 here) is not the correctly rounded 4.6 too
        for lm, x in ((HAMMING, np.zeros(10, dtype=np.int64)),
                      (loss_matrix([[0.1, 2.5], [0.7, 0.3]]), np.array([1] * 6 + [0] * 4))):
            assert smoothed_conditional_loss(lm, d, drawn, x, z) == \
                cumulative_loss(lm, x, d.denoise(z))

    def test_monte_carlo_tracks_exact(self):
        ch = make_bsc(0.2)
        h = compute_h(ch)
        d = make_bsc_counterexample_pair(0.2)[1]
        z = RngStream(12).generator().integers(0, 2, size=16)
        exact = estimate_smoothed_loss(
            ch, h, HAMMING, d, mask_set(SmoothingConfig(q=0.05, mode="exact"), 16, None), z
        )
        mc = estimate_smoothed_loss(
            ch, h, HAMMING, d, mask_set(SmoothingConfig(q=0.05, m=4000), 16, RngStream(13)), z
        )
        assert mc == pytest.approx(exact, abs=0.02)

    @pytest.mark.parametrize("entry", ["conditional_loss", "per_symbol"])
    @pytest.mark.parametrize("d", [IdentityDenoiser(3), IdentityDenoiser(2, 3),
                                   IdentityDenoiser(3, 2)], ids=["3to3", "3to2", "2to3"])
    def test_binary_only(self, entry, d):
        # one check, with one message, ahead of every other argument check
        ch = make_bsc(0.2)
        drawn = mask_set(SmoothingConfig(q=0.1, mode="exact"), 2, None)
        call = {
            "conditional_loss": lambda: smoothed_conditional_loss(HAMMING, d, drawn,
                                                                  [0, 1], [0, 1]),
            "per_symbol": lambda: smoothed_per_symbol_estimates(ch, compute_h(ch), HAMMING,
                                                                d, drawn, [0, 1]),
        }[entry]
        with pytest.raises(ValueError, match="^smoothing is defined for binary-alphabet "
                                             "denoisers$"):
            call()

    def test_per_symbol_estimates_reject_an_erasure_channel(self):
        ch = make_bec(0.3)
        drawn = mask_set(SmoothingConfig(q=0.1, mode="exact"), 2, None)
        with pytest.raises(ValueError, match="^randomized combining needs a binary channel$"):
            smoothed_per_symbol_estimates(ch, canonical_erasure_h(ch), HAMMING,
                                          IdentityDenoiser(), drawn, [0, 1])

    @pytest.mark.parametrize("k", [1, 3])
    def test_conditional_loss_rejects_a_loss_that_is_not_2x2(self, k):
        # named before the sequences are read or any mask is walked
        with pytest.raises(ValueError, match=re.escape(
                f"loss matrix has shape ({k}, {k}); smoothing needs (2, 2)")):
            smoothed_conditional_loss(hamming_loss(k), IdentityDenoiser(), None,
                                      [0, 1], [0, 1, 1])

    @pytest.mark.parametrize("entry", ["conditional_loss", "per_symbol"])
    @pytest.mark.parametrize("mask_shape,weight_count", [
        ((16, 1), 16),            # one bit that would broadcast over every position
        ((16, 32), 16),           # masks of half the length
        ((16, 64), 15),           # one weight short
    ])
    def test_a_mask_set_of_the_wrong_shape_is_rejected(self, entry, mask_shape, weight_count):
        ch = make_bsc(0.2)
        d = make_sliding_window(1, "majority")
        masks, weights = mask_set(SmoothingConfig(q=0.1, m=16), 64, RngStream(40))
        drawn = (masks[:, :mask_shape[1]], weights[:weight_count])
        z = RngStream(41).generator().integers(0, 2, 64)
        call = {
            "conditional_loss": lambda: smoothed_conditional_loss(
                HAMMING, d, drawn, np.zeros(64, dtype=np.int64), z),
            "per_symbol": lambda: smoothed_per_symbol_estimates(ch, compute_h(ch), HAMMING,
                                                                d, drawn, z),
        }[entry]
        with pytest.raises(ValueError, match=re.escape(
                f"masks of shape {mask_shape} and weights of shape ({weight_count},) do not "
                f"fit a sequence of length 64: need (m, 64) and (m,)")):
            call()

    def test_conditional_loss_rejects_length_mismatch(self):
        drawn = mask_set(SmoothingConfig(q=0.1, mode="exact"), 4, None)
        with pytest.raises(ValueError, match="length mismatch: 3 vs 4"):
            smoothed_conditional_loss(HAMMING, IdentityDenoiser(), drawn,
                                      [0, 1, 0], [0, 1, 1, 0])
