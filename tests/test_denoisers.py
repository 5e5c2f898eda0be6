"""Denoiser behavior, substituted-output tables, and smoothing machinery.

The load-bearing property here is that every denoiser's batch paths,
``denoise_batch`` and ``substituted_outputs_batch``, agree row by row with
an independent one-sequence reference (``reference.reference_denoise``, and
the brute-force table that re-denoises each modified sequence with it), since
the loss estimator consumes only those tables.
"""

from __future__ import annotations

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duodenoise.denoisers import (
    EXACT_MASK_LIMIT,
    BecParityDenoiser,
    ConstantDenoiser,
    IdentityDenoiser,
    ParityCopyDenoiser,
    ParityMarkedZerosDenoiser,
    SlidingWindowDenoiser,
    SmoothingConfig,
    _parity,
    draw_smoothing_mask,
    draw_smoothing_masks,
    enumerate_masks,
    exact_mask_weights,
    make_bec_parity_pair,
    make_bsc_counterexample_pair,
    make_sliding_window,
    mask_set,
    stratified_mask_weights,
)
from duodenoise.rng import RngStream
from reference import (
    brute_force_table,
    reference_batch,
    reference_denoise,
    reference_stratified_weights,
)


ZOO = [
    IdentityDenoiser(2, 3),
    ConstantDenoiser(1, 2, 3),
    make_sliding_window(1, "majority"),
    make_sliding_window(2, "majority"),
    BecParityDenoiser(complement=False),
    BecParityDenoiser(complement=True),
    ParityCopyDenoiser(),
    ParityMarkedZerosDenoiser(0.2),
    ParityMarkedZerosDenoiser(0.49),
]


@pytest.mark.parametrize("d", ZOO, ids=lambda d: type(d).__name__)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_substituted_outputs_match_brute_force(d, data):
    n = data.draw(st.integers(1, 12))
    z = np.array(
        data.draw(st.lists(st.integers(0, d.input_size - 1), min_size=n, max_size=n))
    )
    np.testing.assert_array_equal(d.substituted_outputs(z), brute_force_table(d, z))


@pytest.mark.parametrize("d", ZOO, ids=lambda d: type(d).__name__)
def test_batch_paths_match_row_wise(d):
    rng = RngStream(3).generator()
    zs = rng.integers(0, d.input_size, size=(7, 20))
    # int64 rows, and the uint8 and (binary) bool rows the smoothing kernels pass
    dtypes = [np.int64, np.uint8] + [np.bool_] * (d.input_size == 2)
    denoised, tables = reference_batch(d, zs)
    for dtype in dtypes:
        np.testing.assert_array_equal(d.denoise_batch(zs.astype(dtype)), denoised)
        np.testing.assert_array_equal(d.substituted_outputs_batch(zs.astype(dtype)), tables)
    # the reconstruction is the substituted table read at the noisy symbol
    for shape in ((1, 1), (7, 20), (3, 64)):
        rows = rng.integers(0, d.input_size, size=shape)
        for dtype in dtypes:
            tab = d.substituted_outputs_batch(rows.astype(dtype))
            np.testing.assert_array_equal(
                d.denoise_batch(rows.astype(dtype)),
                np.take_along_axis(tab, rows[..., None], axis=-1)[..., 0])
    for z in zs:
        np.testing.assert_array_equal(d.denoise(z), reference_denoise(d, z))
        np.testing.assert_array_equal(d.substituted_outputs(z), brute_force_table(d, z))


class TestSimpleDenoisers:
    def test_identity_copies_and_maps_erasures_to_zero(self):
        d = IdentityDenoiser(2, 3)
        np.testing.assert_array_equal(d.denoise([0, 1, 2, 1]), [0, 1, 0, 1])

    def test_constant(self):
        d = ConstantDenoiser(1, 2)
        np.testing.assert_array_equal(d.denoise([0, 1, 0]), [1, 1, 1])
        with pytest.raises(ValueError, match="outside"):
            ConstantDenoiser(3, 2)

    def test_majority_window(self):
        d = make_sliding_window(1, "majority")
        # zero padding at the boundaries; ties go to 0
        np.testing.assert_array_equal(d.denoise([1, 1, 0, 0, 1]), [1, 1, 0, 0, 0])
        np.testing.assert_array_equal(d.denoise([1]), [0])

    @pytest.mark.parametrize("input_size", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_majority_table_matches_window_loop(self, k, input_size):
        # reference: count the 1s and 0s of every window, in code order
        ref = [int(w.count(1) > w.count(0))
               for w in itertools.product(range(input_size), repeat=2 * k + 1)]
        d = make_sliding_window(k, "majority", input_size)
        np.testing.assert_array_equal(d.table, ref)

    def test_wrong_size_flat_table_rejected(self):
        with pytest.raises(ValueError, match="incomplete table"):
            make_sliding_window(1, np.zeros(4, dtype=np.int64))

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError, match="^window half-width must be nonnegative$"):
            SlidingWindowDenoiser(-1, np.zeros(1, dtype=np.int64))

    def test_table_names_its_first_entry_outside_the_alphabet(self):
        first = r"^table entry 3 at code 1 lies outside the clean alphabet \[0, 2\)$"
        with pytest.raises(ValueError, match=first):
            SlidingWindowDenoiser(1, [0, 3, -1, 0, 0, 0, 2, 0])


class TestParityPairs:
    def test_bec_pair_fills_by_zero_count_parity(self):
        d1, d2 = make_bec_parity_pair()
        z = np.array([0, 2, 0, 2, 1])  # two zeros -> even parity
        np.testing.assert_array_equal(d1.denoise(z), [0, 0, 0, 0, 1])
        np.testing.assert_array_equal(d2.denoise(z), [0, 1, 0, 1, 1])

    def test_bec_pair_is_globally_sensitive(self):
        d1, _ = make_bec_parity_pair()
        z = np.array([0, 2, 2, 2, 1])
        flipped = z.copy()
        flipped[0] = 1  # one symbol change flips every erased output
        before, after = d1.denoise(z), d1.denoise(flipped)
        assert (before[z == 2] != after[z == 2]).all()

    def test_parity_copy(self):
        d = ParityCopyDenoiser()
        np.testing.assert_array_equal(d.denoise([1, 0, 0, 0]), [1, 0, 0, 0])
        np.testing.assert_array_equal(d.denoise([1, 1, 0, 0]), [0, 0, 0, 0])

    def test_parity_marked_zeros(self):
        d = ParityMarkedZerosDenoiser(0.4)
        # odd parity, 5 zeros -> floor(0.4 * 5) = 2 leading zeros raised
        np.testing.assert_array_equal(
            d.denoise([0, 1, 0, 0, 0, 0]), [1, 0, 1, 0, 0, 0]
        )
        np.testing.assert_array_equal(d.denoise([0, 1, 1, 0]), [0, 0, 0, 0])

    def test_counterexample_pair_agrees_on_even_parity(self):
        d1, d2 = make_bsc_counterexample_pair(0.2)
        z = RngStream(11).generator().integers(0, 2, size=101)
        if z.sum() % 2 == 0:
            z[0] ^= 1
        even = z.copy()
        even[-1] ^= 1
        np.testing.assert_array_equal(d1.denoise(even), d2.denoise(even))
        assert (d1.denoise(z) != d2.denoise(z)).any()


class TestSmoothing:
    def test_config_requires_exactly_one_rate(self):
        with pytest.raises(ValueError, match="exactly one"):
            SmoothingConfig(q=0.1, nu=0.5)
        with pytest.raises(ValueError, match="exactly one"):
            SmoothingConfig()

    def test_config_is_an_immutable_value(self):
        cfg = SmoothingConfig(q=0.1, mode="exact")
        assert cfg == SmoothingConfig(0.1, None, "exact", 128)
        assert (cfg.q, cfg.nu, cfg.mode, cfg.m) == (0.1, None, "exact", 128)
        assert SmoothingConfig(nu=0.5).m == 128 and SmoothingConfig(nu=0.5).mode == "monte_carlo"
        assert cfg != SmoothingConfig(q=0.1) and cfg != SmoothingConfig(q=0.2, mode="exact")
        for field in ("q", "nu", "mode", "m"):
            with pytest.raises(AttributeError):
                setattr(cfg, field, 1)

    @pytest.mark.parametrize("round_trip", [lambda c: pickle.loads(pickle.dumps(c)),
                                            copy.copy, copy.deepcopy])
    def test_config_round_trips_keep_its_fields(self, round_trip):
        for cfg in (SmoothingConfig(q=0.1, mode="exact"), SmoothingConfig(nu=0.75, m=64)):
            twin = round_trip(cfg)
            assert (twin.q, twin.nu, twin.mode, twin.m) == (cfg.q, cfg.nu, cfg.mode, cfg.m)
            assert twin == cfg and twin.resolve_q(256) == cfg.resolve_q(256)
            with pytest.raises(AttributeError):
                twin.m = 1

    def test_config_resolves_rate_exponent(self):
        assert SmoothingConfig(nu=0.5).resolve_q(256) == pytest.approx(1 / 16)
        assert SmoothingConfig(q=0.01).resolve_q(999) == 0.01

    # (nu, the largest n with n^-nu >= 1/2, that n^-nu)
    @pytest.mark.parametrize("nu, n, q", [
        (0.3, 10, 0.5012), (0.95, 2, 0.5176), (0.75, 2, 0.5946), (0.5, 4, 0.5),
    ])
    def test_rate_exponent_keeps_q_below_one_half(self, nu, n, q):
        cfg = SmoothingConfig(nu=nu, mode="exact")
        for short in range(1, n):
            with pytest.raises(ValueError, match=r"^flip rate q = n\^-nu = "):
                cfg.check_length(short)
        with pytest.raises(ValueError, match=rf"^flip rate q = n\^-nu = {n}\^-{nu} = "
                                             rf"{q:.4g} must lie in \[0, 1/2\)$"):
            cfg.check_length(n)
        cfg.check_length(n + 1)     # one symbol more and q drops below 1/2

    def test_mask_law(self):
        cfg = SmoothingConfig(q=0.2)
        masks = draw_smoothing_masks(
            SmoothingConfig(q=0.2, m=400), 256, RngStream(4)
        )
        assert masks.shape == (400, 256)
        assert abs(masks.mean() - 0.2) < 0.01
        single = draw_smoothing_mask(cfg, 50, RngStream(4))
        assert set(np.unique(single)) <= {0, 1}

    def test_exact_weights_sum_to_one(self):
        masks = enumerate_masks(10)
        for q in (0.0, 0.1, 0.3):
            w = exact_mask_weights(masks, q)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # q = 0 puts all mass on the zero mask; 0.0 ** 0 is 1, with no warning
        with np.errstate(all="raise"):
            w0 = exact_mask_weights(masks, 0.0)
        assert w0[0] == 1.0 and w0[1:].max() == 0.0

    def test_stratified_weights_match_exact_parity_mass(self):
        q, n = 0.05, 64
        masks = draw_smoothing_masks(SmoothingConfig(q=q, m=256), n, RngStream(8))
        w = stratified_mask_weights(masks, q)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        p_odd = 0.5 * (1.0 - (1.0 - 2 * q) ** n)
        assert w[masks.sum(axis=1) % 2 == 1].sum() == pytest.approx(p_odd, abs=1e-12)

    def test_stratified_weights_degrade_to_uniform(self):
        masks = np.zeros((8, 5), dtype=np.int64)  # all even
        np.testing.assert_allclose(stratified_mask_weights(masks, 0.1), 1 / 8)

    def test_exact_mode_respects_threshold(self):
        cfg = SmoothingConfig(q=0.1, mode="exact")
        assert EXACT_MASK_LIMIT == 20
        with pytest.raises(ValueError, match="exact smoothing limited to n <= 20"):
            mask_set(cfg, 21, None)

    def test_monte_carlo_requires_stream(self):
        cfg = SmoothingConfig(q=0.1)
        with pytest.raises(ValueError, match="RngStream"):
            mask_set(cfg, 30, None)


NARROW_CASES = [(d, dtype) for d in ZOO for dtype in (np.bool_, np.uint8)
                if dtype is np.uint8 or d.input_size == 2]


@pytest.mark.parametrize(
    "d,dtype", NARROW_CASES,
    ids=[f"{type(d).__name__}-{np.dtype(t).name}" for d, t in NARROW_CASES],
)
def test_narrow_batch_inputs_match_row_wise(d, dtype):
    rng = RngStream(5).generator()
    rows = rng.integers(0, d.input_size, size=(9, 33))
    zs = rows.astype(dtype)
    denoised, tables = reference_batch(d, rows)
    np.testing.assert_array_equal(d.denoise_batch(zs), denoised)
    np.testing.assert_array_equal(d.substituted_outputs_batch(zs), tables)


# Every window half-width up to 3 on rows of 1 to 8 symbols, so that some
# neighbours lie past one end, past both, or outside the row entirely; a
# ternary k = 3 window reads codes up to 3^7 - 1 = 2186 from uint8 rows.
WINDOW_EDGE_CASES = [(k, m, dtype) for k in range(4) for m in (2, 3)
                     for dtype in (np.int64, np.uint8, np.bool_) if m == 2 or dtype is not np.bool_]


@pytest.mark.parametrize(
    "k,input_size,dtype", WINDOW_EDGE_CASES,
    ids=[f"k{k}-m{m}-{np.dtype(t).name}" for k, m, t in WINDOW_EDGE_CASES],
)
def test_window_edges_match_reference(k, input_size, dtype):
    gen = RngStream(17).generator()
    table = gen.integers(0, input_size, input_size ** (2 * k + 1))
    d = SlidingWindowDenoiser(k, table, input_size, input_size)
    for n in range(1, 9):
        rows = gen.integers(0, input_size, size=(6, n))
        rows[0] = input_size - 1                # the largest code the row can reach
        zs = rows.astype(dtype)
        denoised, tables = reference_batch(d, rows)
        np.testing.assert_array_equal(d.denoise_batch(zs), denoised)
        np.testing.assert_array_equal(d.substituted_outputs_batch(zs), tables)


# Zero counts N0 where delta * N0 lands on an integer (0.2 * 5k) or just
# below one (0.29 * 100 = 28.999999999999996): the raised-zero count must be
# the float floor that the one-sequence denoise takes.
FLOOR_BOUNDARIES = {0.2: (5, 10, 15, 100), 0.29: (100,)}


@pytest.mark.parametrize("delta", sorted(FLOOR_BOUNDARIES))
@pytest.mark.parametrize("dtype", [np.bool_, np.uint8])
def test_marked_zeros_batch_keeps_float_floor(delta, dtype):
    assert math.floor(0.29 * 100) == 28
    d = ParityMarkedZerosDenoiser(delta)
    gen = RngStream(9).generator()
    for c in FLOOR_BOUNDARIES[delta]:
        # c zeros and 11 ones: odd parity, so the first floor(delta * c)
        # zeros are raised and so is each zero's a = 0 entry; c - 1 zeros
        # and 12 ones: each 1's a = 0 entry sees c zeros on odd parity
        n = c + 11
        rows = np.ones((2, n), dtype=np.int64)
        for row, n0 in zip(rows, (c, c - 1)):
            row[gen.permutation(n)[:n0]] = 0
        zs = rows.astype(dtype)
        out = d.denoise_batch(zs)
        assert out[0].sum() == math.floor(delta * c)
        np.testing.assert_array_equal(out, np.stack([reference_denoise(d, r) for r in rows]))
        batch = d.substituted_outputs_batch(zs)
        for row, tab in zip(rows, batch):
            np.testing.assert_array_equal(tab, d.substituted_outputs(row))
            np.testing.assert_array_equal(tab, brute_force_table(d, row))


def _marked_zeros_edge_rows() -> np.ndarray:
    """Rows of n = 12 and 13 (both ones-parities for each zero count) with
    every zero count N0 from 0 (all ones) to n (all zeros), so both deltas
    below meet c0 = floor(delta * N0) = 0 and floor(delta * (N0 + 1)) =
    c0 + 1 as well as c0 (0.49 at N0 = 2: 0 and 1); zeros sit at random
    columns, and again at the row's start and end."""
    gen = RngStream(16).generator()
    rows = []
    for n in (12, 13):
        for n0 in range(n + 1):
            for cols in (gen.permutation(n)[:n0], np.arange(n0), np.arange(n - n0, n)):
                row = np.ones(n, dtype=np.int64)
                row[cols] = 0
                rows.append(row)
    return rows


@pytest.mark.parametrize("delta", [0.2, 0.49])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_marked_zeros_edge_rows_match_reference(delta, dtype):
    d = ParityMarkedZerosDenoiser(delta)
    rows = _marked_zeros_edge_rows()
    counts = {sum(r == 0) for r in rows}
    assert counts == set(range(14))
    assert any(math.floor(delta * c) == 0 and math.floor(delta * (c + 1)) == 1 for c in counts)
    for n in (12, 13):
        batch = np.stack([r for r in rows if len(r) == n])
        zs = batch.astype(dtype)
        denoised, tables = reference_batch(d, batch)
        np.testing.assert_array_equal(d.denoise_batch(zs), denoised)
        np.testing.assert_array_equal(d.substituted_outputs_batch(zs), tables)
    # n = 1: a lone zero is even parity, a lone one odd with no zeros to mark
    single = np.array([[0], [1]])
    np.testing.assert_array_equal(d.denoise_batch(single.astype(dtype)), [[0], [0]])
    np.testing.assert_array_equal(d.substituted_outputs_batch(single.astype(dtype)),
                                  reference_batch(d, single)[1])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.bool_, np.uint8, np.int8, np.int64]),
       st.integers(1, 70) | st.just(4096), st.integers(1, 5), st.integers(1, 127),
       st.integers(0, 2**32 - 1))
def test_parity_is_the_row_sum_mod_two(dtype, n, b, top, seed):
    """The XOR-reduced parity equals the widening ``sum % 2`` for every
    integer dtype, on non-binary non-negative symbols too, in the rows'
    dtype (uint8 for bool)."""
    top = 1 if dtype is np.bool_ else top
    rows = np.random.default_rng(seed).integers(0, top + 1, (b, n)).astype(dtype)
    got = _parity(rows)
    assert got.dtype == (np.uint8 if dtype is np.bool_ else dtype)
    np.testing.assert_array_equal(got, rows.astype(np.int64).sum(axis=1) % 2)
    np.testing.assert_array_equal(_parity(rows[0]), rows[0].astype(np.int64).sum() % 2)


@pytest.mark.parametrize("n", [1, 2, 33, 4096])
def test_parity_copy_batches_keep_the_input_dtype(n):
    """Both batch methods return the rows' own dtype, with the same values
    for bool, uint8 and int64 rows of the same symbols."""
    d = ParityCopyDenoiser()
    rows = RngStream(21).generator().integers(0, 2, (7, n))
    rows[0] = 0                         # even parity
    rows[1, :] = 0
    rows[1, -1] = 1                     # odd parity
    want = reference_batch(d, rows)
    for dtype in (np.bool_, np.uint8, np.int64):
        zs = rows.astype(dtype)
        for got, expected in zip((d.denoise_batch(zs), d.substituted_outputs_batch(zs)), want):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got.astype(np.int64), expected)


@pytest.mark.parametrize("complement", [False, True])
def test_bec_parity_batches_match_the_sum_reference(complement):
    """The XOR-reduced fill gives the ``sum % 2`` reference's values on
    int64, int32 and uint8 rows, and the substituted table stays int64."""
    d = BecParityDenoiser(complement)
    rows = RngStream(22).generator().integers(0, 3, (9, 33))
    want = reference_batch(d, rows)
    for dtype in (np.int64, np.int32, np.uint8):
        zs = rows.astype(dtype)
        denoised, tab = d.denoise_batch(zs), d.substituted_outputs_batch(zs)
        assert tab.dtype == np.int64
        np.testing.assert_array_equal(denoised, want[0])
        np.testing.assert_array_equal(tab, want[1])


@pytest.mark.parametrize("q", [0.0, 0.01, 0.2, 0.45])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 70), (2, 1), (5, 3), (128, 4096), (300, 64)])
def test_stratified_weights_match_a_sum_reference_bitwise(q, m, n):
    masks = draw_smoothing_masks(SmoothingConfig(q=q, m=m), n, RngStream(m * n))
    cases = [masks, np.zeros((m, n), dtype=bool), np.zeros((m, n), dtype=bool)]
    cases[2][:, 0] = True               # all odd
    for mask_rows in cases:
        got = stratified_mask_weights(mask_rows, q)
        want = reference_stratified_weights(mask_rows, q)
        assert got.tobytes() == want.tobytes()
