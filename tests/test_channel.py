"""Channels, dual matrices, and sampling."""

from __future__ import annotations

import numpy as np
import pytest

from duodenoise.channel import (
    Channel,
    canonical_erasure_h,
    channel_from_json,
    check_sequence,
    compute_h,
    h_defect,
    h_from_choice,
    is_bec,
    make_bec,
    make_bsc,
    outputs_from_uniforms,
    sample_output,
)
from duodenoise.rng import RngStream
from reference import reference_outputs


class TestValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Channel([[0.7, 0.2], [0.5, 0.5]])

    def test_probabilities_must_be_in_unit_interval(self):
        for pi in ([[1.2, -0.2], [0.5, 0.5]], [[np.nan, 1.0], [0.2, 0.8]]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                Channel(pi)

    def test_output_alphabet_cannot_shrink(self):
        with pytest.raises(ValueError, match="smaller"):
            Channel([[1.0], [1.0]])  # 2x1

    def test_degenerate_bsc_rejected(self):
        for delta in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError, match="degenerate channel"):
                make_bsc(delta)

    def test_bec_epsilon_range(self):
        with pytest.raises(ValueError):
            make_bec(0.0)
        with pytest.raises(ValueError):
            make_bec(1.0)

    def test_check_sequence_rejects_bad_symbols(self):
        with pytest.raises(ValueError, match="outside"):
            check_sequence([0, 1, 2], 2)
        with pytest.raises(ValueError, match="integer"):
            check_sequence([0.5, 1.0], 2)
        with pytest.raises(ValueError, match="nonempty"):
            check_sequence([], 2)


class TestDualMatrix:
    def test_bsc_quarter_h_is_known_matrix(self):
        # inverse-transpose of [[.75,.25],[.25,.75]]
        h = compute_h(make_bsc(0.25))
        np.testing.assert_allclose(h, [[1.5, -0.5], [-0.5, 1.5]], atol=1e-12)

    def test_bsc_h_closed_form(self):
        for delta in (0.1, 0.2, 0.3, 0.49):
            h = compute_h(make_bsc(delta))
            r = 1.0 - 2.0 * delta
            expected = np.array(
                [[(1 - delta) / r, -delta / r], [-delta / r, (1 - delta) / r]]
            )
            np.testing.assert_allclose(h, expected, atol=1e-10)

    def test_bec_min_norm_h(self):
        # minimum-Frobenius-norm solution at epsilon = 1/2
        h = compute_h(make_bec(0.5))
        expected = [[4 / 3, -2 / 3, 2 / 3], [-2 / 3, 4 / 3, 2 / 3]]
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_canonical_erasure_h(self):
        ch = make_bec(0.5)
        h = canonical_erasure_h(ch)
        np.testing.assert_allclose(h, [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert h_defect(ch, canonical_erasure_h(ch)) <= 1e-12

    @pytest.mark.parametrize("ch", [make_bsc(0.1), make_bec(0.3),
                                    Channel([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7],
                                             [0.25, 0.5, 0.25]])])
    def test_defining_identity(self, ch):
        assert h_defect(ch, compute_h(ch)) <= 1e-9

    def test_rank_deficient_channel_has_no_h(self):
        ch = Channel([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="no valid h exists"):
            compute_h(ch)

    @pytest.mark.parametrize("make", [
        lambda: compute_h(make_bsc(0.2)),
        lambda: compute_h(make_bec(0.3)),
        lambda: canonical_erasure_h(make_bec(0.3)),
        lambda: h_from_choice(make_bec(0.3))[1],
        lambda: h_from_choice(make_bsc(0.2), "min_norm")[1],
    ], ids=["bsc", "bec_min_norm", "bec_canonical", "bec_auto", "bsc_min_norm"])
    def test_h_is_a_read_only_float64_array(self, make):
        h = make()
        assert type(h) is np.ndarray and h.dtype == np.float64 and h.ndim == 2
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            h += 1.0

    def test_an_h_of_nan_defect_is_rejected(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.full_like(a, np.nan))
        with pytest.raises(ValueError, match=r"^h fails pi @ h.T = I by nan \(> 1e-09\)$"):
            compute_h(make_bsc(0.2))

    def test_canonical_h_requires_bec(self):
        with pytest.raises(ValueError, match="erasure"):
            canonical_erasure_h(make_bsc(0.2))


class TestStructure:
    def test_is_bec(self):
        assert is_bec(make_bec(0.3))
        assert not is_bec(make_bsc(0.3))
        assert not is_bec(Channel([[0.5, 0.2, 0.3], [0.0, 0.7, 0.3]]))

    def test_specs_build_the_factory_channels(self):
        dmc = [[0.9, 0.1], [0.3, 0.7]]
        for spec, ch in (({"type": "bsc", "delta": 0.2}, make_bsc(0.2)),
                         ({"type": "bec", "epsilon": 0.4}, make_bec(0.4)),
                         ({"type": "dmc", "pi": dmc}, Channel(dmc))):
            assert np.array_equal(channel_from_json(spec).pi, ch.pi)
        # the channel type is structural: a dmc spec of a BEC matrix is a BEC
        assert is_bec(channel_from_json({"type": "dmc", "pi": make_bec(0.4).pi.tolist()}))

    def test_unknown_channel_type(self):
        with pytest.raises(ValueError, match="unknown channel"):
            channel_from_json({"type": "awgn"})


class TestSampling:
    def test_outputs_in_alphabet_and_deterministic(self):
        ch = make_bec(0.5)
        x = np.tile([0, 1], 500)
        z1 = sample_output(ch, x, RngStream(9, 4))
        z2 = sample_output(ch, x, RngStream(9, 4))
        np.testing.assert_array_equal(z1, z2)
        assert z1.min() >= 0 and z1.max() <= 2
        # a BEC never crosses 0 <-> 1
        assert not ((x == 0) & (z1 == 1)).any()
        assert not ((x == 1) & (z1 == 0)).any()

    def test_empirical_law_matches_pi(self):
        ch = make_bsc(0.2)
        x = np.zeros(200_000, dtype=np.int64)
        z = sample_output(ch, x, RngStream(1, 2))
        assert abs(z.mean() - 0.2) < 0.005  # ~5.6 sigma

    def test_distinct_streams_differ(self):
        ch = make_bsc(0.2)
        x = np.zeros(1000, dtype=np.int64)
        z1 = sample_output(ch, x, RngStream(1, 2))
        z2 = sample_output(ch, x, RngStream(1, 3))
        assert (z1 != z2).any()


# the third row's cumulative sum ends at 0.9999999999999999
DMC3 = Channel([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.3, 0.15, 1 - 0.3 - 0.15]])


@pytest.mark.parametrize("channel", [make_bsc(0.2), make_bec(0.3), DMC3],
                         ids=["bsc", "bec", "dmc3"])
def test_outputs_from_uniforms_match_the_former_sampler(channel):
    cum = np.cumsum(channel.pi, axis=1)
    k = channel.input_size
    # every cumulative entry exactly, one ulp on either side, the gap between
    # a last entry that rounds below 1 and 1, and uniforms from a stream
    edges = np.concatenate([cum.ravel(), np.nextafter(cum.ravel(), 0.0),
                            np.nextafter(cum.ravel(), 2.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = np.concatenate([edges, RngStream(21).uniforms(4000)])
    u = u[u < 1.0]
    xs = np.arange(len(u)) % k
    blocks = [(xs, u), (np.tile(xs, (3, 1)), np.tile(u, (3, 1)))]
    for x, uu in blocks:
        got = outputs_from_uniforms(channel, x, uu)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference_outputs(channel, x, uu))


def test_uniform_past_a_last_cumulative_below_one_gives_the_last_symbol():
    last = np.cumsum(DMC3.pi[2])[-1]
    assert last == np.nextafter(1.0, 0.0)      # the largest uniform below 1
    assert outputs_from_uniforms(DMC3, np.array([2]), np.array([last])).tolist() == [2]
