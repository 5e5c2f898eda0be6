"""Plain and randomized combiners."""

from __future__ import annotations

import numpy as np
import pytest

from duodenoise import combine
from duodenoise.channel import compute_h, make_bsc
from duodenoise.combine import (
    combined_denoise,
    randomized_combined_denoise,
    select_min_estimate,
)
from duodenoise.denoisers import (
    ConstantDenoiser,
    IdentityDenoiser,
    SmoothingConfig,
    make_bsc_counterexample_pair,
    mask_set,
)
from duodenoise.losses import hamming_loss
from duodenoise.rng import RngStream

HAMMING = hamming_loss(2)


class TestSelection:
    def test_picks_smaller(self):
        assert select_min_estimate(0.1, 0.2).chosen_index == 1
        assert select_min_estimate(0.3, 0.2).chosen_index == 2

    def test_tie_goes_to_first(self):
        sel = select_min_estimate(0.25, 0.25)
        assert sel.chosen_index == 1 and sel.tie

    def test_near_tie_flagged(self):
        assert select_min_estimate(0.25, 0.25 + 1e-13).tie

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            select_min_estimate(float("nan"), 0.1)

    def test_negative_estimates_are_comparable(self):
        assert select_min_estimate(-0.3, 0.0).chosen_index == 1


class TestPlainCombiner:
    def test_emits_winner_output(self):
        ch = make_bsc(0.25)
        h = compute_h(ch)
        d1, d2 = IdentityDenoiser(), ConstantDenoiser(0)
        z = np.array([1, 1, 1, 0])
        out, sel = combined_denoise(d1, d2, ch, h, HAMMING, z)
        winner = d1 if sel.chosen_index == 1 else d2
        np.testing.assert_array_equal(out, winner.denoise(z))
        # identity estimate is exactly delta = 0.25; constant-0 on 3 ones
        # estimates (3 * 1.5 - 0.5) / 4 = 1.0, so identity must win
        assert sel.chosen_index == 1
        assert sel.estimates[0] == pytest.approx(0.25, abs=1e-12)

    def test_estimate_order_swaps_choice(self):
        ch = make_bsc(0.25)
        h = compute_h(ch)
        d1, d2 = IdentityDenoiser(), ConstantDenoiser(0)
        z = np.zeros(4, dtype=np.int64)  # constant-0 estimate -0.5 beats 0.25
        _, sel = combined_denoise(d1, d2, ch, h, HAMMING, z)
        assert sel.chosen_index == 2


class TestRandomizedCombiner:
    def setup_method(self):
        self.ch = make_bsc(0.2)
        self.h = compute_h(self.ch)
        self.d1, self.d2 = make_bsc_counterexample_pair(0.2)
        self.cfg = SmoothingConfig(nu=0.75, m=64)

    def test_deterministic_given_stream(self):
        z = RngStream(20).generator().integers(0, 2, size=200)
        a = randomized_combined_denoise(
            self.d1, self.d2, self.ch, self.h, HAMMING, self.cfg, z, RngStream(21)
        )
        b = randomized_combined_denoise(
            self.d1, self.d2, self.ch, self.h, HAMMING, self.cfg, z, RngStream(21)
        )
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]
        np.testing.assert_array_equal(a[2], b[2])

    def test_output_is_winner_on_masked_input(self):
        unmasked_differs = False
        for seed in range(20):
            z = RngStream(22, seed).generator().integers(0, 2, size=150)
            out, sel, mask = randomized_combined_denoise(
                self.d1, self.d2, self.ch, self.h, HAMMING, self.cfg, z, RngStream(23, seed)
            )
            winner = self.d1 if sel.chosen_index == 1 else self.d2
            np.testing.assert_array_equal(out, winner.denoise(z ^ mask))
            assert set(np.unique(mask)) <= {0, 1}
            unmasked_differs |= not np.array_equal(out, winner.denoise(z))
        # the mask reaches the output: the winner on the unmasked input would
        # pass the check above on a seed whose mask leaves the output as is
        assert unmasked_differs

    def test_emitted_mask_is_independent_of_estimation_masks(self, monkeypatch):
        drawn = []

        def spy(*args):
            drawn.append(mask_set(*args))
            return drawn[-1]

        monkeypatch.setattr(combine, "mask_set", spy)
        cfg = SmoothingConfig(q=0.3, m=1)
        z = np.zeros(16, dtype=np.int64)
        equal = 0
        for seed in range(200):
            *_, mask = randomized_combined_denoise(
                self.d1, self.d2, self.ch, self.h, HAMMING, cfg, z, RngStream(seed)
            )
            equal += np.array_equal(mask, drawn[-1][0][0])
        # independent masks agree with probability 0.58^16 ~ 1.6e-4 per seed;
        # an emitted mask drawn from the estimation stream agrees on every seed
        assert len(drawn) == 200 and equal <= 1

    def test_smoothed_estimates_differ_from_plain(self):
        # odd-parity z: the plain estimates strongly favor the copier, the
        # smoothed ones favor the marked-zeros rule
        z = np.zeros(512, dtype=np.int64)
        z[:103] = 1
        _, plain_sel = combined_denoise(self.d1, self.d2, self.ch, self.h, HAMMING, z)
        _, rand_sel, _ = randomized_combined_denoise(
            self.d1, self.d2, self.ch, self.h, HAMMING,
            SmoothingConfig(nu=0.75, m=128), z, RngStream(24)
        )
        assert plain_sel.chosen_index == 1
        assert rand_sel.chosen_index == 2
