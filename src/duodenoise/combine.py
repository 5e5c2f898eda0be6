"""Combining two denoisers by minimizing estimated loss.

The plain combiner follows whichever denoiser has the smaller loss estimate.
The randomized combiner first estimates the expected losses of the smoothed
(mask-flipped) versions, then applies one realized flip mask to the winner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, check_sequence
from .denoisers import Denoiser, SmoothingConfig, draw_smoothing_mask, mask_set
from .losses import estimate_loss, estimate_smoothed_loss
from .rng import RngStream

TIE_TOL = 1e-12


@dataclass(frozen=True)
class Selection:
    """Which of the two candidates won, and with what estimates."""

    chosen_index: int
    estimates: tuple[float, float]
    tie: bool


def choose(e1, e2) -> np.ndarray:
    """Elementwise 1 where e1 <= e2, so ties go to 1, else 2; NaN is rejected."""
    if np.isnan(e1).any() or np.isnan(e2).any():
        raise ValueError("loss estimates must not be NaN")
    return np.where(e1 <= e2, 1, 2)


def select_min_estimate(e1: float, e2: float) -> Selection:
    """The :func:`choose` of two scalar estimates, with a near-tie flag."""
    return Selection(int(choose(e1, e2)), (float(e1), float(e2)), tie=abs(e1 - e2) <= TIE_TOL)


def combined_denoise(d1: Denoiser, d2: Denoiser, ch: Channel, h: np.ndarray,
                     lm: np.ndarray, z) -> tuple[np.ndarray, Selection]:
    """Denoise with whichever candidate has the smaller estimated loss."""
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    sel = select_min_estimate(
        estimate_loss(ch, h, lm, d1, zs), estimate_loss(ch, h, lm, d2, zs)
    )
    winner = d1 if sel.chosen_index == 1 else d2
    return winner.denoise(zs), sel


def randomized_combined_denoise(
    d1: Denoiser, d2: Denoiser, ch: Channel, h: np.ndarray, lm: np.ndarray,
    cfg: SmoothingConfig, z, rng: RngStream,
) -> tuple[np.ndarray, Selection, np.ndarray]:
    """Smoothed-estimate selection followed by one realized mask flip.

    One estimation mask set is drawn and both candidates are evaluated on it
    (their Monte Carlo noise is positively correlated, stabilizing the
    argmin); the emitted mask comes from an independent sub-stream so the
    selection cannot be biased by the realization it is judged on.  Masks
    are bool.  Returns the reconstruction, the selection record, and the
    applied mask.
    """
    zs = check_sequence(z, ch.output_size, "noisy sequence")
    drawn = mask_set(cfg, len(zs), rng.derive("estimation-masks"))
    sel = select_min_estimate(
        estimate_smoothed_loss(ch, h, lm, d1, drawn, zs),
        estimate_smoothed_loss(ch, h, lm, d2, drawn, zs),
    )
    winner = d1 if sel.chosen_index == 1 else d2
    mask = draw_smoothing_mask(cfg, len(zs), rng.derive("emitted-mask"))
    return winner.denoise(zs ^ mask), sel, mask
