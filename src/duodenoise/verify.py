"""Self-contained exact checks of the library's core identities.

Each check is small enough to evaluate by brute force (dual-matrix algebra or
full enumeration of the channel output space) and returns a
:class:`CheckResult`; the CLI ``verify`` subcommand runs the whole battery.
The enumerated functionals follow the batch contract of
:func:`harness.enumerate_expectation`: a (B, n) batch of outputs in, B reals
out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    H_IDENTITY_TOL,
    Channel,
    canonical_erasure_h,
    compute_h,
    h_defect,
    is_bec,
    make_bec,
    make_bsc,
)
from .combine import choose
from .denoisers import Denoiser, IdentityDenoiser, make_bec_parity_pair, make_sliding_window
from .harness import (
    enumerate_expectation,
    estimate_functional,
    true_loss_functional,
)
from .losses import estimate_losses, hamming_loss

UNBIASED_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_h_identity(channel: Channel) -> CheckResult:
    """pi @ h.T = I for the minimum-norm h (and the erasure h if applicable)."""
    defect = h_defect(channel, compute_h(channel))
    if is_bec(channel):
        defect = max(defect, h_defect(channel, canonical_erasure_h(channel)))
    return CheckResult(
        "h-identity", defect <= H_IDENTITY_TOL,
        f"max defect {defect:.3g} (tol {H_IDENTITY_TOL:g})",
    )


def check_unbiasedness(channel: Channel, d: Denoiser, x, h=None) -> CheckResult:
    """E[estimate] equals E[Hamming loss] exactly, by output-space enumeration."""
    xs = np.asarray(x, dtype=np.int64)
    if h is None:
        h = compute_h(channel)
    lm = hamming_loss(channel.input_size)
    # the batch estimator trusts h, so an h that fails pi @ h.T = I shows as a gap
    e_est = enumerate_expectation(channel, xs, lambda zs: estimate_losses(channel, h, lm, d, zs))
    e_loss = enumerate_expectation(channel, xs, true_loss_functional(lm, d, xs))
    gap = abs(e_est - e_loss)
    return CheckResult(
        "unbiasedness",
        gap <= UNBIASED_TOL,
        f"E[estimate] = {e_est:.12f}, E[loss] = {e_loss:.12f}, gap {gap:.3g}",
    )


def check_parity_counterexample(n: int = 10) -> CheckResult:
    """On a half-erasure channel the parity pair's estimates cross over:
    each denoiser's exact expected loss is 1/4, while following the smaller
    estimate yields 1/2 - 2^-n (the fully erased sequence ties and happens to
    fill correctly; every other outcome fills every erasure wrongly).  At
    n = 1 the one erased word has an even zero count, so d1 never errs, and
    at n = 2 the combined 1/2 - 2^-2 is the candidates' 1/4: the combiner
    loses to the better candidate only from n = 3 on, so the check needs
    n >= 3 and passes only when it does lose."""
    if n < 3:
        raise ValueError(f"the parity counterexample needs n >= 3, got {n}")
    channel = make_bec(0.5)
    h = canonical_erasure_h(channel)
    lm = hamming_loss(2)
    d1, d2 = make_bec_parity_pair()
    x = np.zeros(n, dtype=np.int64)
    est1, est2 = (estimate_functional(channel, h, lm, d) for d in (d1, d2))
    loss1, loss2 = (true_loss_functional(lm, d, x) for d in (d1, d2))

    def combined(zs):
        return np.where(choose(est1(zs), est2(zs)) == 1, loss1(zs), loss2(zs))

    e1 = enumerate_expectation(channel, x, loss1)
    e2 = enumerate_expectation(channel, x, loss2)
    ec = enumerate_expectation(channel, x, combined)
    ok = (abs(e1 - 0.25) <= UNBIASED_TOL and abs(e2 - 0.25) <= UNBIASED_TOL
          and abs(ec - (0.5 - 2.0**-n)) <= UNBIASED_TOL and ec - min(e1, e2) > UNBIASED_TOL)
    return CheckResult(
        "parity-counterexample",
        ok,
        f"per-denoiser expected losses {e1:.6f}, {e2:.6f}; combined {ec:.6f}",
    )


def default_battery(n: int = 8) -> list[CheckResult]:
    """The standard verification battery at block length n (kept small: the
    unbiasedness checks enumerate the full output space)."""
    bsc, bec = make_bsc(0.25), make_bec(0.5)
    x = np.zeros(n, dtype=np.int64)
    x[::3] = 1
    results = [
        check_h_identity(bsc),
        check_h_identity(bec),
        check_unbiasedness(bsc, IdentityDenoiser(), x),
        check_unbiasedness(bsc, make_sliding_window(1, "majority"), x),
        check_unbiasedness(bec, make_bec_parity_pair()[0], x,
                           h=canonical_erasure_h(bec)),
        check_unbiasedness(bec, make_bec_parity_pair()[1], x),
        check_parity_counterexample(n),
    ]
    return results
