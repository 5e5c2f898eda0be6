"""Acceptance suite: one test per top-level claim, at pinned tolerances.

Criteria, in order:
 1. exact unbiasedness of the loss estimator (full output-space enumeration)
 2. conditional (single-position) unbiasedness, plain and smoothed
 3. joint-type closed form equals the generic estimator
 4. erasure shortcut equals the generic estimator at erasure rate 1/2
 5. erasure parity pair defeats the plain combiner (losses 1/4 vs 1/2)
 6. crossover parity pair: estimate/loss table and plain-combiner regret
 7. randomized (smoothed-selection) combiner recovers the better denoiser
 8. total influence of smoothed parity: closed form and Monte Carlo
 9. finite-n trends: concentration and smoothing-gap behavior in n
10. determinism: identical CSVs across blockings and thread counts

Every Monte Carlo quantity uses fixed master seeds, so each test is
deterministic end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from duodenoise import denoisers, harness
from duodenoise.channel import (
    canonical_erasure_h,
    compute_h,
    is_bec,
    make_bec,
    make_bsc,
)
from duodenoise.denoisers import (
    ConstantDenoiser,
    IdentityDenoiser,
    SmoothingConfig,
    make_bec_parity_pair,
    make_bsc_counterexample_pair,
    make_sliding_window,
    mask_set,
)
from duodenoise.harness import (
    ExperimentConfig,
    aggregate,
    enumerate_expectation,
    estimate_functional,
    pointwise_influence,
    run_trials,
    true_loss_functional,
)
from duodenoise.losses import (
    bsc_estimate_from_type,
    erasure_estimate_loss,
    estimate_loss,
    hamming_loss,
    joint_type_counts,
    per_symbol_estimates,
    smoothed_per_symbol_estimates,
)
from duodenoise.rng import RngStream
from reference import parity_functional, records_csv_text

HAMMING = hamming_loss(2)


def channel_suite():
    """(channel, h, denoisers) triples exercised by criteria 1-2."""
    out = []
    for ch in (make_bsc(0.1), make_bsc(0.3), make_bec(0.5)):
        if is_bec(ch):
            h = canonical_erasure_h(ch)
            denoisers = [
                IdentityDenoiser(2, 3),
                ConstantDenoiser(0, 2, 3),
                make_sliding_window(1, "majority", input_size=3),
                *make_bec_parity_pair(),
            ]
        else:
            h = compute_h(ch)
            delta = float(ch.pi[0, 1])
            denoisers = [
                IdentityDenoiser(),
                ConstantDenoiser(0),
                make_sliding_window(1, "majority"),
                *make_bsc_counterexample_pair(delta),
            ]
        out.append((ch, h, denoisers))
    return out


def clean_inputs(n):
    zeros = np.zeros(n, dtype=np.int64)
    alternating = np.arange(n, dtype=np.int64) % 2
    return [zeros, alternating]


def test_criterion_01_exact_unbiasedness():
    """E[estimate] = E[true loss], enumerated exactly over all channel outputs."""
    worst = 0.0
    for ch, h, denoisers in channel_suite():
        for d in denoisers:
            for n in range(3, 9):
                for x in clean_inputs(n):
                    def diff(zs, d=d, x=x):
                        return (estimate_functional(ch, h, HAMMING, d)(zs)
                                - true_loss_functional(HAMMING, d, x)(zs))

                    gap = abs(enumerate_expectation(ch, x, diff))
                    worst = max(worst, gap)
    assert worst <= 1e-10, f"worst unbiasedness gap {worst:g}"


def test_criterion_02_conditional_unbiasedness():
    """Position-wise unbiasedness, plain (all channels) and smoothed (binary)."""
    n = 10
    drawn = mask_set(SmoothingConfig(q=0.2, mode="exact"), n, None)
    masks, weights = drawn
    for ch, h, denoisers in channel_suite():
        m = ch.output_size
        gen = RngStream(41).generator()
        for d in denoisers:
            for z in (gen.integers(0, m, size=n), gen.integers(0, m, size=n)):
                for i in (0, n // 2, n - 1):
                    for x_i in range(2):
                        row = ch.pi[x_i]
                        est = loss = 0.0
                        for b in range(m):
                            zb = z.copy()
                            zb[i] = b
                            est += row[b] * per_symbol_estimates(
                                ch, h, HAMMING, d, zb
                            )[i]
                            loss += row[b] * HAMMING[x_i, d.denoise(zb)[i]]
                        assert est == pytest.approx(loss, abs=1e-10)

                        if m != 2:
                            continue
                        sm_est = sm_loss = 0.0
                        for b in range(m):
                            zb = z.copy()
                            zb[i] = b
                            sm_est += row[b] * smoothed_per_symbol_estimates(
                                ch, h, HAMMING, d, drawn, zb
                            )[i]
                            p1 = float(weights @ d.denoise_batch(zb ^ masks)[:, i])
                            sm_loss += row[b] * (p1 if x_i == 0 else 1.0 - p1)
                        assert sm_est == pytest.approx(sm_loss, abs=1e-10)


def test_criterion_03_joint_type_identity():
    """Closed-form type-based estimate equals the generic estimator."""
    delta, n = 0.2, 512
    ch = make_bsc(delta)
    h = compute_h(ch)
    zoo = [
        IdentityDenoiser(),
        ConstantDenoiser(0),
        ConstantDenoiser(1),
        make_sliding_window(1, "majority"),
        *make_bsc_counterexample_pair(delta),
    ]
    gen = RngStream(42).generator()
    for trial in range(1000):
        d = zoo[trial % len(zoo)]
        z = gen.integers(0, 2, size=n)
        lhs = estimate_loss(ch, h, HAMMING, d, z)
        rhs = bsc_estimate_from_type(delta, joint_type_counts(z, d), n)
        assert abs(lhs - rhs) <= 1e-12


def test_criterion_04_erasure_specialization():
    """At erasure rate 1/2 the per-unerased-symbol shortcut is the estimator."""
    n = 512
    ch = make_bec(0.5)
    h = canonical_erasure_h(ch)
    copy_preserving = [*make_bec_parity_pair(), IdentityDenoiser(2, 3)]
    gen = RngStream(43).generator()
    for trial in range(1000):
        d = copy_preserving[trial % len(copy_preserving)]
        z = gen.integers(0, 3, size=n)
        lhs = erasure_estimate_loss(ch, HAMMING, d, z)
        rhs = estimate_loss(ch, h, HAMMING, d, z)
        assert abs(lhs - rhs) <= 1e-12


# --------------------------------------------------------------------------
# Monte Carlo experiments shared across criteria 5-10

N_BIG = 4096
TRIALS = 2000


def run_config(spec: dict):
    cfg = ExperimentConfig.from_json(spec)
    return cfg, run_trials(cfg)


def run_on_usable_cpus(spec: dict):
    """run_config with DUO_THREADS at every usable CPU, restored afterwards;
    criterion 10 makes the trial table independent of the thread count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DUO_THREADS", str(harness._usable_cpus()))
        return run_config(spec)


@pytest.fixture(scope="module")
def bec_run():
    return run_on_usable_cpus({
        "channel": {"type": "bec", "epsilon": 0.5},
        "n": N_BIG,
        "clean_source": {"type": "all_zeros"},
        "denoisers": {"type": "bec_parity_pair"},
        "combiner": {"type": "plain"},
        "trials": TRIALS,
        "master_seed": 1001,
    })


BSC_PLAIN_SPEC = {
    "channel": {"type": "bsc", "delta": 0.2},
    "n": N_BIG,
    "clean_source": {"type": "all_zeros"},
    "denoisers": {"type": "bsc_counterexample_pair", "delta": 0.2},
    "combiner": {"type": "plain"},
    "trials": TRIALS,
    "master_seed": 1002,
}


@pytest.fixture(scope="module")
def bsc_plain_run():
    return run_on_usable_cpus(BSC_PLAIN_SPEC)


def bsc_randomized_spec(n: int) -> dict:
    return {
        "channel": {"type": "bsc", "delta": 0.2},
        "n": n,
        "clean_source": {"type": "all_zeros"},
        "denoisers": {"type": "bsc_counterexample_pair", "delta": 0.2},
        "combiner": {"type": "randomized", "nu": 0.75, "m": 128},
        "trials": TRIALS,
        "epsilons": [0.05],
        "master_seed": 1003,
    }


@pytest.fixture(scope="module")
def bsc_randomized_runs():
    return {n: run_on_usable_cpus(bsc_randomized_spec(n)) for n in (256, 1024, N_BIG)}


def mean(table, column):
    return float(np.mean(table[column]))


def odd_rows(table, column):
    """The column's entries of the trials with odd parity."""
    return [value for value, parity in zip(table[column], table["parity"]) if parity == 1]


def test_criterion_05_erasure_pair_defeats_plain_combiner(bec_run):
    """Each parity denoiser averages loss 1/4; the plain combiner averages 1/2."""
    cfg, records = bec_run
    assert mean(records, "loss_d1") == pytest.approx(0.25, abs=0.02)
    assert mean(records, "loss_d2") == pytest.approx(0.25, abs=0.02)
    assert mean(records, "loss_combined") == pytest.approx(0.50, abs=0.02)
    value = aggregate(records, cfg)["regret"]["value"]
    assert value == pytest.approx(0.25, abs=0.02)


def test_criterion_06_crossover_pair_table(bsc_plain_run):
    """Odd-parity estimate/loss table and the plain combiner's analytic regret."""
    cfg, records = bsc_plain_run
    assert len(odd_rows(records, "trial")) > TRIALS // 3
    assert np.mean(odd_rows(records, "est_d1")) == pytest.approx(-0.227, abs=0.02)
    assert np.mean(odd_rows(records, "est_d2")) == pytest.approx(0.181, abs=0.02)
    assert np.mean(odd_rows(records, "loss_d1")) == pytest.approx(0.20, abs=0.01)
    assert np.mean(odd_rows(records, "loss_d2")) == pytest.approx(0.16, abs=0.01)
    value = aggregate(records, cfg)["regret"]["value"]
    assert value == pytest.approx(0.2 ** 2 / 2, abs=0.005)


def test_criterion_07_randomized_combiner_recovers_better_denoiser(
    bsc_randomized_runs,
):
    """Smoothed-estimate selection drops the regret to near zero."""
    cfg, records = bsc_randomized_runs[N_BIG]
    regret = aggregate(records, cfg)["regret"]
    value, se = regret["value"], regret["se"]
    assert value + 3 * se <= 0.01, f"regret {value:.4f} +- {se:.4f}"
    frac = np.mean([chosen == 2 for chosen in odd_rows(records, "chosen")])
    assert frac >= 0.95, f"chose the better denoiser on {frac:.1%} of odd trials"


def test_criterion_08_smoothed_parity_influence():
    """Total influence of smoothed parity is n (1-2q)^n; MC agrees within 3 SE."""
    for n in (4, 8, 12):
        for q in (0.0, 0.1, 0.25):
            cfg = SmoothingConfig(q=q, mode="exact")
            value, _ = pointwise_influence(
                parity_functional, cfg, np.zeros(n, dtype=np.int64)
            )
            assert value == pytest.approx(n * (1 - 2 * q) ** n, abs=1e-12)

    n, q = N_BIG, 2.0 ** -9
    value, se = pointwise_influence(
        parity_functional, SmoothingConfig(q=q, m=128),
        np.zeros(n, dtype=np.int64), RngStream(1004),
    )
    truth = n * (1 - 2 * q) ** n
    assert abs(value - truth) <= 3 * se, f"influence {value:.3g} vs {truth:.3g}"


def non_increasing_within_2se(values, ses):
    return all(
        values[k + 1] <= values[k] + 2 * math.hypot(ses[k], ses[k + 1])
        for k in range(len(values) - 1)
    )


def test_criterion_09a_concentration_trend_in_n():
    """Sliding-window deviation probability does not grow with n."""
    probs, ses = [], []
    for n in (256, 1024, N_BIG):
        cfg, records = run_config({
            "channel": {"type": "bsc", "delta": 0.2},
            "n": n,
            "clean_source": {"type": "iid_bernoulli", "p": 0.5},
            "denoisers": {
                "type": "pair",
                "first": {"type": "sliding_window", "k": 1, "rule": "majority"},
                "second": {"type": "identity"},
            },
            "combiner": {"type": "plain"},
            "trials": 500,
            "epsilons": [0.02],
            "master_seed": 1005,
        })
        p, s = aggregate(records, cfg)["deviation_probability"]["0.02"]["d1"]
        probs.append(p)
        ses.append(s)
    assert non_increasing_within_2se(probs, ses), f"probs {probs}"


def test_criterion_09b_smoothing_gap_trend(bsc_randomized_runs):
    """The smoothed/raw expected-loss gap is tiny at n=4096 and shrinking."""
    for j in (1, 2):
        gaps, ses = [], []
        for n in (1024, N_BIG):
            _, records = bsc_randomized_runs[n]
            diffs = np.array(records[f"sm_loss_d{j}"]) - np.array(records[f"loss_d{j}"])
            gaps.append(abs(diffs.mean()))
            ses.append(diffs.std(ddof=1) / math.sqrt(len(diffs)))
        assert gaps[-1] <= 0.01, f"denoiser {j} gap {gaps[-1]:.4f}"
        assert non_increasing_within_2se(gaps, ses), f"denoiser {j} gaps {gaps}"


def test_criterion_09c_smoothed_concentration_trend(bsc_randomized_runs):
    """Smoothed estimates concentrate around smoothed losses as n grows."""
    for j in (1, 2):
        probs, ses = [], []
        for n in (256, 1024, N_BIG):
            cfg, records = bsc_randomized_runs[n]
            p, s = aggregate(records, cfg)["deviation_probability"]["0.05"][f"d{j}"]
            probs.append(p)
            ses.append(s)
        assert probs[-1] <= 0.05, f"denoiser {j} deviation prob {probs[-1]:.3f}"
        assert non_increasing_within_2se(probs, ses), f"denoiser {j} probs {probs}"


def test_criterion_10_thread_count_determinism(monkeypatch, bsc_plain_run,
                                               bsc_randomized_runs):
    """Byte-identical CSVs whatever the blocking and thread count.

    Plain trials run two to a block in ``bsc_plain_run`` (n = 4096) and here
    three to a block, the last block ragged.  Randomized trials at n = 256
    run 32 to a block on every usable CPU in ``bsc_randomized_runs`` and here
    48 to a block, the last block ragged, on one thread.
    """
    monkeypatch.setattr(denoisers, "BLOCK_BYTES", 8 * 3 * N_BIG)    # int64 rows
    monkeypatch.setenv("DUO_THREADS", "1")
    for spec, (_, expected) in ((BSC_PLAIN_SPEC, bsc_plain_run),
                                (bsc_randomized_spec(256), bsc_randomized_runs[256])):
        _, records = run_config(spec)
        assert records_csv_text(records) == records_csv_text(expected)
