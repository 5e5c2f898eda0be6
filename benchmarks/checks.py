"""The output-correctness gate behind ``failed_frac``.

Each check either holds or fails; a check that raises counts as failed.
Experiment outputs are rebuilt trial by trial through the public API: the
trial stream is ``RngStream(master_seed, seed)``, with ``.derive("clean")``
for the clean sequence and ``.derive("channel")`` for the noisy one.  The
smoothed columns are rebuilt mask by mask with the one-sequence ``denoise``
and ``substituted_outputs``, never through the batch paths or the smoothing
kernels of ``losses`` that produced them.  Oracle outputs are held against
the closed forms they must equal.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from workloads import BENCH_DIR, spec_sha256

EST_TOL = 1e-12
UNBIASED_TOL = 1e-10
INFLUENCE_RTOL = 1e-9
SPOT_POSITIONS = 4   # positions per trial at which substituted outputs are re-derived


def load_golden() -> dict:
    """Trial-CSV SHA-256 per workload at its default seed, as recorded."""
    with open(BENCH_DIR / "golden.json") as fh:
        return json.load(fh)["workloads"]


def csv_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Counts checks attempted and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, test) -> None:
        """Run ``test()``; it fails by returning False or by raising."""
        self.attempted += 1
        try:
            ok = bool(test())
        except Exception as exc:  # a crash in the checked code is a failure
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failures.append(what)


def _hamming(x, xhat) -> float:
    return np.count_nonzero(xhat != x) / len(x)


def _flipped_estimate(delta: float, d, z, w) -> float:
    """BSC loss estimate of the denoiser z -> d.denoise(z ^ w), from its joint
    type: its output at i with z_i flipped is d's substituted output at i for
    the symbol (1 - z_i) ^ w_i on the sequence z ^ w."""
    from duodenoise.losses import JointTypeCounts, bsc_estimate_from_type

    zw = z ^ w
    flipped = d.substituted_outputs(zw)[np.arange(len(z)), 1 - zw]
    counts = np.bincount(4 * z + 2 * d.denoise(zw) + flipped, minlength=8)
    return bsc_estimate_from_type(delta, JointTypeCounts(counts.reshape(2, 2, 2)), len(z))


def _weighted(weights, values) -> float:
    return math.fsum(float(wt) * v for wt, v in zip(weights, values))


def _substitution_agrees(d, z, positions) -> bool:
    """substituted_outputs(z)[i, a] equals denoise(z with z_i = a)[i]."""
    table = d.substituted_outputs(z)
    for i in positions:
        for a in (0, 1):
            zs = z.copy()
            zs[i] = a
            if table[i, a] != d.denoise(zs)[i]:
                return False
    return True


def check_smoothed(gate: Gate, cfg, row: dict, stream, x, z, pair, delta: float) -> None:
    """The randomized combiner's columns, rebuilt from their own mask streams.

    The smoothed estimate is linear in the mask-averaged outputs, so it is the
    weighted mean, over the estimation masks, of the plain estimate of each
    mask-flipped denoiser; the smoothed loss is the weighted mean of each
    mask-flipped output's Hamming loss.
    """
    from duodenoise.denoisers import (draw_smoothing_mask, draw_smoothing_masks,
                                      stratified_mask_weights)

    t, n, sm = row["trial"], cfg.n, cfg.smoothing
    q = sm.resolve_q(n)
    combiner = stream.derive("combiner")
    est_masks = draw_smoothing_masks(sm, n, combiner.derive("estimation-masks"))
    loss_masks = draw_smoothing_masks(sm, n, stream.derive("smoothed-loss"))
    mask = draw_smoothing_mask(sm, n, combiner.derive("emitted-mask"))
    for j, d in pair:
        gate.check(f"trial {t}: sm_est_d{j} rebuilt from the estimation masks",
                   lambda: abs(float(row[f"sm_est_d{j}"]) - _weighted(
                       stratified_mask_weights(est_masks, q),
                       [_flipped_estimate(delta, d, z, w) for w in est_masks])) <= EST_TOL)
        gate.check(f"trial {t}: sm_loss_d{j} rebuilt from the smoothed-loss masks",
                   lambda: abs(float(row[f"sm_loss_d{j}"]) - _weighted(
                       stratified_mask_weights(loss_masks, q),
                       [_hamming(x, d.denoise(z ^ w)) for w in loss_masks])) <= EST_TOL)
    gate.check(f"trial {t}: mask_weight is the emitted mask's weight",
               lambda: int(row["mask_weight"]) == int(mask.sum()))
    gate.check(f"trial {t}: loss_combined is the chosen denoiser's loss on the masked input",
               lambda: abs(float(row["loss_combined"]) - _hamming(
                   x, pair[int(row["chosen"]) - 1][1].denoise(z ^ mask))) <= EST_TOL)


def check_experiment(gate: Gate, workload, block, golden: dict | None = None) -> None:
    """Every trial of one block rebuilt and checked; golden CSV if recorded."""
    from duodenoise.channel import sample_output
    from duodenoise.losses import bsc_estimate_from_type, joint_type_counts
    from duodenoise.rng import RngStream

    cfg = workload.cfg
    text = block.output["csv"]
    rows = list(csv.DictReader(io.StringIO(text)))
    gate.check("trial CSV has one row per trial", lambda: len(rows) == cfg.trials)
    entry = (golden or {}).get(workload.name)
    if entry and entry["config_sha256"] == spec_sha256(workload.spec):
        gate.check("trial CSV matches the recorded SHA-256",
                   lambda: csv_sha256(text) == entry["csv_sha256"])
    n = cfg.n
    delta = float(cfg.channel.pi[0, 1])
    pair = ((1, cfg.d1), (2, cfg.d2))
    for row in rows:
        t = row["trial"]
        stream = RngStream(cfg.master_seed, int(row["seed"]))
        if cfg.clean_source["type"] == "iid_bernoulli":
            p = float(cfg.clean_source.get("p", 0.5))
            x = (stream.derive("clean").uniforms(n) < p).astype(np.int64)
        else:
            x = np.zeros(n, dtype=np.int64)
        z = sample_output(cfg.channel, x, stream.derive("channel"))
        gate.check(f"trial {t}: parity", lambda: int(row["parity"]) == int(z.sum() % 2))
        spots = np.random.default_rng(int(row["seed"])).choice(n, SPOT_POSITIONS, replace=False)
        for j, d in pair:
            gate.check(f"trial {t}: loss_d{j} against a recount",
                       lambda: abs(float(row[f"loss_d{j}"]) - _hamming(x, d.denoise(z)))
                       <= EST_TOL)
            gate.check(f"trial {t}: est_d{j} against the joint-type closed form",
                       lambda: abs(float(row[f"est_d{j}"]) - bsc_estimate_from_type(
                           delta, joint_type_counts(z, d), n)) <= EST_TOL)
            gate.check(f"trial {t}: d{j} substituted outputs agree with denoise",
                       lambda: _substitution_agrees(d, z, spots))
        key = "sm_est_d" if workload.randomized else "est_d"
        gate.check(f"trial {t}: chosen follows the order of {key}*",
                   lambda: int(row["chosen"]) == (
                       1 if float(row[key + "1"]) <= float(row[key + "2"]) else 2))
        if workload.randomized:
            check_smoothed(gate, cfg, row, stream, x, z, pair, delta)
        else:
            gate.check(f"trial {t}: loss_combined is the chosen denoiser's loss",
                       lambda: row["loss_combined"] == row[f"loss_d{row['chosen']}"])
    summary = block.output["aggregate"]
    columns = ("loss_d1", "loss_d2", "est_d1", "est_d2", "loss_combined")
    gate.check("aggregate means equal the CSV column means", lambda: all(
        abs(summary["means"][c][0] - math.fsum(float(r[c]) for r in rows) / len(rows))
        <= EST_TOL for c in columns) and summary["trials"] == len(rows))


def check_oracle(gate: Gate, workload, block) -> None:
    """Unbiasedness gaps, the parity counterexample and n(1-2q)^n."""
    out = block.output
    for label in ("d1", "d2"):
        gate.check(f"unbiasedness gap of {label}",
                   lambda: abs(out[f"estimate_{label}"] - out[f"loss_{label}"]) <= UNBIASED_TOL)
    gate.check("parity counterexample", lambda: out["parity_counterexample"] is True)
    k = workload.spec["influence_n"]
    for q in workload.spec["influence_q"]:
        expected = k * (1.0 - 2.0 * q) ** k
        gate.check(f"smoothed parity influence at q={q}",
                   lambda: math.isclose(out[f"influence_q{q}"], expected,
                                        rel_tol=INFLUENCE_RTOL, abs_tol=1e-15))


def check_first(gate: Gate, workload, block, golden: dict | None = None) -> None:
    """Full check of the first block of a run."""
    if workload.name == "oracle_n14":
        check_oracle(gate, workload, block)
    else:
        check_experiment(gate, workload, block, golden)


def check_repeat(gate: Gate, first, block, index: int) -> None:
    """A later block must reproduce the first block's output exactly."""
    gate.check(f"block {index} reproduces block 0", lambda: block.output == first.output)
