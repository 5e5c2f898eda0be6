"""Run one workload of the duodenoise benchmark and print its metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run is untraced and reports the end-to-end metrics:
``trials_per_s``, ``states_per_s``, ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` it runs untraced for half the time, then traced for the other
half, and reports the per-module metrics and ``trace.overhead_frac``.
Either way every output is checked (see ``checks.py``).  Each metric is
printed as ``name value unit``; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with provenance, goes to ``benchmarks/results/``.

The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout holds no duodenoise sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import checks
import workloads as wl
from clock import Clock
from tracer import Tracer

SETUP_PROBES = 7
FROM_JSON_PROBES = 5
MAX_FAILURES_KEPT = 20

# Per-module metrics.  "s/trial" is a function's self time per trial: its
# span durations minus the time its traced callees cover, summed and divided
# by the trials run traced.  An oracle_n14 trial is one pass of the oracles.
SELF_TIME = {
    "losses.estimate_smoothed_loss_s": "losses.estimate_smoothed_loss",
    "losses.smoothed_per_symbol_estimates_s": "losses.smoothed_per_symbol_estimates",
    "losses.smoothed_conditional_loss_s": "losses.smoothed_conditional_loss",
    "denoisers.substituted_outputs_batch_s": "denoisers.substituted_outputs_batch",
    "denoisers.denoise_batch_s": "denoisers.denoise_batch",
    "denoisers.substituted_outputs_s": "denoisers.substituted_outputs",
    "denoisers.denoise_s": "denoisers.denoise",
    "denoisers.mask_draw_s": "denoisers.draw_smoothing_masks",
    "losses.estimate_loss_s": "losses.estimate_loss",
    "losses.per_symbol_estimates_s": "losses.per_symbol_estimates",
    "losses.cumulative_loss_s": "losses.cumulative_loss",
    "combine.combined_denoise_self_s": "combine.combined_denoise",
    "combine.randomized_combined_denoise_self_s": "combine.randomized_combined_denoise",
    "channel.sample_output_s": "channel.sample_output",
    "channel.check_sequence_s": "channel.check_sequence",
    "rng.generator_s": "rng.generator",
    "harness.run_trials_self_s": "harness.run_trials",
    "harness.records_to_csv_s": "harness.records_to_csv",
    "harness.aggregate_s": "harness.aggregate",
    "harness.enumerate_expectation_s": "harness.enumerate_expectation",
    "harness.pointwise_influence_s": "harness.pointwise_influence",
}
# Calls per trial, exact counts.
CALLS = {
    "denoisers.mask_draw_calls": "denoisers.draw_smoothing_masks",
    "losses.estimate_loss_calls": "losses.estimate_loss",
    "channel.check_sequence_calls": "channel.check_sequence",
    "rng.generator_calls": "rng.generator",
    "rng.derive_calls": "rng.derive",
}
OTHER_LAYER_UNITS = {
    "denoisers.distinct_mask_ratio": "ratio",
    "denoisers.table_bytes": "bytes/trial",
    "losses.distinct_estimate_ratio": "ratio",
    "harness.functional_calls": "calls/state",
    "harness.workers": "count",
    "harness.cpu_util": "cpu_s/s",
    "harness.from_json_s": "s/call",
    "trace.overhead_frac": "ratio",
}
LAYER_UNITS = {**{m: "s/trial" for m in SELF_TIME}, **{m: "calls/trial" for m in CALLS},
               **OTHER_LAYER_UNITS}
# Metrics that are counts: they must repeat exactly between runs of the same
# code at the same seed, and are compared as counts, never as speed-ups.
COUNT_METRICS = tuple(CALLS) + (
    "denoisers.distinct_mask_ratio", "denoisers.table_bytes",
    "losses.distinct_estimate_ratio", "harness.functional_calls", "harness.workers")

END_TO_END_UNITS = {"trials_per_s": "1/s", "states_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- provenance ---------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """SHA-256 over the library's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "duodenoise").rglob("*.py")):
        digest.update(str(path.relative_to(wl.SRC)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance(name: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "DUO_THREADS": os.environ.get("DUO_THREADS"),
        "workload": name,
        "seed": seed,
        "config_sha256": {w: wl.spec_sha256(wl.workload_spec(w, seed)) for w in wl.WORKLOADS},
    }


# -- measuring ----------------------------------------------------------


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """One set-up of the library in this process: (wall, reference) seconds.

    The duodenoise modules are imported afresh (numpy stays loaded: its
    import is the same for every version of the library) and the workload's
    config is parsed; the modules in use before are put back afterwards.
    """
    ours = [key for key in sys.modules if key == "duodenoise" or key.startswith("duodenoise.")]
    saved = {key: sys.modules.pop(key) for key in ours}
    clock = Clock()
    try:
        clock.call(_fresh_setup, wl.setup_spec(name, seed))
    finally:
        for key in [k for k in sys.modules if k == "duodenoise" or k.startswith("duodenoise.")]:
            del sys.modules[key]
        sys.modules.update(saved)
    return clock.seconds, clock.ref_seconds


def _fresh_setup(spec: dict) -> None:
    importlib.import_module("duodenoise.harness").ExperimentConfig.from_json(spec)


def run_blocks(workload, seconds: float, gate: checks.Gate, first, min_blocks: int = 1,
               tracer: Tracer | None = None, between=None) -> list[wl.Block]:
    """Blocks until ``seconds`` have passed, each checked against ``first``.

    ``between``, if given, is called after each block, outside its timing.
    The blocks are returned without their outputs.
    """
    blocks = []
    deadline = time.perf_counter() + seconds
    while len(blocks) < min_blocks or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.block = len(blocks)
        block = workload.run_block()
        checks.check_repeat(gate, first, block, len(blocks) + 1)
        block.output = {}
        blocks.append(block)
        if between is not None:
            between()
    return blocks


def end_to_end(workload, args, gate, first, result) -> dict:
    # The set-up probes are spread over the run, between blocks, so that the
    # median samples the machine at several moments, as the blocks do.
    probes = []
    interval = args.seconds / SETUP_PROBES
    next_probe = time.perf_counter()

    def probe_when_due():
        nonlocal next_probe
        while len(probes) < SETUP_PROBES and time.perf_counter() >= next_probe:
            probes.append(setup_probe(args.workload, args.seed))
            next_probe += interval

    blocks = run_blocks(workload, args.seconds, gate, first, between=probe_when_due)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args.workload, args.seed))
    trial_rates = [b.trials / b.ref_seconds for b in blocks]
    wall_rates = [b.trials / b.seconds for b in blocks]
    result["raw"] = {
        "blocks": len(blocks), "trials": sum(b.trials for b in blocks),
        "trials_per_ref_s_quartiles": _quartiles(trial_rates),
        "trials_per_wall_s_quartiles": _quartiles(wall_rates),
        "setup_wall_s": [w for w, _ in probes], "setup_ref_s": [r for _, r in probes],
    }
    return {
        "trials_per_s": statistics.median(trial_rates),
        "states_per_s": statistics.median(b.states / b.ref_seconds for b in blocks),
        "setup_s": statistics.median(r for _, r in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, args, gate, first, result) -> dict:
    from duodenoise import harness

    untraced = run_blocks(workload, args.seconds / 2, gate, first)
    from_json = Clock()
    for _ in range(FROM_JSON_PROBES):
        from_json.call(harness.ExperimentConfig.from_json, wl.setup_spec(workload.name, args.seed))

    tracer = Tracer()
    min_blocks = 1 if workload.name == "oracle_n14" else 2
    with tracer:
        traced = run_blocks(workload, args.seconds / 2, gate, first, min_blocks, tracer)
        workers = harness.worker_count()
    spans = tracer.span_totals()
    counts = tracer.counts()
    trials = sum(b.trials for b in traced)
    # span times in reference seconds per trial (see clock.py)
    scale = sum(b.ref_seconds for b in traced) / sum(b.seconds for b in traced) / 1e9 / trials
    metrics = {m: spans.get(span, {}).get("self_ns", 0.0) * scale
               for m, span in SELF_TIME.items()}
    metrics.update({m: spans.get(span, {}).get("calls", 0) / trials for m, span in CALLS.items()})
    per_trial = statistics.median(b.ref_seconds / b.trials for b in traced)
    untraced_per_trial = statistics.median(b.ref_seconds / b.trials for b in untraced)
    metrics.update({
        "denoisers.distinct_mask_ratio": _ratio(counts["distinct_masks"], counts["mask_draws"]),
        "denoisers.table_bytes": counts["table_bytes"] / trials,
        "losses.distinct_estimate_ratio": _ratio(counts["distinct_estimates"],
                                                 counts["estimate_calls"]),
        "harness.functional_calls": _ratio(counts["functional_calls"],
                                           counts["enumerated_states"]),
        "harness.workers": workers,
        "harness.cpu_util": _ratio(counts["run_trials_cpu_ns"], counts["run_trials_wall_ns"]),
        "harness.from_json_s": from_json.ref_seconds / FROM_JSON_PROBES,
        "trace.overhead_frac": per_trial / untraced_per_trial - 1.0,
    })
    result["count_detail"] = {"trials": trials, **{k: int(v) for k, v in counts.items()}}
    result["count_flags"] = _block_count_flags(tracer, len(traced))
    result["trace_missing"] = tracer.missing
    result["raw"] = {"untraced_blocks": len(untraced), "traced_blocks": len(traced)}
    tracer.save(wl.RESULTS / f"{_stem(args)}.spans.npz")
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _block_count_flags(tracer: Tracer, blocks: int) -> list[str]:
    """Counts that differ between traced blocks, which all do the same work."""
    if blocks < 2:
        return []
    per_block = [({k: v["calls"] for k, v in tracer.span_totals({b}).items()},
                  dict(tracer.counts({b}))) for b in range(blocks)]
    flags = []
    for b, (calls, counts) in enumerate(per_block[1:], start=1):
        for label, got, want in (("calls", calls, per_block[0][0]),
                                 ("count", counts, per_block[0][1])):
            for key in sorted(set(got) | set(want)):
                if label == "count" and key.startswith("run_trials_"):
                    continue  # clock readings, not counts
                if got.get(key, 0) != want.get(key, 0):
                    flags.append(f"{label} {key} differs between traced blocks 0 and {b}")
    return flags


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def _previous_count_flags(path, result) -> list[str]:
    """Count metrics that differ from an earlier run of the same code and seed."""
    try:
        with open(path) as fh:
            before = json.load(fh)
    except (OSError, ValueError):
        return []
    if before.get("provenance", {}).get("source_sha256") != result["provenance"]["source_sha256"]:
        return []
    old = before.get("metrics", {})
    return [f"{m} was {old[m]['value']!r} in the previous run, now {result['metrics'][m]['value']!r}"
            for m in COUNT_METRICS
            if m in old and m in result["metrics"]
            and old[m]["value"] != result["metrics"][m]["value"]]


# -- main ---------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # Set-up is timed with the library's bytecode cached, as an installed
    # library has it, whatever PYTHONDONTWRITEBYTECODE says: probes that
    # compiled the sources read more than twice as long.  The cache lives
    # with the results, so the sources' directory is left as it was.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(wl.RESULTS / "pycache")
    try:
        wl.load_library()
    except wl.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.chdir(wl.ROOT)

    gate = checks.Gate()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    metrics = {}
    try:
        workload = wl.make_workload(args.workload, args.seed)
        first = workload.run_block()
        checks.check_first(gate, workload, first, checks.load_golden())
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, args, gate, first, result)
    except Exception as exc:  # the run stops; the failure is reported below
        gate.attempted += 1
        gate.failures.append(f"run aborted: {type(exc).__name__}: {exc}")

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = gate.failed == 0 and set(metrics) == set(units)
    result["provenance"] = provenance(args.workload, args.seed)
    result["metrics"] = {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics}
    result.update(correct=correct, attempted=max(gate.attempted, 1), failed=gate.failed,
                  failed_frac=gate.failed / max(gate.attempted, 1),
                  failures=gate.failures[:MAX_FAILURES_KEPT])
    wl.RESULTS.mkdir(exist_ok=True)
    path = wl.RESULTS / f"{_stem(args)}.json"
    if args.trace:
        result["count_flags"] = result.get("count_flags", []) + _previous_count_flags(path, result)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for flag in result.get("count_flags", []):
        print(f"# COUNT FLAG {flag}")
    print(f"{'failed_frac':44s} {result['failed_frac']:.6g} ({gate.failed}/{result['attempted']})")
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
