"""Spans around duodenoise's functions, recorded from outside the library.

:class:`Tracer` replaces each traced function in every duodenoise namespace
that holds it -- ``harness.estimate_loss`` and ``combine.estimate_loss`` are
both wrapped -- with a wrapper that records one span per call: name, start,
end, parent span, trial and benchmark block.  Spans stay in memory, column
by column, until the benchmark summarises and saves them;
:meth:`Tracer.uninstall` puts every original attribute back.

A span's self time is its duration minus the part of it that its child
spans cover.  Children in the same thread run one after another, so their
durations add; children in pool threads (``DUO_THREADS`` > 1) overlap, so
the union of their intervals is taken.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) of every traced function; "Class.method" names a
# method.  ``harness._run_trial`` is the one private name: it is the trial
# boundary, and wrapping it tags each span with its trial.  Names a later
# version of the library no longer has are skipped and listed in
# ``Tracer.missing``; per-trial figures never depend on them.
FUNCTIONS = (
    ("channel", "check_sequence"),
    ("channel", "sample_output"),
    ("rng", "RngStream.generator"),
    ("rng", "RngStream.derive"),
    ("denoisers", "draw_smoothing_masks"),
    ("denoisers", "draw_smoothing_mask"),
    ("denoisers", "enumerate_masks"),
    ("denoisers", "exact_mask_weights"),
    ("denoisers", "stratified_mask_weights"),
    ("losses", "cumulative_loss"),
    ("losses", "estimate_loss"),
    ("losses", "per_symbol_estimates"),
    ("losses", "estimate_smoothed_loss"),
    ("losses", "smoothed_per_symbol_estimates"),
    ("losses", "smoothed_conditional_loss"),
    ("combine", "select_min_estimate"),
    ("combine", "combined_denoise"),
    ("combine", "randomized_combined_denoise"),
    ("harness", "run_experiment"),
    ("harness", "run_trials"),
    ("harness", "_run_trial"),
    ("harness", "records_to_csv"),
    ("harness", "aggregate"),
    ("harness", "enumerate_expectation"),
    ("harness", "pointwise_influence"),
    ("verify", "check_parity_counterexample"),
)

# Methods traced on every Denoiser class that defines them; all classes
# share one span name, e.g. "denoisers.denoise_batch".
DENOISER_METHODS = ("denoise", "denoise_batch", "substituted_outputs",
                    "substituted_outputs_batch")

# Calls whose result is a table or mask array; its nbytes (size times item
# size, i.e. computed from the shape) adds to the "table_bytes" count.
TABLE_RESULTS = frozenset({
    "denoisers.denoise_batch", "denoisers.substituted_outputs",
    "denoisers.substituted_outputs_batch", "denoisers.draw_smoothing_masks",
    "denoisers.draw_smoothing_mask", "denoisers.enumerate_masks",
})

_SLOT_BITS = 32
_IDX_MASK = (1 << _SLOT_BITS) - 1


class _ThreadLog:
    """The spans one thread opened, stored column-wise, and its counters."""

    def __init__(self, slot: int):
        self.slot = slot
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self.block = array("q")
        self.stack: list[int] = []
        self.current_trial = -1
        self.run_trials_clock = (0.0, 0.0)
        self.counts: Counter = Counter()   # (block, counter name) -> total


class Tracer:
    """Wraps the library's functions and keeps the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[object, str, object]] = []
        self._keys: set = set()            # (block, kind, identity) of distinct work
        self.missing: list[str] = []
        self.block = 0

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every duodenoise namespace."""
        import duodenoise.denoisers as denoisers

        self._main = self._log()
        modules = [m for name, m in sys.modules.items()
                   if name == "duodenoise" or name.startswith("duodenoise.")]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for module_name, attr in FUNCTIONS:
            module = by_name.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, method):
                self.missing.append(f"{module_name}.{attr}")
                continue
            span = f"{module_name}.{method}"
            if owner_name:
                self._patch_method(owner, method, span)
                continue
            original = getattr(owner, method)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        classes = [c for c in vars(denoisers).values()
                   if isinstance(c, type) and issubclass(c, denoisers.Denoiser)]
        for cls in classes:
            for method in DENOISER_METHODS:
                if method in vars(cls):
                    self._patch_method(cls, method, f"denoisers.{method}")

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _patch_method(self, cls: type, method: str, span: str) -> None:
        self._patch(cls, method, self._wrap(span, vars(cls)[method]))

    # -- recording ------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span: str, fn):
        nid = self._name_id(span)
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        table = span in TABLE_RESULTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            if before is not None:
                args = before(log, args)
            if log.stack:
                parent = (log.slot << _SLOT_BITS) | log.stack[-1]
            elif log is not tracer._main and tracer._main.stack:
                # a pool thread's outermost span belongs to the span that
                # the main thread is waiting in (run_trials)
                parent = (tracer._main.slot << _SLOT_BITS) | tracer._main.stack[-1]
            else:
                parent = -1
            idx = len(log.name)
            log.name.append(nid)
            log.start.append(time.perf_counter_ns())
            log.end.append(-1)
            log.parent.append(parent)
            log.trial.append(log.current_trial)
            log.block.append(tracer.block)
            log.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = time.perf_counter_ns()
                log.stack.pop()
            if table:
                log.counts[(tracer.block, "table_bytes")] += int(result.nbytes)
            if after is not None:
                after(log, args, result)
            return result

        return traced

    def _count(self, log: _ThreadLog, name: str, amount: int = 1) -> None:
        log.counts[(self.block, name)] += amount

    # Hooks named after the span they serve: "_before_<span>" may replace
    # the positional arguments, "_after_<span>" sees the result.

    def _before_harness__run_trial(self, log, args):
        log.current_trial = int(args[1])
        return args

    def _after_harness__run_trial(self, log, args, result):
        log.current_trial = -1

    def _before_harness_run_trials(self, log, args):
        log.run_trials_clock = (time.process_time(), time.perf_counter())
        return args

    def _after_harness_run_trials(self, log, args, result):
        cpu0, wall0 = log.run_trials_clock
        self._count(log, "run_trials_cpu_ns", int((time.process_time() - cpu0) * 1e9))
        self._count(log, "run_trials_wall_ns", int((time.perf_counter() - wall0) * 1e9))

    def _before_harness_enumerate_expectation(self, log, args):
        ch, x, functional = args[:3]
        self._count(log, "enumerated_states", ch.output_size ** len(x))

        def counted(z):
            self._count(log, "functional_calls")
            return functional(z)

        return (ch, x, counted) + tuple(args[3:])

    def _after_denoisers_draw_smoothing_masks(self, log, args, result):
        cfg, n, rng = args
        self._keys.add((self.block, "mask", cfg, n, rng.master_seed, rng.stream_id))
        self._count(log, "mask_draws")

    def _after_losses_estimate_loss(self, log, args, result):
        ch, h, lm, d, z = args
        digest = hashlib.blake2b(np.ascontiguousarray(z).tobytes(), digest_size=16).digest()
        self._keys.add((self.block, "estimate", id(ch), id(h), id(lm), id(d), digest))
        self._count(log, "estimate_calls")

    # -- results --------------------------------------------------------

    def counts(self, blocks=None) -> Counter:
        """Counter totals, summed over ``blocks`` (all blocks if None)."""
        total: Counter = Counter()
        for log in self._logs:
            for (block, name), value in log.counts.items():
                if blocks is None or block in blocks:
                    total[name] += value
        for block, kind, *_ in self._keys:
            if blocks is None or block in blocks:
                total[f"distinct_{kind}s"] += 1
        return total

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as int64 columns; parents are row indices (-1: none)."""
        logs = [log for log in self._logs if len(log.name)]
        cols = {key: np.concatenate([np.frombuffer(getattr(log, key), dtype=np.int64)
                                     for log in logs]) if logs else np.zeros(0, np.int64)
                for key in ("name", "start", "end", "parent", "trial", "block")}
        offsets = np.zeros(len(self._logs) + 1, dtype=np.int64)
        for log in logs:
            offsets[log.slot + 1] = len(log.name)
        offsets = np.cumsum(offsets)
        slots = np.concatenate([np.full(len(log.name), log.slot) for log in logs]) \
            if logs else np.zeros(0, np.int64)
        parent = cols["parent"]
        has = parent >= 0
        row = np.full(len(parent), -1, dtype=np.int64)
        row[has] = offsets[parent[has] >> _SLOT_BITS] + (parent[has] & _IDX_MASK)
        cols["parent"] = row
        cols["thread"] = slots
        return cols

    def span_totals(self, blocks=None) -> dict[str, dict[str, float]]:
        """Per span name: calls and self nanoseconds."""
        cols = self.columns()
        if len(cols["name"]) and (cols["end"] < 0).any():
            raise RuntimeError("span totals requested while spans are still open")
        dur = (cols["end"] - cols["start"]).astype(np.float64)
        parent = cols["parent"]
        n = len(dur)
        same = parent >= 0
        same[same] = cols["thread"][parent[same]] == cols["thread"][same]
        cover = np.bincount(parent[same], weights=dur[same], minlength=n)
        cross = (parent >= 0) & ~same
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(cross & (parent == p))
            cover[p] += _union_length(cols["start"][kids], cols["end"][kids])
        self_ns = dur - cover
        keep = np.ones(n, bool) if blocks is None else np.isin(cols["block"], list(blocks))
        names = cols["name"][keep]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_ns[keep], minlength=k)
        return {name: {"calls": int(calls[i]), "self_ns": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span to an .npz file (columns plus the name table)."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts, kind="stable")
    total, cur_start, cur_end = 0, None, None
    for s, e in zip(starts[order].tolist(), ends[order].tolist()):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return float(total)
