"""Spans and counters recorded around the program's public functions.

A ``Tracer`` keeps every span in memory (operation, name, start, end, parent)
and one counter dict per operation; ``write`` puts them out as JSON lines when
the run ends.  ``instrument`` swaps wrappers into the program's module
namespaces for the functions the program calls internally (``is_compatible``,
``check``, the partition generator and the existence campaign's helpers), and
restores the originals on exit.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[defaultdict] = []
        self._stack: list[int] = []
        self._counting = True
        # (witness, partitions scanned) of every wrapped exists_stable call.
        self.exists_calls: list[tuple] = []

    @property
    def op(self) -> int:
        return len(self.counts) - 1

    def begin_op(self) -> None:
        self.counts.append(defaultdict(float))

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def add(self, key: str, value: float = 1) -> None:
        if self._counting:
            self.counts[-1][key] += value

    @contextlib.contextmanager
    def uncounted(self):
        """Run a block whose calls into wrapped functions are not counted."""
        self._counting = False
        try:
            yield
        finally:
            self._counting = True

    def per_op_ms(self, name: str) -> list[float]:
        """Total milliseconds spent in spans called ``name``, for every operation."""
        totals = [0.0] * len(self.counts)
        for op, span_name, start, end, _parent in self.spans:
            if span_name == name:
                totals[op] += (end - start) * 1e3
        return totals

    def per_op(self, key: str) -> list[float]:
        return [c.get(key, 0.0) for c in self.counts]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.per_op_ms(name)) if self.counts else 0.0

    def median_count(self, key: str) -> float:
        return statistics.median(self.per_op(key)) if self.counts else 0.0

    def total(self, key: str) -> float:
        return sum(self.per_op(key))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for op, counts in enumerate(self.counts):
                fh.write(json.dumps({"op": op, "counts": dict(counts)}) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the functions the program calls internally, for the block's duration."""
    from hedonic_lab import clustering, experiments, oracle

    orig_compatible = clustering.is_compatible
    orig_check = oracle.check
    orig_rgs = oracle.rgs_strings
    orig_exists = experiments.exists_stable
    orig_by_k = experiments.nash_existence_by_k
    orig_bound = experiments.nash_k_bound

    def is_compatible(*args, **kwargs):
        ok = orig_compatible(*args, **kwargs)
        tracer.add("merge_attempts")
        tracer.add("merge_accepts", bool(ok))
        return ok

    def check(*args, **kwargs):
        t0 = time.perf_counter()
        verdict = orig_check(*args, **kwargs)
        tracer.add("check_s", time.perf_counter() - t0)
        tracer.add("check_calls")
        return verdict

    def rgs_strings(n):
        for labels in orig_rgs(n):
            tracer.add("partitions_enumerated")
            yield labels

    def exists_stable(*args, **kwargs):
        before = tracer.counts[-1]["check_calls"]
        with tracer.span("oracle.exists_stable"):
            witness = orig_exists(*args, **kwargs)
        scanned = tracer.counts[-1]["check_calls"] - before
        tracer.add("exists_partitions_scanned", scanned)
        tracer.exists_calls.append((witness, int(scanned)))
        return witness

    def nash_existence_by_k(*args, **kwargs):
        with tracer.span("experiments.nash_existence_by_k"):
            return orig_by_k(*args, **kwargs)

    def nash_k_bound(*args, **kwargs):
        with tracer.span("bounds.nash_k_bound"):
            return orig_bound(*args, **kwargs)

    swaps = [(clustering, "is_compatible", is_compatible), (oracle, "check", check),
             (oracle, "rgs_strings", rgs_strings), (experiments, "rgs_strings", rgs_strings),
             (experiments, "exists_stable", exists_stable),
             (experiments, "nash_existence_by_k", nash_existence_by_k),
             (experiments, "nash_k_bound", nash_k_bound)]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in swaps]
    try:
        for mod, name, fn in swaps:
            setattr(mod, name, fn)
        yield tracer
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
