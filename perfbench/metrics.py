"""Metric arithmetic and span tracing for the benchmark.

Nothing here imports kphoton, so test_metrics.py runs without the program
under test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond).  With sorted samples s[0..n-1]
    the value is s[n-1-beyond], the point at or below which (n-beyond)/n of
    the samples lie.  With n <= beyond no such percentile exists; the maximum
    is returned with percentile 100 and 0 samples beyond, so a caller can
    tell the two cases apart.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return s[-1], 100.0, 0
    i = n - 1 - beyond
    return s[i], 100.0 * (i + 1) / n, beyond


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed or wrong-output ops over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Self time summed per layer.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children clipped to the parent, overlaps among
    children counted once).  The layer is the span name up to the first dot.
    """
    children: dict[int, list] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)
    out: dict[str, float] = {}
    for sp in spans:
        s, e = sp["start"], sp["end"]
        kids = [(max(c["start"], s), min(c["end"], e))
                for c in children.get(sp["id"], ())]
        own = (e - s) - _covered((a, b) for a, b in kids if b > a)
        layer = layer_of(sp["name"])
        out[layer] = out.get(layer, 0.0) + own
    return out


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()


class NullTracer:
    """Tracing off: same interface, records nothing."""

    def span(self, name: str):
        return nullcontext()
