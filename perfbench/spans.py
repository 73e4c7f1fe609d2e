"""In-memory spans around the benchmark's calls into dualqss, and the
summary statistics the benchmark reports.

A span is one call into a layer: the layer and call name, start and end
times, the span that was open when it began (its parent) and the run id
that groups the spans of one workload iteration. Spans are recorded
only while a tracer is enabled and are read back when the run ends;
nothing is written while the workload runs.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

_DISABLED = nullcontext()


@dataclass
class Span:
    id: int
    parent: int | None
    run_id: int
    layer: str
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Recording:
    __slots__ = ("_tracer", "_layer", "_name", "_attrs")

    def __init__(self, tracer: Tracer, layer: str, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tr = self._tracer
        parent = tr._open[-1].id if tr._open else None
        span = Span(len(tr.spans), parent, tr.run_id, self._layer, self._name,
                    time.perf_counter(), float("nan"), self._attrs)
        tr.spans.append(span)
        tr._open.append(span)
        return span

    def __exit__(self, *exc) -> bool:
        self._tracer._open.pop().end = time.perf_counter()
        return False


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` costs one call."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.run_id = 0
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, layer: str, name: str, **attrs):
        if not self.enabled:
            return _DISABLED
        return _Recording(self, layer, name, attrs)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer spent in its own spans and not in their children.

    A span's self time is its duration minus the part of its interval
    that its direct children cover, so the self times of a span tree
    add up to the duration of its root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        inside = [(max(lo, s.start), min(hi, s.end))
                  for lo, hi in children.get(s.id, ()) if hi > s.start and lo < s.end]
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - _covered(inside)
    return out


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (``None`` when that would not lie above the
    median, i.e. with 21 samples or fewer)."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n > 1 else (xs[0], None, xs[0])
    tail_pct = tail = None
    i = n - 11
    if 2 * i > n - 1:
        tail_pct = round(100.0 * i / (n - 1), 1)
        tail = xs[i]
    return {"n": n, "median": statistics.median(xs), "q1": q1, "q3": q3,
            "tail_pct": tail_pct, "tail": tail}


def median(values: list[float]) -> float:
    """Median, or 0.0 for a layer the workload leaves idle."""
    return statistics.median(values) if values else 0.0
