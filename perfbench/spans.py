"""In-memory span recorder for the benchmark's traced run.

The benchmark times each layer from outside: every call it makes into
a public function of the library is wrapped in a span, and a span
records ``(name, start, end, parent, round)``. Spans stay in memory
while the run measures and are written out once, when it ends.

A layer's *self time* is its span's duration minus the part covered by
its child spans. The ``round`` span is the root of each timed round,
so its self time is the round's unattributed glue, and the self times
of one round's spans add up to the round's duration exactly.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional

_clock = time.perf_counter

#: Name of the root span of every timed round.
ROUND = "round"


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced path: spans cost one attribute lookup and a
    no-op context manager."""

    enabled = False

    def span(self, name: str):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "start", "parent", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(None)  # reserve the slot: parents precede children
        tr._stack.append(self.index)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent,
                                tr.round_id)
        return False


class Tracer:
    """Records spans in memory; see the module docstring."""

    enabled = True

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self.round_id = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _self_seconds(self) -> List[float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(end - start) - child_time[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{round: {span name: summed self seconds}}``."""
        out: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span, own in zip(self.spans, self._self_seconds()):
            out[span[4]][span[0]] += own
        return out

    def round_durations(self) -> Dict[int, float]:
        """Duration of each round's root span."""
        return {rnd: end - start
                for name, start, end, parent, rnd in self.spans
                if name == ROUND and parent is None}

    def closure_error(self) -> float:
        """Largest gap, over rounds, between the summed self times of
        the spans under a round's root and that round's duration."""
        root = [0] * len(self.spans)
        totals: Dict[int, float] = defaultdict(float)
        for i, (span, own) in enumerate(zip(self.spans,
                                            self._self_seconds())):
            root[i] = i if span[3] is None else root[span[3]]
            totals[root[i]] += own
        return max((abs(totals[i] - (end - start))
                    for i, (name, start, end, parent, _)
                    in enumerate(self.spans)
                    if name == ROUND and parent is None), default=0.0)

    def write(self, path, **header) -> None:
        """Write every span, after *header*, as one JSON document."""
        with open(path, "w") as fh:
            json.dump(dict(header, fields=["name", "start_s", "end_s",
                                           "parent", "round"],
                           spans=self.spans), fh)


def layer_medians(tracer: Tracer, metrics, per_cell=None
                  ) -> Dict[str, float]:
    """Median over traced rounds of each ``<span>.s`` metric.

    A metric's value for one round is the summed self time of the
    spans named like it (``glue.s`` is the round root's own), divided
    by ``per_cell[metric]`` for per-cell figures. A span a round never
    entered counts 0 for that round.
    """
    per_round = tracer.self_times()
    rounds = sorted(tracer.round_durations())
    out = {}
    for metric in metrics:
        span = ROUND if metric == "glue.s" else metric[:-len(".s")]
        divisor = (per_cell or {}).get(metric, 1)
        values = [per_round[r].get(span, 0.0) / divisor for r in rounds]
        out[metric] = statistics.median(values) if values else 0.0
    return out
