"""Spans recorded from outside the program, and the arithmetic over them.

The traced run of the benchmark wraps the public calls of each layer
(``Recorder.patch``) before the server builds its service.  A wrapper
records one span per call: name, start, end, its own id, its parent's id
and the id of the request it belongs to.  The parent travels in a
context variable, which ``WorkerPool`` and ``FrontierExecutor`` already
copy into the threads they hand work to, so a span opened on a pool
worker or a scatter thread still finds the request that caused it.

A span with no parent starts a request of its own: an HTTP request, a
compactor pass or a replication sweep.

Spans stay in memory (one tuple each) and are written out when the
server process exits.  This module imports nothing from the program, so
the benchmark process can use the arithmetic without loading it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "TAIL_SAMPLES",
    "Recorder",
    "Span",
    "load_spans",
    "percentile",
    "self_times",
    "supported_fraction",
    "union_length",
]

#: (name, start, end, span_id, parent_id, request_id, value) — ``value``
#: is an optional number the wrapper derived from the call's result (a
#: cache hit, a result cardinality).  ``parent_id`` is 0 for a root.
Span = tuple

_CURRENT: ContextVar[tuple[int, int] | None] = ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Collects spans from wrapped callables, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        value: Callable[[Any], float] | None = None,
    ) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = _CURRENT.get()
            span_id = next(ids)
            if parent is None:
                parent_id, request_id = 0, span_id
            else:
                parent_id, request_id = parent
            token = _CURRENT.set((span_id, request_id))
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                measured = value(result) if value is not None else None
                spans.append(
                    (name, start, end, span_id, parent_id, request_id, measured)
                )

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        value: Callable[[Any], float] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a recording wrapper."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), value))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


# ----------------------------------------------------------------------
# Arithmetic.
# ----------------------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``intervals``; overlaps count once."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        elif end > cover_end:
            cover_end = end
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children may overlap (a scatter to two groups, a hedge beside its
    primary), so their durations are not summed.  A child interval is
    clipped to its parent's, since a hedge can outlive the call that
    started it.
    """
    bounds = {span[3]: (span[1], span[2]) for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[4]
        if parent in bounds:
            lo, hi = bounds[parent]
            start, end = max(span[1], lo), min(span[2], hi)
            if end > start:
                children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - union_length(children.get(span_id, ()))
        for span_id, (start, end) in bounds.items()
    }


#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], fraction: float) -> float | None:
    """The ``fraction`` quantile (nearest rank) of ``values``, or ``None``
    when fewer than :data:`TAIL_SAMPLES` samples lie beyond it — a tail
    read from a handful of samples is one sample, not a percentile."""
    count = len(values)
    if count == 0:
        return None
    rank = max(1, math.ceil(fraction * count - 1e-9))
    if count - rank < TAIL_SAMPLES and fraction > 0.5:
        return None
    return sorted(values)[rank - 1]


def supported_fraction(count: int, fraction: float) -> float:
    """The highest quantile not above ``fraction`` that ``count``
    samples support under the ten-beyond rule (0 when none does)."""
    if count <= TAIL_SAMPLES:
        return 0.0
    return min(fraction, (count - TAIL_SAMPLES) / count)
