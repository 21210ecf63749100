"""Per-layer metrics, measured from outside the server.

Two sources, both outside the program:

* the fields every response already carries (``seconds``,
  ``queued_seconds``, ``cached``, the ``backend`` block, the ingest
  ``replication`` block) and the ``/metrics`` snapshot;
* in a traced run, the spans recorded around each layer's public calls
  (``server.install_tracing``).

Everything describes the open-loop phase, except ``traced.peak_qps`` and
``closed.http.edge_share`` (the closed loop) and the whole-run counters
(``pool.rejected``, ``replication.ship_failed``, ``replication.lag_max``
at the end, ``wal.bytes_per_user_byte``).  A layer the workload never
crosses reads 0.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Sequence

from load import Outcome
from spans import Span, percentile, self_times, supported_fraction

__all__ = ["answer_bytes", "per_layer", "tail"]

#: Response fields that hold timings: their printed width varies from run
#: to run, so ``http.response_bytes.mean`` leaves them out.
TIMING_FIELDS = ("seconds", "eval_seconds", "queued_seconds")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile, or the highest one that ten samples
    beyond it support when there are too few; the maximum below eleven
    samples, and 0 without any."""
    usable = supported_fraction(len(values), fraction)
    if usable <= 0.5:
        return max(values) if values else 0.0
    return percentile(values, usable)


def answer_bytes(outcome: Outcome) -> int:
    """Response body bytes, less the printed timing values."""
    reply = outcome.reply()
    return len(outcome.payload) - sum(
        len(json.dumps(reply[key])) for key in TIMING_FIELDS if key in reply
    )


class RequestSpans:
    """The spans of requests whose root started inside ``window``."""

    def __init__(self, spans: Sequence[Span], window: tuple[float, float]):
        start, end = window
        roots = {
            span[5]
            for span in spans
            if span[4] == 0 and start <= span[1] < end
        }
        self.spans = [span for span in spans if span[5] in roots]
        self.self_ms = {
            span_id: seconds * 1e3 for span_id, seconds in self_times(self.spans).items()
        }
        by_request: dict[int, set[str]] = {}
        for span in self.spans:
            by_request.setdefault(span[5], set()).add(span[0])
        self.query_requests = {
            request for request, names in by_request.items() if "service.execute" in names
        }

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span[0] == name]

    def ms(self, name: str, where=None) -> list[float]:
        return [
            (span[2] - span[1]) * 1e3
            for span in self.named(name)
            if where is None or where(span)
        ]

    def self_of(self, name: str) -> list[float]:
        return [self.self_ms[span[3]] for span in self.named(name)]

    def values(self, name: str) -> list[float]:
        return [span[6] for span in self.named(name) if span[6] is not None]

    def per_query_request(self, name: str) -> float:
        if not self.query_requests:
            return 0.0
        count = sum(1 for span in self.named(name) if span[5] in self.query_requests)
        return count / len(self.query_requests)


def _ok(outcomes: Sequence[Outcome]) -> list[Outcome]:
    return [outcome for outcome in outcomes if outcome.status == 200]


def _sum_field(outcomes: Sequence[Outcome], block: str, key: str) -> float:
    return float(
        sum(outcome.reply().get(block, {}).get(key, 0) for outcome in _ok(outcomes))
    )


def _metric(snapshot: dict[str, Any], kind: str, name: str) -> dict[str, float]:
    return snapshot.get("metrics", {}).get(kind, {}).get(name, {})


def per_layer(
    *,
    open_reads: Sequence[Outcome],
    open_writes: Sequence[Outcome],
    closed_reads: Sequence[Outcome],
    all_outcomes: Sequence[Outcome],
    acked_user_bytes: int,
    snapshot: dict[str, Any],
    spans: Sequence[Span],
    window: tuple[float, float],
    tail_fraction: float,
    lateness: Sequence[float],
    closed_seconds: float,
) -> dict[str, float]:
    """Every per-layer metric, by name (units live in BENCHMARK.json)."""
    q = tail_fraction
    reads = _ok(open_reads)
    replies = [outcome.reply() for outcome in reads]
    edge = [
        (outcome.service_time - reply["seconds"]) * 1e3
        for outcome, reply in zip(reads, replies)
    ]
    closed = _ok(closed_reads)
    edge_share = [
        (outcome.service_time - outcome.reply()["seconds"]) / outcome.service_time
        for outcome in closed
    ]
    evaluated = [reply for reply in replies if not reply.get("cached")]
    queue_wait = [reply["queued_seconds"] * 1e3 for reply in evaluated]
    via_frontier = [reply["backend"] for reply in evaluated if "backend" in reply]
    writes = _ok(open_writes)
    write_replies = [outcome.reply() for outcome in writes]

    s = RequestSpans(spans, window)
    compile_misses = [
        (span[2] - span[1]) * 1e3 for span in s.named("vm.compile") if span[6] == 0.0
    ]
    wal_bytes = sum(_metric(snapshot, "counters", "wal_bytes_total").values())
    lag = _metric(snapshot, "gauges", "replication_lag").values()
    statuses = [outcome.status for outcome in all_outcomes]

    return {
        "load.lateness_p95_ms": tail([x * 1e3 for x in lateness], q),
        "traced.query_p50_ms": median([o.latency * 1e3 for o in reads]),
        "traced.query_p95_ms": tail([o.latency * 1e3 for o in reads], q),
        "traced.peak_qps": len(closed) / closed_seconds,
        "http.edge_ms.p50": median(edge),
        "http.edge_ms.p95": tail(edge, q),
        "closed.http.edge_share": median(edge_share),
        "http.respond_ms.p50": median(
            s.ms("http.respond", lambda span: span[5] in s.query_requests)
        ),
        "http.response_bytes.mean": mean([answer_bytes(o) for o in reads]),
        "service.execute_ms.p50": median(s.ms("service.execute")),
        "service.execute_ms.p95": tail(s.ms("service.execute"), q),
        "service.self_ms.p50": median(s.self_of("service.execute")),
        "pool.queue_wait_ms.p50": median(queue_wait),
        "pool.queue_wait_ms.p95": tail(queue_wait, q),
        "pool.rejected": float(statuses.count(429)),
        "cache.hit_ratio": mean([1.0 if r.get("cached") else 0.0 for r in replies]),
        "cache.get_ms.p50": median(s.ms("cache.get")),
        "cache.invalidated": float(sum(r.get("cache_invalidated", 0) for r in write_replies)),
        "engine.self_ms.p50": median(s.self_of("engine.query")),
        "parser.calls_per_request": s.per_query_request("parser.parse"),
        "parser.parse_ms.p50": median(s.ms("parser.parse")),
        "optimize.optimize_ms.p50": median(s.ms("optimize.optimize")),
        "vm.program_cache_hit_ratio": mean(s.values("vm.compile")),
        "vm.compile_ms.p50": median(compile_misses),
        "vm.execute_ms.p50": median(s.ms("vm.execute")),
        "vm.execute_ms.p95": tail(s.ms("vm.execute"), q),
        "vm.regions_out.mean": mean(s.values("vm.execute")),
        "frontier.run_ms.p50": median(s.ms("frontier.run")),
        "frontier.run_ms.p95": tail(s.ms("frontier.run"), q),
        "frontier.merge_ms.p50": median(s.ms("frontier.merge")),
        "httpclient.shard_query_ms.p50": median(s.ms("httpclient.shard_query")),
        "httpclient.shard_query_ms.p95": tail(s.ms("httpclient.shard_query"), q),
        "frontier.fallback_ratio": mean(
            [1.0 if "fallback" in block else 0.0 for block in via_frontier]
        ),
        "frontier.hedge_ratio": mean([float(b.get("hedges", 0)) for b in via_frontier]),
        "frontier.failovers": float(sum(b.get("failovers", 0) for b in via_frontier)),
        "ingest.client_ms.p50": median([o.latency * 1e3 for o in writes]),
        "ingest.client_ms.p95": tail([o.latency * 1e3 for o in writes], q),
        "ingest.commit_ms.p50": median(s.ms("ingest.commit")),
        "ingest.commit_ms.p95": tail(s.ms("ingest.commit"), q),
        "live.prepare_ms.p50": median(s.ms("live.prepare")),
        "live.commit_ms.p50": median(s.ms("live.commit")),
        "wal.append_ms.p50": median(s.ms("wal.append")),
        "wal.append_ms.p95": tail(s.ms("wal.append"), q),
        "wal.bytes_per_user_byte": wal_bytes / acked_user_bytes if acked_user_bytes else 0.0,
        "compactor.runs": float(len(s.named("compactor.compact"))),
        "compactor.busy_ms": float(sum(s.ms("compactor.compact"))),
        "replication.ship_ms.p50": median(s.ms("replication.ship")),
        "replication.ship_ms.p95": tail(s.ms("replication.ship"), q),
        "replication.ship_failed": _sum_field(all_outcomes, "replication", "failed"),
        "replication.lag_max": float(max(lag, default=0.0)),
    }
