"""The determinism check: one seed gives one request stream and one set
of per-run counts.

The open-loop stream of ``hot-small`` is drawn twice and must hash the
same.  It is then replayed twice, one request at a time, against a fresh
traced server each time, and three counts must agree exactly:
``parser.calls_per_request``, ``http.response_bytes.mean`` and
``cache.hit_ratio``.  The replay is sequential because concurrent
requests for one text may both miss the cache, which is a property of
timing, not of the seed.  Each request goes on a new connection, so the
replay does not wait on the delayed-ACK stall of a keep-alive one.
"""

from __future__ import annotations

import shutil
from dataclasses import replace
from time import perf_counter

from load import Connection, Outcome
from layers import RequestSpans, answer_bytes, mean
from spans import load_spans

WORKLOAD = "hot-small"
#: The stream is the open loop of a run of this length.
SECONDS = 30.0


def replay(seed: int) -> tuple[str, dict[str, float]]:
    """The stream digest and the counts of one sequential replay."""
    import run

    drawn = run.plan(WORKLOAD, seed, SECONDS)
    requests = [replace(request, due=0.0) for request in drawn["open_reads"]]
    run_dir = run.ROOT / ".perfbench" / f"determinism-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spans_path = run_dir / "spans.json"
    settings = run._server_settings(drawn["workload"], run_dir / "wal")
    server = run.ServerProcess(settings, spans_path)
    outcomes = []
    try:
        for index, request in enumerate(requests):
            connection = Connection(run.HOST, server.port)
            sent = perf_counter()
            status, payload = connection.send(request)
            connection.close()
            outcomes.append(
                Outcome(index, request, sent, sent, perf_counter(), status, payload)
            )
    finally:
        server.stop()
    spans = load_spans(str(spans_path))
    shutil.rmtree(run_dir, ignore_errors=True)
    ok = [outcome for outcome in outcomes if outcome.status == 200]
    counts = {
        "answered": float(len(ok)),
        "parser.calls_per_request": RequestSpans(
            spans, (float("-inf"), float("inf"))
        ).per_query_request("parser.parse"),
        "http.response_bytes.mean": mean([answer_bytes(o) for o in ok]),
        "cache.hit_ratio": mean([1.0 if o.reply()["cached"] else 0.0 for o in ok]),
    }
    return drawn["digest"], counts


def check(seed: int) -> list[str]:
    """Problems found (empty when the seed is deterministic)."""
    import run

    problems = []
    first_plan = run.plan(WORKLOAD, seed, SECONDS)["digest"]
    if run.plan(WORKLOAD, seed, SECONDS)["digest"] != first_plan:
        problems.append("two draws of one seed gave different request streams")
    first_digest, first = replay(seed)
    second_digest, second = replay(seed)
    if first_digest != second_digest:
        problems.append("the replayed streams differ")
    for name, value in first.items():
        print(f"#   {name:28s} {value!r:>22} {second[name]!r:>22}")
        if second[name] != value:
            problems.append(f"{name}: {value!r} then {second[name]!r}")
    return problems
