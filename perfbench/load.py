"""The benchmark's own load generator: open and closed loops over HTTP.

Open loop (independent users): every request has a due time fixed
before the run.  Each sender thread takes the next unclaimed request,
sleeps until it is due, sends it on a fresh connection, and waits for
the whole reply.  Latency runs from the due time, so a stall that delays
the requests queued behind it shows in their latency.  *Lateness* is how
long after it could have sent a request the generator actually sent it:
past the due time when the thread was idle, past the end of its previous
request when it was not.  It measures the generator, not the server.

A fresh connection per open-loop request is deliberate.  On a reused
connection the server's headers-then-body replies meet the client's
delayed ACK (a 40 ms stall per reply) or not, depending on how the
kernel has classified the connection's recent traffic; at these rates
one run of a seed stalls throughout and the next never does, so a
latency read from reused connections is bimodal from run to run.

Closed loop (callers that wait): each keep-alive connection sends its
next request as soon as the previous reply arrives, for a fixed time.
This is where the stall shows, every reply.

A refusal (429, 503) is recorded as it is and never retried.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any

__all__ = ["Connection", "Outcome", "Request", "closed_loop", "open_loop"]

_TIMEOUT = 30.0


@dataclass(frozen=True)
class Request:
    """One pre-drawn request: ``path`` (``/query`` or ``/ingest``), its
    JSON body, its due offset in seconds (open loop), and a key the
    answer check uses."""

    path: str
    body: bytes
    due: float = 0.0
    key: object = None


@dataclass
class Outcome:
    index: int
    request: Request
    due: float  #: absolute due time (open loop) or send time (closed)
    sent: float
    done: float
    status: int  #: HTTP status, or 0 for a transport failure
    payload: bytes
    lateness: float = 0.0
    _reply: Any = field(default=None, repr=False, compare=False)

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to the whole reply."""
        return self.done - self.due

    @property
    def service_time(self) -> float:
        """Seconds from send to the whole reply."""
        return self.done - self.sent

    def reply(self) -> dict[str, Any]:
        """The decoded JSON body (decoded once, after the run)."""
        if self._reply is None:
            self._reply = json.loads(self.payload)
        return self._reply


class Connection:
    """One keep-alive connection that reconnects after a failure."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._conn: http.client.HTTPConnection | None = None

    def send(self, request: Request) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=_TIMEOUT
            )
        try:
            self._conn.request(
                "POST",
                request.path,
                body=request.body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def open_loop(
    host: str,
    port: int,
    requests: list[Request],
    senders: int,
    start: float,
) -> list[Outcome]:
    """Send ``requests`` at ``start`` plus their due offsets from
    ``senders`` threads, one fresh connection per request; returns one
    outcome per request, in order."""
    outcomes: list[Outcome | None] = [None] * len(requests)
    claim = itertools.count()
    claim_lock = threading.Lock()

    def worker() -> None:
        free_at = perf_counter()
        while True:
            with claim_lock:
                index = next(claim)
            if index >= len(requests):
                return
            request = requests[index]
            due = start + request.due
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            sent = perf_counter()
            connection = Connection(host, port)
            try:
                status, payload = connection.send(request)
            finally:
                connection.close()
            done = perf_counter()
            outcomes[index] = Outcome(
                index, request, due, sent, done, status, payload,
                lateness=max(0.0, sent - max(due, free_at)),
            )
            free_at = done

    _run_threads(worker, senders)
    return [outcome for outcome in outcomes if outcome is not None]


def closed_loop(
    host: str,
    port: int,
    requests: list[Request],
    connections: int,
    seconds: float,
) -> list[Outcome]:
    """Each connection sends the next request of the shared stream as
    soon as its previous reply arrives, until ``seconds`` have passed."""
    outcomes: list[Outcome] = []
    claim = itertools.count()
    claim_lock = threading.Lock()
    end = perf_counter() + seconds

    def worker() -> None:
        connection = Connection(host, port)
        mine: list[Outcome] = []
        try:
            while True:
                sent = perf_counter()
                if sent >= end:
                    break
                with claim_lock:
                    index = next(claim)
                request = requests[index % len(requests)]
                status, payload = connection.send(request)
                mine.append(
                    Outcome(index, request, sent, sent, perf_counter(), status, payload)
                )
        finally:
            connection.close()
            with claim_lock:
                outcomes.extend(mine)

    _run_threads(worker, connections)
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes


def _run_threads(target, count: int) -> None:
    threads = [
        threading.Thread(target=target, name=f"perfbench-conn-{i}", daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
