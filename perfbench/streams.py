"""Seeded request streams: the only inputs that reach the server.

Every stream is a pure function of the workload settings and the seed,
so the same seed gives byte-identical requests (``digest``).  Each draw
uses its own ``random.Random`` keyed by seed and purpose, so adding a
phase never shifts another phase's requests.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from typing import Any

from load import Request

__all__ = [
    "corpus_spec",
    "digest",
    "read_requests",
    "read_texts",
    "write_requests",
]

CORPUS = "play"

_SPEAKERS = ("ROMEO", "JULIET", "NURSE", "TYBALT")
_WORDS = (
    "love", "night", "light", "sun", "moon", "grief", "sword", "rose",
    "tomb", "fire", "heart", "crown", "ghost", "midnight", "throne",
)


def corpus_spec(workload: dict[str, Any]) -> dict[str, Any]:
    """``CorpusSpec`` fields.  The corpus is part of the workload, not of
    the run's inputs: its seed is fixed, so every run answers the same
    queries over the same text and the run seed moves only the requests."""
    corpus = workload["corpus"]
    return {
        "name": CORPUS,
        "kind": corpus["kind"],
        "path": corpus["path"],
        "scale": corpus["scale"],
        "seed": corpus["seed"],
    }


@lru_cache(maxsize=1)
def _popularity(
    max_ops: int, patterns: tuple[str, ...], s: float
) -> tuple[list[str], list[float]]:
    """Enumerated texts in popularity order, with Zipf cumulative weights.

    The order is a fixed shuffle of the enumeration, so the hot head mixes
    cheap and costly texts and is the same for every seed; the seed only
    draws the sequence.
    """
    from repro.algebra.enumerate import enumerate_expressions
    from repro.algebra.printer import to_text
    from repro.workloads.corpora import PLAY_REGION_NAMES

    texts = [
        to_text(expr)
        for expr in enumerate_expressions(PLAY_REGION_NAMES, max_ops, patterns=patterns)
    ]
    random.Random("ranks").shuffle(texts)
    cumulative, total = [], 0.0
    for rank in range(1, len(texts) + 1):
        total += 1.0 / rank**s
        cumulative.append(total)
    return texts, cumulative


def read_texts(reads: dict[str, Any], seed: int, purpose: str, count: int) -> list[str]:
    """``count`` query texts drawn for ``purpose`` (``open``, ``closed``)."""
    rng = random.Random(f"{seed}/reads/{purpose}")
    if reads["queries"] == "enumerated":
        texts, cumulative = _popularity(
            reads["max_ops"], tuple(reads["patterns"]), reads["zipf_s"]
        )
        return rng.choices(texts, cum_weights=cumulative, k=count)
    from repro.workloads.queries import PLAY_QUERIES

    # Each text an equal share, in seeded order: the texts differ in cost
    # by several times, so a share that drifted from run to run would
    # move the median from one text's latency to the next one's.
    texts = list(PLAY_QUERIES.values())
    drawn = [texts[index % len(texts)] for index in range(count)]
    rng.shuffle(drawn)
    return drawn


def read_requests(texts: list[str], rate: float | None) -> list[Request]:
    """``POST /query`` requests, due every ``1/rate`` seconds (or all
    at once for a closed loop)."""
    return [
        Request(
            "/query",
            json.dumps({"query": text, "corpus": CORPUS}).encode(),
            due=index / rate if rate else 0.0,
            key=text,
        )
        for index, text in enumerate(texts)
    ]


def write_requests(writes: dict[str, Any], seed: int, count: int) -> list[Request]:
    """Single-op ``POST /ingest`` batches due every ``1/rate`` seconds.

    Updates and deletes name documents appended earlier in the same
    stream, so the stream is valid exactly when every earlier write was
    acknowledged.  Documents are play scenes, so every PLAY_QUERIES text
    can see them.
    """
    rng = random.Random(f"{seed}/writes")
    mix = writes["mix"]
    live: list[str] = []
    requests = []
    for serial in range(count):
        roll = rng.random()
        text = (
            f"<scene><speech><speaker> {rng.choice(_SPEAKERS)} </speaker>"
            f"<line> {' '.join(rng.choices(_WORDS, k=rng.randint(3, 8)))} </line>"
            "</speech></scene>"
        )
        if live and roll < mix["delete"]:
            op = {"op": "delete", "id": live.pop(rng.randrange(len(live)))}
        elif live and roll < mix["delete"] + mix["update"]:
            op = {"op": "update", "id": rng.choice(live), "text": text}
        else:
            op = {"op": "append", "id": f"w{seed}-{serial}", "text": text}
            live.append(op["id"])
        requests.append(
            Request(
                "/ingest",
                json.dumps({"corpus": CORPUS, "ops": [op]}).encode(),
                due=serial / writes["rate"],
                key=op,
            )
        )
    return requests


def digest(*streams: list[Request]) -> str:
    """A hash of every request body and due time, in order."""
    hasher = hashlib.sha256()
    for stream in streams:
        for request in stream:
            hasher.update(request.path.encode())
            hasher.update(request.body)
            hasher.update(f"{request.due:.9f}".encode())
        hasher.update(b"|")
    return hasher.hexdigest()
