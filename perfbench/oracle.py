"""Answer checks, run after the timed phases so they cost the load generator nothing.

The oracle is the naive Definition 2.3 evaluator over an instance the
benchmark builds itself from the same seeded corpus text.  On a write
workload the instance is a re-parse of the base text plus every
acknowledged write, applied in acknowledgement order (one writer
connection, so that is also the order the server committed them).
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from load import Outcome

__all__ = ["Oracle", "base_text"]


def base_text(corpus: dict[str, Any]) -> str:
    """The synthetic play text the server builds for this corpus spec."""
    from repro.workloads.corpora import generate_play

    scale = max(1, corpus["scale"])
    return generate_play(
        random.Random(corpus["seed"]),
        acts=scale,
        scenes_per_act=scale,
        speeches_per_scene=2 * scale,
        lines_per_speech=3,
    )


class Oracle:
    """Naive answers over one instance, memoized per query text."""

    def __init__(self, instance):
        from repro.algebra.evaluator import Evaluator

        self.instance = instance
        self._evaluator = Evaluator("naive")
        self._answers: dict[str, list[list[int]]] = {}

    @classmethod
    def for_text(cls, text: str) -> "Oracle":
        from repro.engine.tagged import parse_tagged_text

        return cls(parse_tagged_text(text).instance)

    @classmethod
    def after_writes(cls, text: str, acked_ops: Iterable[dict[str, Any]]) -> "Oracle":
        """The instance after ``acked_ops``: a full re-parse of the base
        text and the surviving documents."""
        from repro.engine.tagged import parse_tagged_text
        from repro.ingest import LiveCorpus

        live = LiveCorpus(parse_tagged_text(text).instance, text)
        for op in acked_ops:
            live.apply([op])
        return cls(live.oracle_instance())

    @property
    def regions(self) -> int:
        return len(self.instance)

    def answer(self, query: str) -> list[list[int]]:
        found = self._answers.get(query)
        if found is None:
            from repro.algebra.parser import parse

            result = self._evaluator.evaluate(parse(query), self.instance)
            found = [[region.left, region.right] for region in result]
            self._answers[query] = found
        return found

    def wrong(self, outcomes: Iterable[Outcome]) -> list[str]:
        """One line per 200 whose regions differ from the naive answer."""
        problems = []
        for outcome in outcomes:
            if outcome.status != 200:
                continue
            got = outcome.reply()["regions"]
            expected = self.answer(outcome.request.key)
            if got != expected:
                problems.append(
                    f"{outcome.request.key!r}: {len(got)} regions, "
                    f"naive evaluator gives {len(expected)}"
                )
        return problems
