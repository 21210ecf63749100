"""Word indexes: the predicate ``W(r, p)`` of Definition 2.1.

Two interchangeable implementations are provided behind the small
:class:`WordIndex` protocol:

* :class:`TextWordIndex` — built from tokenized text; ``W(r, p)`` holds
  when some occurrence of a token matching ``p`` lies (non-strictly)
  inside ``r``.  This is the index a real engine maintains.
* :class:`LabelWordIndex` — an explicit labelling of regions with the
  pattern strings they satisfy.  The theory of Sections 3-5 treats the
  word index abstractly (Def 3.2 condition 4), and the synthetic
  instances used by the counter-example constructions and generators
  need exactly this freedom.

Both support :meth:`~WordIndex.matches` (one region) and
:meth:`~WordIndex.select` (``σ_p`` over a whole region set); the
text-backed index additionally exposes the *match points* of a pattern
(the entries of the PAT word index) as a :class:`~repro.core.RegionSet`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterable, Mapping, Protocol, runtime_checkable

from repro.core.patterns import LiteralPattern, PrefixPattern, parse_pattern
from repro.core.region import Region
from repro.core.regionset import RegionSet

__all__ = ["WordIndex", "TextWordIndex", "LabelWordIndex", "Token", "tokenize"]


Token = tuple[str, int, int]
"""A token occurrence: ``(text, left, right)`` with inclusive endpoints."""


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into maximal runs of non-space characters.

    Positions are character offsets; a token occupies the inclusive span of
    its characters.  This is deliberately simple — structured-document
    parsers in :mod:`repro.engine` pre-process markup before tokenizing.
    """
    tokens: list[Token] = []
    start: int | None = None
    for i, ch in enumerate(text):
        if ch.isspace():
            if start is not None:
                tokens.append((text[start:i], start, i - 1))
                start = None
        elif start is None:
            start = i
    if start is not None:
        tokens.append((text[start:], start, len(text) - 1))
    return tokens


def _suffix_min(values: list[int]) -> list[int]:
    """``out[i] = min(values[i:])`` (no sentinel)."""
    out = values[:]
    for i in range(len(out) - 2, -1, -1):
        if out[i + 1] < out[i]:
            out[i] = out[i + 1]
    return out


@runtime_checkable
class WordIndex(Protocol):
    """The interface the evaluators need: the predicate ``W``, one
    region at a time and set-at-a-time."""

    def matches(self, region: Region, pattern: str) -> bool:
        """``W(region, pattern)`` — does the region satisfy the pattern?"""
        ...

    def select(self, region_set: RegionSet, pattern: str) -> RegionSet:
        """``σ_p``: the members of ``region_set`` satisfying ``pattern``."""
        ...


class TextWordIndex:
    """An inverted index over token occurrences in a text.

    ``matches(r, p)`` asks whether *some* occurrence of a token matching
    ``p`` lies inside ``r``.  Occurrences of each distinct token are kept
    sorted by left endpoint with a suffix-minimum table of right
    endpoints, so each containment probe is ``O(log n)``, and
    :meth:`select` answers a whole sorted region set in one forward
    sweep over those arrays.
    """

    def __init__(self, tokens: Iterable[Token]):
        by_token: dict[str, list[tuple[int, int]]] = {}
        for text, left, right in tokens:
            by_token.setdefault(text, []).append((left, right))
        self._occurrences: dict[str, tuple[list[int], list[int], list[int]]] = {}
        for text, occs in by_token.items():
            occs.sort()
            rights = [r for _, r in occs]
            self._occurrences[text] = (
                [l for l, _ in occs],
                rights,
                _suffix_min(rights),
            )
        self._vocabulary = sorted(self._occurrences)

    @classmethod
    def from_text(cls, text: str) -> "TextWordIndex":
        return cls(tokenize(text))

    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> list[str]:
        """The distinct tokens, sorted."""
        return list(self._vocabulary)

    def _matching_tokens(self, pattern: str) -> list[str]:
        parsed = parse_pattern(pattern)
        if isinstance(parsed, LiteralPattern):
            return [pattern] if pattern in self._occurrences else []
        # Prefix patterns can use the sorted vocabulary directly.
        if isinstance(parsed, PrefixPattern):
            lo = bisect_left(self._vocabulary, parsed.prefix)
            hi = bisect_left(self._vocabulary, parsed.prefix + "￿")
            return self._vocabulary[lo:hi]
        return [t for t in self._vocabulary if parsed.matches_token(t)]

    def _occurrence_arrays(self, tokens: list[str]) -> tuple[list[int], list[int]]:
        """The ``(lefts, rights)`` of every occurrence of ``tokens``,
        sorted by ``(left, right)``.  One token's stored lists are
        returned as they are; several are merged."""
        if len(tokens) == 1:
            lefts, rights, _ = self._occurrences[tokens[0]]
            return lefts, rights
        merged = sorted(
            chain.from_iterable(
                zip(*self._occurrences[token][:2]) for token in tokens
            )
        )
        return [l for l, _ in merged], [r for _, r in merged]

    def match_points(self, pattern: str) -> RegionSet:
        """All occurrence regions of tokens matching ``pattern``.

        These are the PAT *match points* — usable as an ordinary region
        set operand (e.g. for proximity queries with ``<`` and ``>``).
        Built straight from the occurrence arrays.
        """
        tokens = self._matching_tokens(pattern)
        if not tokens:
            return RegionSet.empty()
        lefts, rights = self._occurrence_arrays(tokens)
        out_l: list[int] = []
        out_r: list[int] = []
        last_l = last_r = None
        for left, right in zip(lefts, rights):
            if left != last_l or right != last_r:
                out_l.append(left)
                out_r.append(right)
                last_l, last_r = left, right
        return RegionSet._from_arrays(out_l, out_r)

    def select(self, region_set: RegionSet, pattern: str) -> RegionSet:
        """``σ_p(R)``: keep each ``r ∈ R`` holding an occurrence of a
        token matching ``pattern``, without building any Region.

        The matching tokens are resolved once; several are merged into
        one occurrence list.  ``r`` qualifies iff the minimum right
        endpoint over occurrences with ``left >= left(r)`` is at most
        ``right(r)`` — the achiever then lies inside ``r``
        (non-strictly).  ``R``'s lefts ascend, so the bisect resumes
        where the previous one ended, and the output is a subsequence
        of ``R`` that needs no sort.
        """
        lefts = region_set._lefts
        if not lefts:
            return region_set
        tokens = self._matching_tokens(pattern)
        if not tokens:
            return RegionSet.empty()
        if len(tokens) == 1:
            occ_lefts, _, suffix = self._occurrences[tokens[0]]
        else:
            occ_lefts, occ_rights = self._occurrence_arrays(tokens)
            suffix = _suffix_min(occ_rights)
        m = len(occ_lefts)
        out_l: list[int] = []
        out_r: list[int] = []
        j = 0
        for left, right in zip(lefts, region_set._rights):
            j = bisect_left(occ_lefts, left, j)
            if j == m:
                break
            if suffix[j] <= right:
                out_l.append(left)
                out_r.append(right)
        if len(out_l) == len(lefts):
            return region_set
        return RegionSet._from_arrays(out_l, out_r)

    def matches(self, region: Region, pattern: str) -> bool:
        """``W(region, pattern)``: an occurrence lies inside ``region``."""
        for token in self._matching_tokens(pattern):
            lefts, _, suffix = self._occurrences[token]
            i = bisect_left(lefts, region.left)
            hi = bisect_right(lefts, region.right)
            if i < hi and suffix[i] <= region.right:
                return True
        return False

    def extended(self, tokens: Iterable[Token]) -> "TextWordIndex":
        """A new index with ``tokens`` appended *after* every existing
        occurrence (every new left endpoint must be strictly greater
        than every existing one).

        This is the segment-append fast path of live ingestion: because
        the new occurrences sit wholly to the right, the per-token
        sorted lists extend in place and every existing suffix-minimum
        value is already correct (``min`` over a suffix cannot drop when
        only larger right endpoints are appended).  Untouched tokens
        share their occurrence tuples with ``self``; the result is a
        fully independent, immutable index built in
        ``O(new tokens + touched vocabulary)``.
        """
        by_token: dict[str, list[tuple[int, int]]] = {}
        for text, left, right in tokens:
            by_token.setdefault(text, []).append((left, right))
        clone = TextWordIndex.__new__(TextWordIndex)
        clone._occurrences = dict(self._occurrences)
        fresh = []
        for text, occs in by_token.items():
            occs.sort()
            existing = clone._occurrences.get(text)
            if existing is not None and (
                occs[0][0] <= existing[0][-1]
                or min(r for _, r in occs) < existing[1][-1]
            ):
                raise ValueError(
                    f"extended() occurrence of {text!r} at {occs[0][0]} is "
                    "not after the existing occurrences"
                )
            rights = [r for _, r in occs]
            suffix = _suffix_min(rights)
            if existing is None:
                clone._occurrences[text] = (
                    [l for l, _ in occs],
                    rights,
                    suffix,
                )
                fresh.append(text)
            else:
                old_lefts, old_rights, old_suffix = existing
                clone._occurrences[text] = (
                    old_lefts + [l for l, _ in occs],
                    old_rights + rights,
                    old_suffix + suffix,
                )
        if fresh:
            vocabulary = sorted(self._vocabulary + fresh)
        else:
            vocabulary = self._vocabulary
        clone._vocabulary = vocabulary
        return clone


class LabelWordIndex:
    """An abstract word index: an explicit region → pattern-set labelling.

    This realizes the paper's view of ``W`` as an arbitrary boolean
    predicate over (region, pattern) pairs.  Regions absent from the
    mapping satisfy no pattern.
    """

    def __init__(self, labels: Mapping[Region, Iterable[str]] | None = None):
        self._labels: dict[Region, frozenset[str]] = {}
        if labels:
            for region, patterns in labels.items():
                self._labels[region] = frozenset(patterns)

    def matches(self, region: Region, pattern: str) -> bool:
        return pattern in self._labels.get(region, frozenset())

    def select(self, region_set: RegionSet, pattern: str) -> RegionSet:
        """``σ_p(R)`` by the per-region label test (the labelling is
        keyed by Region); the output is a subsequence of ``R``."""
        labels = self._labels
        out_l: list[int] = []
        out_r: list[int] = []
        for region in region_set:
            if pattern in labels.get(region, ()):
                out_l.append(region.left)
                out_r.append(region.right)
        return RegionSet._from_arrays(out_l, out_r)

    def labels_of(self, region: Region) -> frozenset[str]:
        return self._labels.get(region, frozenset())

    def with_label(self, region: Region, pattern: str) -> "LabelWordIndex":
        """A copy with ``pattern`` added to ``region``'s label set."""
        labels = dict(self._labels)
        labels[region] = labels.get(region, frozenset()) | {pattern}
        return LabelWordIndex(labels)

    def restricted_to(self, regions: Iterable[Region]) -> "LabelWordIndex":
        """A copy keeping only the labels of the given regions."""
        keep = set(regions)
        return LabelWordIndex(
            {r: pats for r, pats in self._labels.items() if r in keep}
        )

    def renamed(self, mapping: Mapping[Region, Region]) -> "LabelWordIndex":
        """A copy with regions translated through ``mapping``."""
        return LabelWordIndex(
            {mapping.get(r, r): pats for r, pats in self._labels.items()}
        )

    def items(self) -> list[tuple[Region, frozenset[str]]]:
        return sorted(self._labels.items(), key=lambda kv: kv[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelWordIndex):
            return NotImplemented
        mine = {r: p for r, p in self._labels.items() if p}
        theirs = {r: p for r, p in other._labels.items() if p}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset((r, p) for r, p in self._labels.items() if p))
