"""Immutable, sorted sets of regions with set-at-a-time operators.

:class:`RegionSet` is the carrier type of the region algebra
(Definition 2.2/2.3).  Internally a set is a *struct of arrays*: two
parallel int lists ``_lefts``/``_rights`` sorted by ``(left, right)``
with duplicates removed.  That flat layout is what the PAT engine's
efficiency rests on — every structural semi-join below runs in
``O((n + m) log m)`` using binary search plus prefix/suffix extreme
tables, and the :mod:`repro.vm` kernels consume the arrays directly
without touching per-region Python objects.

The tuple of :class:`Region` objects (the *object view*) is materialised
lazily on first access through :attr:`regions` / iteration, so existing
region-at-a-time callers keep working unchanged while array-to-array
pipelines never pay for it.

Two implementations of each structural operator are provided:

* the *indexed* ones (``including``, ``included_in``, ``preceding``,
  ``following``) used by the production evaluator, and
* ``*_naive`` variants that transcribe Definition 2.3 literally and serve
  as the semantic oracle for the test suite.

The correctness argument for the indexed containment joins: with ``S``
sorted by left endpoint, ``r ⊃ s`` holds for some ``s ∈ S`` iff

* (A) some ``s`` has ``left(s) > left(r)`` and ``right(s) <= right(r)``, or
* (B) some ``s`` has ``left(s) >= left(r)`` and ``right(s) < right(r)``,

and each disjunct asks whether the *minimum* right endpoint over a suffix
of the sorted order clears a threshold — a suffix-minimum query.  The
``⊂`` join is symmetric with prefix-maximum queries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator

from repro.core.region import Region

__all__ = ["RegionSet"]


def _suffix_min(values: list[int]) -> list[int]:
    """``out[i] = min(values[i:])``; one extra sentinel at the end."""
    out = [0] * (len(values) + 1)
    out[len(values)] = _POS_INF
    for i in range(len(values) - 1, -1, -1):
        out[i] = values[i] if values[i] < out[i + 1] else out[i + 1]
    return out


def _prefix_max(values: list[int]) -> list[int]:
    """``out[i] = max(values[:i])``; ``out[0]`` is a sentinel."""
    out = [0] * (len(values) + 1)
    out[0] = _NEG_INF
    for i, v in enumerate(values):
        out[i + 1] = v if v > out[i] else out[i]
    return out


def _layer_peel(lefts: list[int], rights: list[int]) -> tuple[list[int], list[int]]:
    """One array sweep computing ``R - (R ⊂ R)`` over sorted endpoint arrays.

    Walking in ``(left, right)`` order, a region is outermost iff its
    right endpoint exceeds every right endpoint seen at strictly smaller
    lefts (a later region can never include an earlier one), and within a
    run of equal lefts only the last — maximal-right — element can be
    outermost (it strictly includes the rest of the run).
    """
    out_l: list[int] = []
    out_r: list[int] = []
    n = len(lefts)
    best = _NEG_INF  # max right endpoint over strictly smaller lefts
    i = 0
    while i < n:
        left = lefts[i]
        j = i
        while j + 1 < n and lefts[j + 1] == left:
            j += 1
        right = rights[j]
        if right > best:
            out_l.append(left)
            out_r.append(right)
            best = right
        i = j + 1
    return out_l, out_r


_POS_INF = float("inf")
_NEG_INF = float("-inf")


class RegionSet:
    """An immutable set of :class:`Region` kept in ``(left, right)`` order.

    Construction deduplicates and sorts; all operators return new sets.
    Instances are hashable and comparable, so they can be used as oracle
    values in property-based tests.
    """

    __slots__ = ("_regions", "_lefts", "_rights", "_suffix_min_right", "_prefix_max_right")

    def __init__(self, regions: Iterable[Region] = ()):
        items = sorted(set(regions))
        self._regions: tuple[Region, ...] | None = tuple(items)
        self._lefts: list[int] = [r.left for r in items]
        self._rights: list[int] = [r.right for r in items]
        # Extreme tables are built lazily: most intermediate results are
        # consumed by set operations that never need them.
        self._suffix_min_right: list[int] | None = None
        self._prefix_max_right: list[int] | None = None

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "RegionSet":
        return _EMPTY

    @classmethod
    def _from_sorted(cls, regions: list[Region]) -> "RegionSet":
        """Wrap a list already in ``(left, right)`` order with no duplicates.

        The shard merge and the live-ingestion append path both produce
        exactly that (per-shard results are sorted and span-disjoint;
        appended regions all lie strictly after the existing set), so
        this skips the ``sorted(set(...))`` of ``__init__``.  Callers
        must uphold the invariant.
        """
        out = cls.__new__(cls)
        out._regions = tuple(regions)
        out._lefts = [r.left for r in regions]
        out._rights = [r.right for r in regions]
        out._suffix_min_right = None
        out._prefix_max_right = None
        return out

    @classmethod
    def _from_arrays(cls, lefts: list[int], rights: list[int]) -> "RegionSet":
        """Wrap parallel endpoint arrays already sorted and duplicate-free.

        This is the :mod:`repro.vm` kernel output path: no Region objects
        are created until someone asks for the object view.  Callers must
        uphold the ``(left, right)``-sorted, no-duplicates invariant.
        """
        out = cls.__new__(cls)
        out._regions = None
        out._lefts = lefts
        out._rights = rights
        out._suffix_min_right = None
        out._prefix_max_right = None
        return out

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "RegionSet":
        """Build a set from ``(left, right)`` tuples — test/demo shorthand."""
        return cls(Region(left, right) for left, right in pairs)

    # ------------------------------------------------------------------
    # Container protocol.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lefts)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __contains__(self, region: object) -> bool:
        if not isinstance(region, Region):
            return False
        lefts = self._lefts
        rights = self._rights
        n = len(lefts)
        i = bisect_left(lefts, region.left)
        # Within a run of equal lefts the rights are ascending.
        while i < n and lefts[i] == region.left:
            if rights[i] == region.right:
                return True
            if rights[i] > region.right:
                return False
            i += 1
        return False

    def __bool__(self) -> bool:
        return bool(self._lefts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionSet):
            return NotImplemented
        return self._lefts == other._lefts and self._rights == other._rights

    def __hash__(self) -> int:
        return hash((tuple(self._lefts), tuple(self._rights)))

    def __repr__(self) -> str:  # pragma: no cover - display helper
        regions = self.regions
        inner = ", ".join(str(r) for r in regions[:8])
        if len(regions) > 8:
            inner += f", … ({len(regions)} total)"
        return f"RegionSet({inner})"

    @property
    def regions(self) -> tuple[Region, ...]:
        """The regions in canonical ``(left, right)`` order.

        Materialised lazily from the endpoint arrays: sets produced by
        the array kernels never build Region objects unless a caller
        actually walks them.
        """
        if self._regions is None:
            self._regions = tuple(map(Region, self._lefts, self._rights))
        return self._regions

    def pairs(self) -> list[list[int]]:
        """``[[left, right], ...]`` in set order, read straight from the
        endpoint arrays (the JSON wire form of a result)."""
        return [[left, right] for left, right in zip(self._lefts, self._rights)]

    # ------------------------------------------------------------------
    # Set-theoretic operations (Definition 2.3, first group).
    # ------------------------------------------------------------------

    def union(self, other: "RegionSet") -> "RegionSet":
        if not other:
            return self
        if not self:
            return other
        return RegionSet(self.regions + other.regions)

    def intersection(self, other: "RegionSet") -> "RegionSet":
        if not self or not other:
            return _EMPTY
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return RegionSet(r for r in small if r in large)

    def difference(self, other: "RegionSet") -> "RegionSet":
        if not self:
            return _EMPTY
        if not other:
            return self
        return RegionSet(r for r in self if r not in other)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # ------------------------------------------------------------------
    # Indexed structural semi-joins (Definition 2.3, second group).
    # ------------------------------------------------------------------

    def _ensure_suffix_min(self) -> list[int]:
        if self._suffix_min_right is None:
            self._suffix_min_right = _suffix_min(self._rights)
        return self._suffix_min_right

    def _ensure_prefix_max(self) -> list[int]:
        if self._prefix_max_right is None:
            self._prefix_max_right = _prefix_max(self._rights)
        return self._prefix_max_right

    def _contains_region_inside(self, r: Region) -> bool:
        """Does this set contain some ``s`` with ``r ⊃ s``?"""
        suffix = self._ensure_suffix_min()
        # (A) left(s) > left(r) and right(s) <= right(r)
        i = bisect_right(self._lefts, r.left)
        if suffix[i] <= r.right:
            return True
        # (B) left(s) >= left(r) and right(s) < right(r)
        j = bisect_left(self._lefts, r.left)
        return suffix[j] < r.right

    def _contains_region_outside(self, r: Region) -> bool:
        """Does this set contain some ``s`` with ``r ⊂ s``?"""
        prefix = self._ensure_prefix_max()
        # (A) left(s) < left(r) and right(s) >= right(r)
        i = bisect_left(self._lefts, r.left)
        if prefix[i] >= r.right:
            return True
        # (B) left(s) <= left(r) and right(s) > right(r)
        j = bisect_right(self._lefts, r.left)
        return prefix[j] > r.right

    def including(self, other: "RegionSet") -> "RegionSet":
        """``R ⊃ S = {r ∈ R : ∃ s ∈ S, r ⊃ s}``."""
        if not self or not other:
            return _EMPTY
        return RegionSet(r for r in self if other._contains_region_inside(r))

    def included_in(self, other: "RegionSet") -> "RegionSet":
        """``R ⊂ S = {r ∈ R : ∃ s ∈ S, r ⊂ s}``."""
        if not self or not other:
            return _EMPTY
        return RegionSet(r for r in self if other._contains_region_outside(r))

    def preceding(self, other: "RegionSet") -> "RegionSet":
        """``R < S = {r ∈ R : ∃ s ∈ S, r < s}``.

        ``r < s`` means ``right(r) < left(s)``, so ``r`` qualifies exactly
        when the *maximum* left endpoint in ``S`` exceeds ``right(r)``.
        """
        if not self or not other:
            return _EMPTY
        max_left = other._lefts[-1]
        return RegionSet(r for r in self if r.right < max_left)

    def following(self, other: "RegionSet") -> "RegionSet":
        """``R > S = {r ∈ R : ∃ s ∈ S, r > s}``.

        ``r`` qualifies exactly when the *minimum* right endpoint in ``S``
        is below ``left(r)``.
        """
        if not self or not other:
            return _EMPTY
        min_right = min(other._rights)
        return RegionSet(r for r in self if min_right < r.left)

    # ------------------------------------------------------------------
    # Naive oracle variants (Definition 2.3 transcribed literally).
    # ------------------------------------------------------------------

    def _semi_join_naive(
        self, other: "RegionSet", predicate: Callable[[Region, Region], bool]
    ) -> "RegionSet":
        return RegionSet(
            r for r in self if any(predicate(r, s) for s in other)
        )

    def including_naive(self, other: "RegionSet") -> "RegionSet":
        return self._semi_join_naive(other, Region.includes)

    def included_in_naive(self, other: "RegionSet") -> "RegionSet":
        return self._semi_join_naive(other, Region.included_in)

    def preceding_naive(self, other: "RegionSet") -> "RegionSet":
        return self._semi_join_naive(other, Region.precedes)

    def following_naive(self, other: "RegionSet") -> "RegionSet":
        return self._semi_join_naive(other, Region.follows)

    # ------------------------------------------------------------------
    # Selection and misc helpers.
    # ------------------------------------------------------------------

    def select(self, predicate: Callable[[Region], bool]) -> "RegionSet":
        """Keep the regions satisfying ``predicate`` (used for ``σ_p``)."""
        return RegionSet(r for r in self if predicate(r))

    def spanning(self, position: int) -> "RegionSet":
        """The regions containing text position ``position``."""
        return RegionSet(r for r in self if r.contains_point(position))

    def top_layer(self) -> "RegionSet":
        """``R - (R ⊂ R)``: the maximal (outermost) regions of the set.

        This is the layer-peeling step of the Section 6 while-programs,
        computed with a single O(n) sweep over the endpoint arrays.
        """
        if not self:
            return _EMPTY
        lefts, rights = _layer_peel(self._lefts, self._rights)
        return RegionSet._from_arrays(lefts, rights)

    def max_nesting_depth(self) -> int:
        """Length of the longest chain of strictly nested regions in the set.

        Computed with a stack sweep over ``(left, -right)`` order, which
        visits every enclosing region before the regions it includes.
        """
        depth = 0
        stack: list[Region] = []
        for r in sorted(self.regions, key=lambda t: (t.left, -t.right)):
            while stack and not stack[-1].includes(r):
                stack.pop()
            stack.append(r)
            depth = max(depth, len(stack))
        return depth


_EMPTY = RegionSet()
