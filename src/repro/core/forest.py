"""The direct-inclusion forest of a hierarchical region collection.

Section 3 of the paper observes that a hierarchical instance, viewed
through the relations the algebra can test (inclusion and precedence),
is an ordered forest: *direct inclusion* (no region strictly in between)
is the parent relation, and precedence is the sibling/document order.
This module materializes that forest once per instance and answers the
structural questions the rest of the library needs:

* ``parent_of`` / ``children_of`` / ``ancestors_of`` / ``subtree_of``,
* the *direct* operators ``⊃_d``/``⊂_d`` of Section 5.1 (a region
  directly includes another iff it is its parent here), run over the
  operands' endpoint arrays,
* the layer decomposition used by the Section 6 while-programs,
* pre-order numbering, which later becomes the ``{0,1}*`` embedding of
  the FMFT models (Definition 3.2).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import Iterable, Iterator

from repro.core.region import Region
from repro.core.regionset import RegionSet

__all__ = ["Forest"]


def _preorder_key(region: Region) -> tuple[int, int]:
    return (region.left, -region.right)


def _includes(left: int, right: int, inner_left: int, inner_right: int) -> bool:
    """``[left, right] ⊃ [inner_left, inner_right]`` (strict, Def 2.3)."""
    return (left < inner_left and right >= inner_right) or (
        left <= inner_left and right > inner_right
    )


class Forest:
    """An ordered forest over regions, built with a single stack sweep.

    Regions are numbered in pre-order; ``_index`` maps a region's
    ``(left, right)`` endpoint pair to its number, so the array kernels
    look positions up straight from a set's ``_lefts``/``_rights``
    without building or hashing :class:`Region` objects.
    """

    __slots__ = ("_order", "_parent", "_children", "_index", "_depth")

    def __init__(
        self,
        order: tuple[Region, ...],
        parent: list[int | None],
        children: list[list[int]],
    ):
        self._order = order
        self._parent = parent
        self._children = children
        self._index = {(r.left, r.right): i for i, r in enumerate(order)}
        self._depth: list[int] = [0] * len(order)
        for i, p in enumerate(parent):
            self._depth[i] = 0 if p is None else self._depth[p] + 1

    @classmethod
    def from_regions(cls, regions: Iterable[Region]) -> "Forest":
        """Build the forest for a hierarchical collection of regions.

        Sorting by ``(left, -right)`` visits regions in pre-order: every
        region appears after all its ancestors, so a stack of currently
        open regions yields each region's parent directly.
        """
        order = tuple(sorted(regions, key=lambda r: (r.left, -r.right)))
        parent: list[int | None] = [None] * len(order)
        children: list[list[int]] = [[] for _ in order]
        stack: list[int] = []
        for i, region in enumerate(order):
            while stack and not order[stack[-1]].includes(region):
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                children[stack[-1]].append(i)
            stack.append(i)
        return cls(order, parent, children)

    def appended(self, regions: Iterable[Region]) -> "Forest":
        """A new forest with ``regions`` appended *after* every existing
        region (the caller guarantees every new left endpoint lies past
        every existing right endpoint, as :meth:`Instance.appended`
        validates).

        No new region can attach below an existing one, so the old
        ``parent``/``children``/``depth`` entries are reused verbatim
        (the shared child lists are never mutated — appended regions
        only ever parent other appended regions) and the stack sweep
        runs over the new suffix alone.  This keeps the live-ingestion
        commit path's forest warm-up proportional to the new segment
        instead of the whole corpus.
        """
        new_order = sorted(regions, key=lambda r: (r.left, -r.right))
        if not new_order:
            return self
        base = len(self._order)
        order = self._order + tuple(new_order)
        parent = list(self._parent)
        children = list(self._children)
        index = dict(self._index)
        depth = list(self._depth)
        stack: list[int] = []
        for offset, region in enumerate(new_order):
            i = base + offset
            while stack and not order[stack[-1]].includes(region):
                stack.pop()
            if stack:
                parent.append(stack[-1])
                children[stack[-1]].append(i)
                depth.append(depth[stack[-1]] + 1)
            else:
                parent.append(None)
                depth.append(0)
            children.append([])
            index[(region.left, region.right)] = i
            stack.append(i)
        clone = Forest.__new__(Forest)
        clone._order = order
        clone._parent = parent
        clone._children = children
        clone._index = index
        clone._depth = depth
        return clone

    # ------------------------------------------------------------------
    # Basic structure.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, region: object) -> bool:
        return isinstance(region, Region) and (
            (region.left, region.right) in self._index
        )

    def _position(self, region: Region) -> int:
        """The pre-order number of ``region`` (``KeyError`` if absent)."""
        return self._index[(region.left, region.right)]

    def _positions(self, region_set: RegionSet) -> Iterator[int | None]:
        """Pre-order numbers of a set's members (``None`` where absent),
        in the set's order."""
        return map(self._index.get, zip(region_set._lefts, region_set._rights))

    @property
    def preorder(self) -> tuple[Region, ...]:
        """All regions in pre-order (document order, outermost first)."""
        return self._order

    def roots(self) -> list[Region]:
        return [r for i, r in enumerate(self._order) if self._parent[i] is None]

    def parent_of(self, region: Region) -> Region | None:
        """The region that *directly includes* ``region``, if any."""
        p = self._parent[self._position(region)]
        return None if p is None else self._order[p]

    def children_of(self, region: Region) -> list[Region]:
        """The regions directly included in ``region``, in document order."""
        return [self._order[c] for c in self._children[self._position(region)]]

    def depth_of(self, region: Region) -> int:
        """Root regions have depth 0."""
        return self._depth[self._position(region)]

    def ancestors_of(self, region: Region) -> list[Region]:
        """Proper ancestors, innermost first."""
        out: list[Region] = []
        p = self._parent[self._position(region)]
        while p is not None:
            out.append(self._order[p])
            p = self._parent[p]
        return out

    def subtree_of(self, region: Region) -> list[Region]:
        """``region`` and everything it includes, in pre-order."""
        out: list[Region] = []
        stack = [self._position(region)]
        while stack:
            i = stack.pop()
            out.append(self._order[i])
            stack.extend(reversed(self._children[i]))
        return out

    def descendants_of(self, region: Region) -> list[Region]:
        """Everything strictly included in ``region``, in pre-order."""
        return self.subtree_of(region)[1:]

    def sibling_rank(self, region: Region) -> int:
        """Position among the region's siblings (0-based, document order)."""
        i = self._position(region)
        p = self._parent[i]
        siblings = (
            [j for j, q in enumerate(self._parent) if q is None]
            if p is None
            else self._children[p]
        )
        return siblings.index(i)

    def child_path(self, region: Region) -> tuple[int, ...]:
        """Sibling ranks from the root down to ``region``.

        This is the path that the FMFT embedding encodes into ``{0,1}*``.
        """
        chain = [region] + self.ancestors_of(region)
        return tuple(self.sibling_rank(r) for r in reversed(chain))

    def iter_edges(self) -> Iterator[tuple[Region, Region]]:
        """All (parent, child) direct-inclusion pairs."""
        for i, p in enumerate(self._parent):
            if p is not None:
                yield self._order[p], self._order[i]

    # ------------------------------------------------------------------
    # Direct operators (Section 5.1) and layers (Section 6).
    # ------------------------------------------------------------------

    def _enclosing(self, left: int, right: int) -> int | None:
        """The position of the innermost region strictly including
        ``[left, right]``, a region that is not in the forest (a match
        point), or ``None``.

        The region just before it in pre-order lies in that includer's
        subtree (or is the includer), so walking up its ancestors finds
        the includer in O(depth) after one bisect.
        """
        order, parent = self._order, self._parent
        before = bisect_left(order, (left, -right), key=_preorder_key) - 1
        p = before if before >= 0 else None
        while p is not None:
            if _includes(order[p].left, order[p].right, left, right):
                return p
            p = parent[p]
        return None

    def _innermost(self, region_set: RegionSet) -> list[int | None]:
        """For each member of ``region_set``, in order, the position of
        the innermost forest region strictly including it: the parent of
        a forest region, the enclosing region of any other."""
        parent = self._parent
        return [
            parent[i] if i is not None else self._enclosing(left, right)
            for left, right, i in zip(
                region_set._lefts, region_set._rights, self._positions(region_set)
            )
        ]

    def _directly(
        self, left: int, right: int, inner_left: int, inner_right: int, p: int | None
    ) -> bool:
        """Does ``[left, right]`` directly include ``[inner_left,
        inner_right]``, given ``p``, the position of the innermost forest
        region strictly including the inner one?  Every other forest
        includer of the inner region includes that one, so no forest
        region lies in between iff the outer region does not include it.
        """
        if not _includes(left, right, inner_left, inner_right):
            return False
        if p is None:
            return True
        enclosing = self._order[p]
        return not _includes(left, right, enclosing.left, enclosing.right)

    def directly_including(self, r_set: RegionSet, s_set: RegionSet) -> RegionSet:
        """``R ⊃_d S``: the R-regions that directly include some S-region.

        Direct inclusion quantifies over *all* regions of the instance
        ("no other region resides in between").  For forest regions that
        is the parent relation: ``r`` qualifies iff it is the innermost
        includer of some ``s``.  ``O(n + m)`` over the endpoint arrays;
        the output is a subsequence of ``R``, so it needs no sort.
        Operand regions outside the forest (match points) are answered
        from their innermost forest includer.
        """
        rl, rr = r_set._lefts, r_set._rights
        sl, sr = s_set._lefts, s_set._rights
        innermost = self._innermost(s_set)
        parents = set(innermost)
        parents.discard(None)
        positions = list(self._positions(r_set))
        keep = [i in parents for i in positions]
        if None in positions:
            m = len(sl)
            for k, i in enumerate(positions):
                if i is not None:
                    continue
                # Only S-members starting inside r can lie inside it.
                j = bisect_left(sl, rl[k])
                while j < m and sl[j] <= rr[k]:
                    if self._directly(rl[k], rr[k], sl[j], sr[j], innermost[j]):
                        keep[k] = True
                        break
                    j += 1
        return RegionSet._from_arrays(
            list(compress(rl, keep)), list(compress(rr, keep))
        )

    def directly_included(self, r_set: RegionSet, s_set: RegionSet) -> RegionSet:
        """``R ⊂_d S``: the R-regions directly included in some S-region.

        For forest regions: ``r`` qualifies iff its innermost includer
        (its parent) is in ``S``.  ``O(n + m)`` over the endpoint arrays,
        output a subsequence of ``R``.  Operand regions outside the
        forest are answered from their innermost forest includer.
        """
        rl, rr = r_set._lefts, r_set._rights
        targets = set(self._positions(s_set))
        outsiders = None in targets
        targets.discard(None)
        innermost = self._innermost(r_set)
        keep = [p in targets for p in innermost]
        if outsiders:
            n = len(rl)
            s_positions = self._positions(s_set)
            for sl, sr, i in zip(s_set._lefts, s_set._rights, s_positions):
                if i is not None:
                    continue
                # Only R-members starting inside s can lie inside it.
                k = bisect_left(rl, sl)
                while k < n and rl[k] <= sr:
                    if not keep[k] and self._directly(
                        sl, sr, rl[k], rr[k], innermost[k]
                    ):
                        keep[k] = True
                    k += 1
        return RegionSet._from_arrays(
            list(compress(rl, keep)), list(compress(rr, keep))
        )

    def layers(self) -> list[RegionSet]:
        """Regions grouped by depth: ``layers()[0]`` is the outermost layer.

        The Section 6 programs peel these layers one at a time; the number
        of layers is the nesting depth of the instance.
        """
        if not self._order:
            return []
        buckets: list[list[Region]] = [[] for _ in range(max(self._depth) + 1)]
        for i, region in enumerate(self._order):
            buckets[self._depth[i]].append(region)
        return [RegionSet(b) for b in buckets]

    def max_depth(self) -> int:
        """The nesting depth (number of layers); 0 for an empty forest."""
        return max(self._depth) + 1 if self._order else 0
