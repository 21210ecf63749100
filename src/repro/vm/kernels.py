"""Set-at-a-time kernels over flat endpoint arrays.

Every kernel consumes :class:`~repro.core.regionset.RegionSet` operands,
reads their parallel ``_lefts``/``_rights`` int arrays directly, and
returns a new set via :meth:`RegionSet._from_arrays` — no per-region
Python objects are created on the hot path.  All kernels preserve the
``(left, right)``-sorted, duplicate-free invariant, so their outputs are
bit-identical to the interpreter's (the equivalence oracle).

The containment semi-joins use *galloping* (exponential) search: the
probe lefts are scanned in ascending order, so each bisect position is
monotone non-decreasing and can be found in ``O(log gap)`` from the
previous one instead of ``O(log m)`` from scratch — ``O(n + m)`` total
when the sets interleave densely, never worse than the plain bisect.

The order operators ``<`` / ``>`` fold to O(1) scalar extremes: a single
max-left (resp. min-right) bound plus one slice or filter pass.

The operators that need instance state run over the same arrays in
their owners: ``σ_p`` and match points in
:class:`~repro.core.wordindex.TextWordIndex`, ``⊃_d``/``⊂_d`` in
:class:`~repro.core.forest.Forest`.  Both-included lives here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.core.regionset import RegionSet

__all__ = [
    "gallop_left",
    "gallop_right",
    "union",
    "intersection",
    "difference",
    "including",
    "included_in",
    "preceding",
    "following",
    "both_included",
    "order_bound_preceding",
    "order_bound_following",
]


def gallop_right(arr: list[int], x: int, lo: int) -> int:
    """``bisect_right(arr, x)`` given the answer is known to be ``>= lo``.

    Doubles the step from ``lo`` until it overshoots, then bisects the
    final bracket — O(log distance) instead of O(log n).
    """
    n = len(arr)
    if lo >= n or arr[lo] > x:
        return lo
    step = 1
    prev = lo
    while lo + step < n and arr[lo + step] <= x:
        prev = lo + step
        step <<= 1
    return bisect_right(arr, x, prev + 1, min(lo + step, n))


def gallop_left(arr: list[int], x: int, lo: int) -> int:
    """``bisect_left(arr, x)`` given the answer is known to be ``>= lo``."""
    n = len(arr)
    if lo >= n or arr[lo] >= x:
        return lo
    step = 1
    prev = lo
    while lo + step < n and arr[lo + step] < x:
        prev = lo + step
        step <<= 1
    return bisect_left(arr, x, prev + 1, min(lo + step, n))


# ----------------------------------------------------------------------
# Set-theoretic kernels: linear merges over the sorted (left, right) keys.
# ----------------------------------------------------------------------

def union(a: RegionSet, b: RegionSet) -> RegionSet:
    al, ar = a._lefts, a._rights
    bl, br = b._lefts, b._rights
    if not al:
        return b
    if not bl:
        return a
    out_l: list[int] = []
    out_r: list[int] = []
    push_l, push_r = out_l.append, out_r.append
    i = j = 0
    n, m = len(al), len(bl)
    while i < n and j < m:
        la, ra = al[i], ar[i]
        lb, rb = bl[j], br[j]
        if la < lb or (la == lb and ra < rb):
            push_l(la)
            push_r(ra)
            i += 1
        elif la == lb and ra == rb:
            push_l(la)
            push_r(ra)
            i += 1
            j += 1
        else:
            push_l(lb)
            push_r(rb)
            j += 1
    out_l.extend(al[i:])
    out_r.extend(ar[i:])
    out_l.extend(bl[j:])
    out_r.extend(br[j:])
    return RegionSet._from_arrays(out_l, out_r)


def intersection(a: RegionSet, b: RegionSet) -> RegionSet:
    al, ar = a._lefts, a._rights
    bl, br = b._lefts, b._rights
    if not al or not bl:
        return RegionSet.empty()
    out_l: list[int] = []
    out_r: list[int] = []
    i = j = 0
    n, m = len(al), len(bl)
    while i < n and j < m:
        la, ra = al[i], ar[i]
        lb, rb = bl[j], br[j]
        if la == lb and ra == rb:
            out_l.append(la)
            out_r.append(ra)
            i += 1
            j += 1
        elif la < lb or (la == lb and ra < rb):
            i += 1
        else:
            j += 1
    return RegionSet._from_arrays(out_l, out_r)


def difference(a: RegionSet, b: RegionSet) -> RegionSet:
    al, ar = a._lefts, a._rights
    bl, br = b._lefts, b._rights
    if not al:
        return RegionSet.empty()
    if not bl:
        return a
    out_l: list[int] = []
    out_r: list[int] = []
    i = j = 0
    n, m = len(al), len(bl)
    while i < n and j < m:
        la, ra = al[i], ar[i]
        lb, rb = bl[j], br[j]
        if la == lb and ra == rb:
            i += 1
            j += 1
        elif la < lb or (la == lb and ra < rb):
            out_l.append(la)
            out_r.append(ra)
            i += 1
        else:
            j += 1
    out_l.extend(al[i:])
    out_r.extend(ar[i:])
    return RegionSet._from_arrays(out_l, out_r)


# ----------------------------------------------------------------------
# Containment semi-joins: extreme tables + galloping search.
# ----------------------------------------------------------------------

def including(a: RegionSet, b: RegionSet) -> RegionSet:
    """``A ⊃ B``: keep ``r ∈ A`` with some ``s ∈ B``, ``r ⊃ s``.

    Same two-disjunct suffix-minimum argument as
    :meth:`RegionSet._contains_region_inside`, with both bisect frontiers
    advanced by galloping since the probe lefts ascend.
    """
    al, ar = a._lefts, a._rights
    bl = b._lefts
    if not al or not bl:
        return RegionSet.empty()
    suffix = b._ensure_suffix_min()
    out_l: list[int] = []
    out_r: list[int] = []
    push_l, push_r = out_l.append, out_r.append
    m = len(bl)
    hi = lo = 0
    for left, right in zip(al, ar):
        # (A) left(s) > left(r) and right(s) <= right(r).  The gallop
        # is inlined: the already-positioned frontier is the hot case.
        if hi < m and bl[hi] <= left:
            prev, step = hi, 1
            while hi + step < m and bl[hi + step] <= left:
                prev = hi + step
                step <<= 1
            hi = bisect_right(bl, left, prev + 1, min(hi + step, m))
        if suffix[hi] <= right:
            push_l(left)
            push_r(right)
            continue
        # (B) left(s) >= left(r) and right(s) < right(r)
        if lo < m and bl[lo] < left:
            prev, step = lo, 1
            while lo + step < m and bl[lo + step] < left:
                prev = lo + step
                step <<= 1
            lo = bisect_left(bl, left, prev + 1, min(lo + step, m))
        if suffix[lo] < right:
            push_l(left)
            push_r(right)
    return RegionSet._from_arrays(out_l, out_r)


def included_in(a: RegionSet, b: RegionSet) -> RegionSet:
    """``A ⊂ B``: keep ``r ∈ A`` with some ``s ∈ B``, ``r ⊂ s``."""
    al, ar = a._lefts, a._rights
    bl = b._lefts
    if not al or not bl:
        return RegionSet.empty()
    prefix = b._ensure_prefix_max()
    out_l: list[int] = []
    out_r: list[int] = []
    push_l, push_r = out_l.append, out_r.append
    m = len(bl)
    hi = lo = 0
    for left, right in zip(al, ar):
        # (A) left(s) < left(r) and right(s) >= right(r)
        if lo < m and bl[lo] < left:
            prev, step = lo, 1
            while lo + step < m and bl[lo + step] < left:
                prev = lo + step
                step <<= 1
            lo = bisect_left(bl, left, prev + 1, min(lo + step, m))
        if prefix[lo] >= right:
            push_l(left)
            push_r(right)
            continue
        # (B) left(s) <= left(r) and right(s) > right(r)
        if hi < m and bl[hi] <= left:
            prev, step = hi, 1
            while hi + step < m and bl[hi + step] <= left:
                prev = hi + step
                step <<= 1
            hi = bisect_right(bl, left, prev + 1, min(hi + step, m))
        if prefix[hi] > right:
            push_l(left)
            push_r(right)
    return RegionSet._from_arrays(out_l, out_r)


# ----------------------------------------------------------------------
# Order operators: folded to O(1) scalar extremes.
# ----------------------------------------------------------------------

def preceding(a: RegionSet, b: RegionSet) -> RegionSet:
    """``A < B``: keep ``r ∈ A`` with ``right(r) < max(left(B))``."""
    if not a._lefts or not b._lefts:
        return RegionSet.empty()
    return order_bound_preceding(a, b._lefts[-1])


def following(a: RegionSet, b: RegionSet) -> RegionSet:
    """``A > B``: keep ``r ∈ A`` with ``left(r) > min(right(B))``."""
    if not a._lefts or not b._lefts:
        return RegionSet.empty()
    return order_bound_following(a, b._ensure_suffix_min()[0])


def order_bound_preceding(a: RegionSet, bound: int) -> RegionSet:
    """Keep ``r ∈ A`` with ``right(r) < bound`` (scalar exchange form)."""
    al, ar = a._lefts, a._rights
    out_l: list[int] = []
    out_r: list[int] = []
    for k in range(len(al)):
        if ar[k] < bound:
            out_l.append(al[k])
            out_r.append(ar[k])
    return RegionSet._from_arrays(out_l, out_r)


def order_bound_following(a: RegionSet, bound: int) -> RegionSet:
    """Keep ``r ∈ A`` with ``left(r) > bound`` — one bisect plus a slice."""
    al = a._lefts
    idx = bisect_right(al, bound)
    if idx == 0:
        return a
    return RegionSet._from_arrays(al[idx:], a._rights[idx:])


# ----------------------------------------------------------------------
# Both-included (Definition 5.2): suffix minima of both witness sets.
# ----------------------------------------------------------------------

def both_included(
    source: RegionSet, first: RegionSet, second: RegionSet
) -> RegionSet:
    """``R BI (S, T)`` over the endpoint arrays, two bisects per R-region.

    For each ``r``: the best witness ``s`` is the S-region with
    ``left >= left(r)`` and the smallest right endpoint ``m``; ``r``
    qualifies iff some T-region with ``left > m`` ends by ``right(r)``.
    That ``t`` lies strictly inside ``r``, and ``s`` ends before ``t``
    starts, so it lies strictly inside ``r`` too.  Both minima are
    suffix minima, so the sets' cached suffix-minimum tables answer
    them; the first bisect resumes where the last ended, and the
    output is a subsequence of ``R``.
    """
    if not source or not first or not second:
        return RegionSet.empty()
    s_lefts, s_min = first._lefts, first._ensure_suffix_min()
    t_lefts, t_min = second._lefts, second._ensure_suffix_min()
    out_l: list[int] = []
    out_r: list[int] = []
    i = 0
    for left, right in zip(source._lefts, source._rights):
        i = bisect_left(s_lefts, left, i)
        if t_min[bisect_right(t_lefts, s_min[i])] <= right:
            out_l.append(left)
            out_r.append(right)
    return RegionSet._from_arrays(out_l, out_r)
