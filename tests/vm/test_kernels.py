"""Set-at-a-time kernels vs the RegionSet reference implementations.

Every kernel in :mod:`repro.vm.kernels` must be bit-identical to the
corresponding :class:`RegionSet` method (and, transitively, to the
naive quadratic oracles) — on random sets and, per ISSUE 10, on the
boundary shapes where galloping search earns its keep: empty operands,
single-region sets, fully-nested same-name towers, and the k-reduced
instances of Theorem 4.4.
"""

import random
from bisect import bisect_left, bisect_right

import pytest

from repro.core.regionset import Region, RegionSet
from repro.core.wordindex import LabelWordIndex
from repro.properties.reduction import (
    isomorphic_sibling_pairs,
    reduce_regions,
)
from repro.vm import kernels
from repro.workloads.generators import (
    flat_row,
    nested_tower,
    random_instance,
)

# (kernel, RegionSet method name, naive oracle name) for the semi-joins.
SEMI_JOINS = [
    (kernels.including, "including", "including_naive"),
    (kernels.included_in, "included_in", "included_in_naive"),
    (kernels.preceding, "preceding", "preceding_naive"),
    (kernels.following, "following", "following_naive"),
]

SET_OPS = [
    (kernels.union, "union"),
    (kernels.intersection, "intersection"),
    (kernels.difference, "difference"),
]


def random_set(rng, max_regions=30, span=60):
    """A random (possibly overlapping, possibly nested) region set."""
    pairs = []
    for _ in range(rng.randrange(max_regions + 1)):
        left = rng.randrange(span)
        right = left + rng.randrange(span - left) if left < span else left
        pairs.append((left, right))
    return RegionSet.of(*pairs)


def assert_same(got: RegionSet, expected: RegionSet, label: str):
    assert list(got) == list(expected), label
    assert got == expected, label


class TestGallop:
    def test_gallop_right_matches_bisect(self):
        rng = random.Random(41)
        for _ in range(200):
            arr = sorted(rng.randrange(50) for _ in range(rng.randrange(40)))
            x = rng.randrange(-5, 55)
            lo = rng.randrange(len(arr) + 1)
            assert kernels.gallop_right(arr, x, lo) == max(
                lo, bisect_right(arr, x)
            ), (arr, x, lo)

    def test_gallop_left_matches_bisect(self):
        rng = random.Random(42)
        for _ in range(200):
            arr = sorted(rng.randrange(50) for _ in range(rng.randrange(40)))
            x = rng.randrange(-5, 55)
            lo = rng.randrange(len(arr) + 1)
            assert kernels.gallop_left(arr, x, lo) == max(
                lo, bisect_left(arr, x)
            ), (arr, x, lo)

    def test_gallop_past_end(self):
        arr = [1, 2, 3]
        assert kernels.gallop_right(arr, 10, 0) == 3
        assert kernels.gallop_left(arr, 10, 0) == 3
        assert kernels.gallop_right(arr, 10, 3) == 3
        assert kernels.gallop_right([], 0, 0) == 0
        assert kernels.gallop_left([], 0, 0) == 0


class TestRandomSets:
    def test_set_ops_match_reference(self):
        rng = random.Random(1995)
        for case in range(80):
            a, b = random_set(rng), random_set(rng)
            for kernel, method in SET_OPS:
                assert_same(
                    kernel(a, b),
                    getattr(a, method)(b),
                    f"case={case} op={method} a={a!r} b={b!r}",
                )

    def test_semi_joins_match_reference_and_naive(self):
        rng = random.Random(2026)
        for case in range(80):
            a, b = random_set(rng), random_set(rng)
            for kernel, method, naive in SEMI_JOINS:
                got = kernel(a, b)
                label = f"case={case} op={method} a={a!r} b={b!r}"
                assert_same(got, getattr(a, method)(b), label)
                assert_same(got, getattr(a, naive)(b), label)

    def test_order_bounds_match_scan(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_set(rng)
            bound = rng.randrange(-1, 65)
            pre = kernels.order_bound_preceding(a, bound)
            fol = kernels.order_bound_following(a, bound)
            assert list(pre) == [r for r in a if r.right < bound]
            assert list(fol) == [r for r in a if r.left > bound]

    def test_select_matches_reference(self):
        # σ_p over a label index equals the per-region reference filter.
        rng = random.Random(11)
        for _ in range(40):
            a = random_set(rng)
            pred = lambda r: (r.left + r.right) % 3 == 0
            index = LabelWordIndex({r: {"p"} for r in a if pred(r)})
            assert_same(index.select(a, "p"), a.select(pred), repr(a))


class TestBoundaries:
    """The ISSUE 10 checklist: empty / singleton / towers / k-reduced."""

    def test_empty_operands(self):
        empty = RegionSet.empty()
        full = RegionSet.of((0, 3), (1, 2), (5, 9))
        for kernel, method in SET_OPS:
            assert_same(kernel(empty, full), getattr(empty, method)(full), method)
            assert_same(kernel(full, empty), getattr(full, method)(empty), method)
            assert_same(kernel(empty, empty), getattr(empty, method)(empty), method)
        for kernel, method, _ in SEMI_JOINS:
            assert kernel(empty, full) == RegionSet.empty()
            assert kernel(full, empty) == RegionSet.empty()
            assert kernel(empty, empty) == RegionSet.empty()

    def test_single_region_sets(self):
        cases = [
            (RegionSet.of((2, 5)), RegionSet.of((2, 5))),  # identical
            (RegionSet.of((2, 5)), RegionSet.of((1, 6))),  # nested
            (RegionSet.of((2, 5)), RegionSet.of((3, 4))),  # nests
            (RegionSet.of((2, 5)), RegionSet.of((6, 9))),  # before
            (RegionSet.of((6, 9)), RegionSet.of((2, 5))),  # after
            (RegionSet.of((2, 5)), RegionSet.of((4, 9))),  # overlap
        ]
        for a, b in cases:
            for kernel, method in SET_OPS:
                assert_same(kernel(a, b), getattr(a, method)(b), method)
            for kernel, method, naive in SEMI_JOINS:
                assert_same(kernel(a, b), getattr(a, naive)(b), method)

    def test_fully_nested_same_name_tower(self):
        # depth-24 chain of one name: every region contains every deeper
        # one, the worst case for the containment frontiers.
        instance = nested_tower(24, ("R",))
        tower = instance.region_set("R")
        assert len(tower) == 24
        for kernel, method, naive in SEMI_JOINS:
            assert_same(
                kernel(tower, tower), getattr(tower, naive)(tower), method
            )
        # All but the innermost region contain another; all but the
        # outermost are contained in another.
        assert len(kernels.including(tower, tower)) == 23
        assert len(kernels.included_in(tower, tower)) == 23
        assert kernels.preceding(tower, tower) == RegionSet.empty()
        assert kernels.following(tower, tower) == RegionSet.empty()

    def test_flat_row_disjoint_siblings(self):
        instance = flat_row(16, "R")
        row = instance.region_set("R")
        # Containment is proper: no disjoint sibling contains another.
        assert kernels.including(row, row) == RegionSet.empty()
        assert kernels.included_in(row, row) == RegionSet.empty()
        assert len(kernels.preceding(row, row)) == 15
        assert len(kernels.following(row, row)) == 15

    def test_k_reduced_instances(self):
        # Theorem 4.4: reduction sequences shrink an instance while
        # preserving (k ctr)-expressible behaviour.  The kernels must
        # agree with the naive oracles at every step of the sequence.
        rng = random.Random(44)
        instance = random_instance(
            rng, ("R0", "R1"), max_nodes=40, max_depth=3, max_children=4
        )
        for step in range(4):
            pairs = isomorphic_sibling_pairs(instance)
            if not pairs:
                break
            keep, remove = pairs[0]
            instance, _ = reduce_regions(instance, keep, remove)
            a = instance.region_set("R0")
            b = instance.region_set("R1")
            for kernel, method, naive in SEMI_JOINS:
                assert_same(
                    kernel(a, b),
                    getattr(a, naive)(b),
                    f"step={step} op={method}",
                )
            for kernel, method in SET_OPS:
                assert_same(
                    kernel(a, b), getattr(a, method)(b), f"step={step}"
                )


class TestTopLayerSweep:
    def test_top_layer_matches_semi_join_formula(self):
        # top_layer(S) == S - (S included-in S): the O(n) layer peel
        # must agree with the algebraic definition.
        rng = random.Random(8)
        for _ in range(60):
            s = random_set(rng)
            formula = kernels.difference(s, kernels.included_in(s, s))
            assert_same(s.top_layer(), formula, repr(s))

    def test_top_layer_tower_and_row(self):
        tower = nested_tower(10, ("R",)).region_set("R")
        assert list(tower.top_layer()) == [min(tower, key=lambda r: r.left)]
        row = flat_row(10, "R").region_set("R")
        assert row.top_layer() == row
