"""The array kernels of σ_p, match points, ⊂_d/⊃_d and BI vs the oracles.

``TextWordIndex.select``/``match_points``, ``Forest.directly_*`` and
``kernels.both_included`` read the operands' ``_lefts``/``_rights``
directly.  Here they are checked against the naive Definition 2.3
evaluator on generated instances and expressions, and against
transcriptions of ``W`` written over the raw token list, on the shapes
where a resuming sweep can go wrong: literal, prefix and wildcard
patterns, occurrences exactly at a region's endpoints, empty and
singleton operands, same-name towers, label-indexed instances, and
instances grown by ``Instance.appended`` / ``TextWordIndex.extended`` /
``Forest.appended``.
"""

import random

import pytest

from repro.algebra import ast as A
from repro.algebra.evaluator import (
    Evaluator,
    _both_included_naive,
    _direct_included_naive,
    _direct_including_naive,
)
from repro.core.forest import Forest
from repro.core.instance import Instance
from repro.core.patterns import parse_pattern
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.vm import compile_expr, execute, kernels
from repro.workloads.generators import nested_tower, random_instance

NAMES = ("R0", "R1", "R2")
VOCABULARY = ("ab", "abc", "ba", "b", "a*")
# Literal (present and absent), prefix, and glob patterns.
PATTERNS = ("ab", "zz", "ab*", "b*", "?b", "a?c", "*a", "a*")
ORACLE = Evaluator("naive")


def random_tokens(rng, regions, low, high, count):
    """Token occurrences over ``[low, high]``, half of them pinned to a
    region endpoint (a one-position token at it, or a token spanning the
    region exactly) and half at random."""
    tokens = []
    for _ in range(count):
        text = rng.choice(VOCABULARY)
        roll = rng.random()
        if regions and roll < 0.5:
            region = rng.choice(regions)
            shape = rng.randrange(3)
            if shape == 0:
                tokens.append((text, region.left, region.left))
            elif shape == 1:
                tokens.append((text, region.right, region.right))
            else:
                tokens.append((text, region.left, region.right))
        else:
            left = rng.randrange(low, high + 1)
            tokens.append((text, left, min(high, left + rng.randrange(3))))
    return tokens


def text_instance(rng, max_nodes=30, max_depth=6, max_children=3):
    """A random hierarchical instance carrying a text word index."""
    base = random_instance(
        rng, NAMES, max_nodes=max_nodes, max_depth=max_depth,
        max_children=max_children,
    )
    regions = list(base.all_regions())
    span = max((r.right for r in regions), default=0) + 1
    tokens = random_tokens(rng, regions, 0, span, rng.randrange(2 * span + 1))
    sets = {name: base.region_set(name) for name in base.names}
    return Instance(sets, TextWordIndex(tokens), validate=False), tokens


def w_oracle(tokens, region, pattern):
    """``W(r, p)`` over the raw token list: some occurrence of a token
    matching ``p`` lies (non-strictly) inside ``r``."""
    parsed = parse_pattern(pattern)
    return any(
        parsed.matches_token(text)
        and region.left <= left
        and right <= region.right
        for text, left, right in tokens
    )


def random_subset(rng, region_set):
    return RegionSet(r for r in region_set if rng.random() < 0.6)


def random_expression(rng, depth=0, max_depth=4):
    """Expressions leaning on the opcodes under test."""
    if depth >= max_depth or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.7:
            return A.NameRef(rng.choice(NAMES))
        if roll < 0.9:
            return A.Select(rng.choice(PATTERNS), A.NameRef(rng.choice(NAMES)))
        if roll < 0.97:
            return A.MatchPoints(rng.choice(PATTERNS))
        return A.Empty()
    roll = rng.random()
    if roll < 0.25:
        return A.Select(
            rng.choice(PATTERNS),
            random_expression(rng, depth + 1, max_depth),
        )
    if roll < 0.4:
        return A.BothIncluded(
            random_expression(rng, depth + 1, max_depth),
            random_expression(rng, depth + 1, max_depth),
            random_expression(rng, depth + 1, max_depth),
        )
    op = rng.choice(
        (
            A.DirectlyIncluding,
            A.DirectlyIncluded,
            A.DirectlyIncluding,
            A.DirectlyIncluded,
            A.Including,
            A.IncludedIn,
            A.Union,
            A.Difference,
        )
    )
    return op(
        random_expression(rng, depth + 1, max_depth),
        random_expression(rng, depth + 1, max_depth),
    )


def assert_vm_matches_naive(instance, expr, label):
    program = compile_expr(expr)
    assert program is not None, label
    got = execute(program, instance)
    expected = ORACLE.evaluate(expr, instance)
    assert got._lefts == expected._lefts, label
    assert got._rights == expected._rights, label


class TestSelect:
    def test_matches_token_oracle(self):
        rng = random.Random(13)
        for case in range(60):
            instance, tokens = text_instance(rng)
            index = instance.word_index
            for name in NAMES:
                operand = instance.region_set(name)
                for pattern in PATTERNS:
                    got = index.select(operand, pattern)
                    expected = [
                        r for r in operand if w_oracle(tokens, r, pattern)
                    ]
                    assert list(got) == expected, (case, name, pattern)

    def test_occurrences_at_endpoints(self):
        index = TextWordIndex([("ab", 0, 0), ("ab", 9, 9), ("abc", 4, 6)])
        operand = RegionSet.of(
            (0, 0), (0, 3), (1, 9), (2, 8), (4, 6), (4, 5), (5, 6), (10, 12)
        )
        assert list(index.select(operand, "ab")) == [
            Region(0, 0), Region(0, 3), Region(1, 9)
        ]
        assert list(index.select(operand, "ab*")) == [
            Region(0, 0), Region(0, 3), Region(1, 9), Region(2, 8), Region(4, 6)
        ]
        assert list(index.select(operand, "a?c")) == [
            Region(1, 9), Region(2, 8), Region(4, 6)
        ]

    def test_empty_and_singleton_operands(self):
        index = TextWordIndex([("ab", 3, 4)])
        empty = RegionSet.empty()
        assert index.select(empty, "ab") == empty
        assert index.select(RegionSet.of((3, 4)), "ab") == RegionSet.of((3, 4))
        assert index.select(RegionSet.of((3, 3)), "ab") == empty
        assert index.select(RegionSet.of((0, 2)), "ab") == empty
        assert index.select(RegionSet.of((5, 9)), "ab") == empty
        assert index.select(RegionSet.of((0, 9)), "zz") == empty

    def test_same_name_tower(self):
        tower = nested_tower(16, ("R",)).region_set("R")
        innermost = min(tower, key=lambda r: r.right - r.left)
        index = TextWordIndex([("ab", innermost.left, innermost.right)])
        # Every region of the tower contains the innermost one.
        assert index.select(tower, "ab") == tower
        outer_only = TextWordIndex([("ab", 0, 0)])
        assert list(outer_only.select(tower, "ab")) == [Region(0, 31)]

    def test_label_index_matches_per_region_test(self):
        rng = random.Random(29)
        for case in range(40):
            instance = random_instance(rng, NAMES, patterns=("x", "y"))
            index = instance.word_index
            for name in NAMES:
                operand = instance.region_set(name)
                for pattern in ("x", "y", "z"):
                    assert list(index.select(operand, pattern)) == [
                        r for r in operand if index.matches(r, pattern)
                    ], (case, name, pattern)


class TestMatchPoints:
    def test_matches_token_list(self):
        rng = random.Random(31)
        for case in range(60):
            instance, tokens = text_instance(rng)
            for pattern in PATTERNS:
                parsed = parse_pattern(pattern)
                expected = RegionSet(
                    Region(l, r)
                    for text, l, r in tokens
                    if parsed.matches_token(text)
                )
                got = instance.word_index.match_points(pattern)
                assert got._lefts == expected._lefts, (case, pattern)
                assert got._rights == expected._rights, (case, pattern)

    def test_duplicate_occurrences_collapse(self):
        index = TextWordIndex([("ab", 1, 2), ("ab", 1, 2), ("abc", 1, 2)])
        assert index.match_points("ab") == RegionSet.of((1, 2))
        assert index.match_points("ab*") == RegionSet.of((1, 2))


class TestDirectAndBothIncluded:
    def test_forest_kernels_match_naive(self):
        rng = random.Random(37)
        for case in range(60):
            instance, _ = text_instance(rng)
            forest = instance.forest()
            universe = instance.all_regions()
            points = instance.word_index.match_points("ab*")
            for _ in range(4):
                r_set = random_subset(rng, universe)
                s_set = random_subset(rng, universe)
                # Match points are operand regions outside the forest.
                for r_ops, s_ops in [
                    (r_set, s_set),
                    (r_set, s_set | points),
                    (r_set | points, s_set),
                    (points, points),
                ]:
                    assert forest.directly_including(r_ops, s_ops) == (
                        _direct_including_naive(instance, r_ops, s_ops)
                    ), case
                    assert forest.directly_included(r_ops, s_ops) == (
                        _direct_included_naive(instance, r_ops, s_ops)
                    ), case

    def test_both_included_matches_naive(self):
        rng = random.Random(41)
        for case in range(80):
            instance, _ = text_instance(rng)
            universe = instance.all_regions()
            source, first, second = (
                random_subset(rng, universe) for _ in range(3)
            )
            # Match points share endpoints with regions and each other,
            # so a T-region may start exactly where the S witness ends.
            points = instance.word_index.match_points("?b")
            for s_ops, t_ops in [
                (first, second),
                (first | points, second),
                (first, second | points),
                (points, points),
            ]:
                assert kernels.both_included(source, s_ops, t_ops) == (
                    _both_included_naive(source, s_ops, t_ops)
                ), case

    def test_empty_singleton_and_tower(self):
        tower_instance = nested_tower(12, ("R",))
        tower = tower_instance.region_set("R")
        forest = tower_instance.forest()
        empty = RegionSet.empty()
        single = RegionSet(tower.regions[:1])
        for r_set, s_set in [
            (empty, tower), (tower, empty), (single, tower), (tower, single),
            (tower, tower),
        ]:
            assert forest.directly_including(r_set, s_set) == (
                _direct_including_naive(tower_instance, r_set, s_set)
            )
            assert forest.directly_included(r_set, s_set) == (
                _direct_included_naive(tower_instance, r_set, s_set)
            )
            assert kernels.both_included(r_set, s_set, s_set) == (
                _both_included_naive(r_set, s_set, s_set)
            )
        assert len(forest.directly_included(tower, tower)) == 11


class TestProgramsAgainstNaive:
    def test_text_indexed_instances(self):
        rng = random.Random(43)
        for case in range(80):
            instance, _ = text_instance(rng)
            expr = random_expression(rng)
            assert_vm_matches_naive(instance, expr, f"case={case} expr={expr}")

    def test_deep_narrow_instances(self):
        rng = random.Random(47)
        for case in range(30):
            instance, _ = text_instance(
                rng, max_nodes=30, max_depth=14, max_children=1
            )
            expr = random_expression(rng)
            assert_vm_matches_naive(instance, expr, f"case={case} expr={expr}")

    def test_label_indexed_instances(self):
        rng = random.Random(53)
        for case in range(60):
            instance = random_instance(rng, NAMES, patterns=PATTERNS)
            expr = random_expression(rng)
            if any(isinstance(n, A.MatchPoints) for n in A.walk(expr)):
                continue
            assert_vm_matches_naive(instance, expr, f"case={case} expr={expr}")


def grown(rng, steps=3):
    """A text instance grown by appended segments, with its forest
    materialized first so ``Forest.appended`` extends it in place."""
    instance, tokens = text_instance(rng, max_nodes=15)
    instance.forest()
    for _ in range(steps):
        offset = max((r.right for r in instance.all_regions()), default=-1)
        offset = max([offset] + [right for _, _, right in tokens]) + 1
        segment, _ = text_instance(rng, max_nodes=12)
        additions = {
            name: [r.shifted(offset) for r in segment.region_set(name)]
            for name in NAMES
        }
        regions = [r for rs in additions.values() for r in rs]
        high = max((r.right for r in regions), default=offset) + 1
        new_tokens = random_tokens(rng, regions, offset, high, rng.randrange(12))
        instance = instance.appended(
            additions, instance.word_index.extended(new_tokens)
        )
        tokens = tokens + new_tokens
    return instance, tokens


class TestGrownInstances:
    def test_grown_forest_equals_rebuilt(self):
        rng = random.Random(59)
        for case in range(30):
            instance, _ = grown(rng)
            rebuilt = Forest.from_regions(instance.all_regions())
            universe = instance.all_regions()
            assert instance.forest().preorder == rebuilt.preorder, case
            for region in universe:
                assert instance.forest().parent_of(region) == (
                    rebuilt.parent_of(region)
                ), case
            for _ in range(3):
                r_set = random_subset(rng, universe)
                s_set = random_subset(rng, universe)
                for method in ("directly_including", "directly_included"):
                    assert getattr(instance.forest(), method)(r_set, s_set) == (
                        getattr(rebuilt, method)(r_set, s_set)
                    ), (case, method)

    def test_grown_select_matches_token_oracle(self):
        rng = random.Random(61)
        for case in range(30):
            instance, tokens = grown(rng)
            for name in NAMES:
                operand = instance.region_set(name)
                for pattern in PATTERNS:
                    assert list(instance.word_index.select(operand, pattern)) == [
                        r for r in operand if w_oracle(tokens, r, pattern)
                    ], (case, name, pattern)

    def test_grown_programs_match_naive(self):
        rng = random.Random(67)
        for case in range(30):
            instance, _ = grown(rng)
            expr = random_expression(rng)
            assert_vm_matches_naive(instance, expr, f"case={case} expr={expr}")


@pytest.mark.parametrize("pattern", ["", "*"])
def test_rejected_patterns_raise_on_nonempty_operands(pattern):
    from repro.errors import PatternError

    index = TextWordIndex([("ab", 0, 1)])
    assert index.select(RegionSet.empty(), pattern) == RegionSet.empty()
    with pytest.raises(PatternError):
        index.select(RegionSet.of((0, 1)), pattern)


class TestMatchPointsUnderDirectOperators:
    """Token occurrences are not instance regions, yet ``⊃_d``/``⊂_d``
    relate them to their innermost enclosing region, as Definition 2.3
    quantifies over the instance's regions only."""

    QUERIES = [
        'line dcontaining "love"',
        '"love" dwithin line',
        '(speech dcontaining "lov*") union ("ROMEO" dwithin speaker)',
        'speech dcontaining ("n?ght" dwithin line)',
    ]

    @pytest.fixture(scope="class")
    def play(self):
        from repro.engine.session import Engine
        from repro.workloads.corpora import generate_play

        rng = random.Random(4)
        text = "\n".join(generate_play(rng, acts=2) for _ in range(3))
        return Engine.from_tagged_text(text).instance

    @pytest.mark.parametrize("query", QUERIES)
    def test_every_path_matches_naive(self, play, query):
        from repro.algebra.parser import parse
        from repro.shard import ShardExecutor

        expr = parse(query)
        expected = ORACLE.evaluate(expr, play)
        assert list(Evaluator("indexed").evaluate(expr, play)) == list(expected)
        assert list(Evaluator("indexed", vm=False).evaluate(expr, play)) == list(
            expected
        )
        for shards in (1, 2, 4, 7):
            with ShardExecutor(play, shards, pool="serial") as executor:
                assert list(executor.run(expr)) == list(expected), shards

    def test_line_directly_containing_a_word_is_not_empty(self, play):
        from repro.algebra.parser import parse

        assert Evaluator("indexed").evaluate(parse('line dcontaining "love"'), play)
