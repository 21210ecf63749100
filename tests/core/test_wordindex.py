"""Word indexes: tokenization and the W(r, p) predicate."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex, tokenize


class TestTokenize:
    def test_simple(self):
        assert tokenize("ab cd") == [("ab", 0, 1), ("cd", 3, 4)]

    def test_leading_trailing_whitespace(self):
        assert tokenize("  x  ") == [("x", 2, 2)]

    def test_empty_and_blank(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_final_token_at_end(self):
        assert tokenize("a bc") == [("a", 0, 0), ("bc", 2, 3)]

    @given(st.text(alphabet="ab \n", max_size=40))
    def test_tokens_cover_exact_spans(self, text):
        for token, left, right in tokenize(text):
            assert text[left : right + 1] == token
            assert not any(ch.isspace() for ch in token)


class TestTextWordIndex:
    @pytest.fixture
    def index(self):
        return TextWordIndex.from_text("the cat sat on the mat catalog")

    def test_vocabulary(self, index):
        assert index.vocabulary == ["cat", "catalog", "mat", "on", "sat", "the"]

    def test_literal_match(self, index):
        assert index.matches(Region(0, 30), "cat")
        assert index.matches(Region(4, 6), "cat")
        assert not index.matches(Region(0, 3), "cat")

    def test_match_requires_full_containment(self, index):
        # "cat" occupies [4,6]; a region covering only part of it fails.
        assert not index.matches(Region(4, 5), "cat")

    def test_prefix_pattern(self, index):
        points = index.match_points("cat*")
        assert len(points) == 2  # cat + catalog
        assert index.matches(Region(20, 30), "cat*")  # catalog only region

    def test_glob_pattern(self, index):
        assert index.matches(Region(0, 30), "?at")  # cat, sat, mat
        assert not index.matches(Region(0, 30), "z?t")

    def test_unknown_word(self, index):
        assert not index.matches(Region(0, 30), "dog")
        assert index.match_points("dog") == RegionSet.empty()

    def test_match_points_are_token_spans(self, index):
        points = index.match_points("the")
        assert points == RegionSet.of((0, 2), (15, 17))

    def test_occurrence_probe_is_positional(self):
        index = TextWordIndex.from_text("x y x")
        assert index.matches(Region(0, 0), "x")
        assert index.matches(Region(4, 4), "x")
        assert not index.matches(Region(1, 3), "x")


    def test_distinct_patterns_leave_index_size_unchanged(self, index):
        # Patterns are resolved per call; nothing is kept per pattern.
        def footprint():
            return {
                name: (len(value), sys.getsizeof(value))
                for name, value in vars(index).items()
            }

        before = footprint()
        operand = RegionSet.of((0, 30))
        for i in range(10_000):
            pattern = (f"w{i}", f"c{i}*", f"?{i}")[i % 3]
            index.matches(Region(0, 30), pattern)
            index.select(operand, pattern)
            index.match_points(pattern)
        assert footprint() == before


class TestLabelWordIndex:
    def test_basic_matching(self):
        idx = LabelWordIndex({Region(0, 3): {"p", "q"}})
        assert idx.matches(Region(0, 3), "p")
        assert not idx.matches(Region(0, 3), "r")
        assert not idx.matches(Region(1, 2), "p")

    def test_labels_of(self):
        idx = LabelWordIndex({Region(0, 3): {"p"}})
        assert idx.labels_of(Region(0, 3)) == frozenset({"p"})
        assert idx.labels_of(Region(9, 9)) == frozenset()

    def test_with_label_is_persistent(self):
        idx = LabelWordIndex()
        idx2 = idx.with_label(Region(0, 3), "p")
        assert not idx.matches(Region(0, 3), "p")
        assert idx2.matches(Region(0, 3), "p")

    def test_restricted_to(self):
        idx = LabelWordIndex({Region(0, 3): {"p"}, Region(5, 8): {"q"}})
        restricted = idx.restricted_to([Region(0, 3)])
        assert restricted.matches(Region(0, 3), "p")
        assert not restricted.matches(Region(5, 8), "q")

    def test_renamed(self):
        idx = LabelWordIndex({Region(0, 3): {"p"}})
        renamed = idx.renamed({Region(0, 3): Region(10, 13)})
        assert renamed.matches(Region(10, 13), "p")
        assert not renamed.matches(Region(0, 3), "p")

    def test_equality_ignores_empty_label_sets(self):
        a = LabelWordIndex({Region(0, 3): {"p"}, Region(5, 8): set()})
        b = LabelWordIndex({Region(0, 3): {"p"}})
        assert a == b
        assert hash(a) == hash(b)
