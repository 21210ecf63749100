"""Tests of the benchmark's own arithmetic and inputs.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import tail  # noqa: E402
from spans import Recorder, percentile, self_times, supported_fraction, union_length  # noqa: E402


def _span(span_id, parent, start, end, name="s"):
    return (name, start, end, span_id, parent, 1, None)


def test_union_counts_overlap_once():
    assert union_length([(1, 4), (2, 6), (8, 9)]) == 6
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        # A scatter to two groups plus a hedge: 1-4 and 2-6 overlap.
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 2.0, 6.0),
        _span(4, 1, 8.0, 9.0),
        # A grandchild belongs to its own parent only.
        _span(5, 2, 1.5, 3.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0)  # not 10 - (3 + 4 + 1)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[5] == pytest.approx(2.0)


def test_self_time_clips_a_child_that_outlives_its_parent():
    spans = [_span(1, 0, 0.0, 5.0), _span(2, 1, 4.0, 9.0)]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_a_percentile_needs_ten_samples_beyond_it():
    hundred = list(range(1, 101))
    assert percentile(hundred, 0.90) == 90  # exactly ten beyond
    assert percentile(hundred, 0.95) is None  # five beyond
    assert percentile(list(range(1, 1001)), 0.99) == 990
    assert percentile(list(range(1, 1000)), 0.99) is None
    assert percentile(hundred, 0.5) == 50
    assert percentile([], 0.5) is None


def test_tail_falls_back_to_the_highest_supported_percentile():
    assert supported_fraction(1000, 0.95) == 0.95
    assert supported_fraction(100, 0.95) == pytest.approx(0.90)
    assert tail(list(range(1, 101)), 0.95) == 90
    assert tail([], 0.95) == 0.0


def test_recorder_links_children_to_their_request():
    recorder = Recorder()

    def leaf():
        return [1, 2, 3]

    traced_leaf = recorder.wrap("leaf", leaf, value=len)
    root = recorder.wrap("root", lambda: traced_leaf())
    root()
    root()
    names = [span[0] for span in recorder.spans]
    assert names == ["leaf", "root", "leaf", "root"]
    first_leaf, first_root, second_leaf, second_root = recorder.spans
    assert first_leaf[4] == first_root[3] and first_root[4] == 0
    assert first_leaf[5] == first_root[5] == first_root[3]
    assert second_leaf[5] == second_root[3] != first_root[3]
    assert first_leaf[6] == 3


def test_one_seed_draws_one_stream():
    import run

    first = run.plan("hot-small", 7, 30.0)
    again = run.plan("hot-small", 7, 30.0)
    other = run.plan("hot-small", 8, 30.0)
    assert first["digest"] == again["digest"] != other["digest"]
    writes = run.plan("write-mix", 7, 30.0)
    assert writes["digest"] == run.plan("write-mix", 7, 30.0)["digest"]
    assert len(writes["writes"]) >= 200 and len(first["open_reads"]) >= 200
