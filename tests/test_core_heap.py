"""Tests for the SBNN result heap and the six-state bound mapping."""

import pytest

from repro.core import (
    HeapEntry,
    HeapState,
    ResultHeap,
    SearchBounds,
    search_bounds,
)
from repro.errors import ReproError
from repro.geometry import Point
from repro.model import POI


def entry(poi_id, dist, verified):
    return HeapEntry(POI(poi_id, Point(dist, 0)), dist, verified)


class TestResultHeap:
    def test_invalid_k(self):
        with pytest.raises(ReproError):
            ResultHeap(0)

    def test_entries_kept_sorted(self):
        heap = ResultHeap(5)
        heap.add(entry(0, 3.0, True))
        heap.add(entry(1, 1.0, True))
        heap.add(entry(2, 2.0, False))
        assert [e.distance for e in heap.entries] == [1.0, 2.0, 3.0]

    def test_capacity_enforced(self):
        heap = ResultHeap(2)
        assert heap.add(entry(0, 1, True))
        assert heap.add(entry(1, 2, True))
        assert not heap.add(entry(2, 3, True))
        assert len(heap) == 2

    def test_duplicate_poi_rejected(self):
        heap = ResultHeap(3)
        assert heap.add(entry(0, 1, True))
        assert not heap.add(entry(0, 1, False))
        assert len(heap) == 1

    def test_verified_partition(self):
        heap = ResultHeap(4)
        heap.add(entry(0, 1, True))
        heap.add(entry(1, 2, False))
        heap.add(entry(2, 3, True))
        assert heap.verified_count == 2
        assert [e.poi.poi_id for e in heap.unverified_entries] == [1]

    def test_last_distances(self):
        heap = ResultHeap(4)
        assert heap.last_distance is None
        assert heap.last_verified_distance is None
        heap.add(entry(0, 1, True))
        heap.add(entry(1, 5, False))
        assert heap.last_distance == 5
        assert heap.last_verified_distance == 1


class TestSixStates:
    """The state table of Section 3.3.3, entry by entry."""

    def test_state1_full_mixed(self):
        heap = ResultHeap(2)
        heap.add(entry(0, 1, True))
        heap.add(entry(1, 4, False))
        assert heap.state is HeapState.FULL_MIXED
        bounds = search_bounds(heap)
        assert bounds.lower == 1 and bounds.upper == 4

    def test_state2_full_unverified(self):
        heap = ResultHeap(2)
        heap.add(entry(0, 2, False))
        heap.add(entry(1, 3, False))
        assert heap.state is HeapState.FULL_UNVERIFIED
        bounds = search_bounds(heap)
        assert bounds.lower is None and bounds.upper == 3

    def test_state3_partial_mixed(self):
        heap = ResultHeap(5)
        heap.add(entry(0, 1, True))
        heap.add(entry(1, 2, False))
        assert heap.state is HeapState.PARTIAL_MIXED
        bounds = search_bounds(heap)
        assert bounds.lower == 1 and bounds.upper is None

    def test_state4_partial_verified(self):
        heap = ResultHeap(5)
        heap.add(entry(0, 1, True))
        heap.add(entry(1, 2, True))
        assert heap.state is HeapState.PARTIAL_VERIFIED
        bounds = search_bounds(heap)
        assert bounds.lower == 2 and bounds.upper is None

    def test_state5_partial_unverified(self):
        heap = ResultHeap(5)
        heap.add(entry(0, 2, False))
        assert heap.state is HeapState.PARTIAL_UNVERIFIED
        assert search_bounds(heap) == SearchBounds(None, None)

    def test_state6_empty(self):
        heap = ResultHeap(5)
        assert heap.state is HeapState.EMPTY
        assert search_bounds(heap) == SearchBounds(None, None)

    def test_full_all_verified_groups_with_state1(self):
        heap = ResultHeap(2)
        heap.add(entry(0, 1, True))
        heap.add(entry(1, 2, True))
        assert heap.state is HeapState.FULL_MIXED
        bounds = search_bounds(heap)
        assert bounds.lower == 2 and bounds.upper == 2
