"""Tests for Lemma 3.2: correctness probability and surpassing ratio."""

import math

import pytest

from repro.core import (
    correctness_probability,
    expected_detour,
    surpassing_ratio,
    unverified_region_area,
)
from repro.core.approx import annotate_heap
from repro.core.heap import HeapEntry, ResultHeap
from repro.core.nnv import nnv
from repro.errors import ReproError
from repro.geometry import Circle, Point, Rect, RectUnion
from repro.model import POI
from repro.p2p import ShareResponse


class TestUnverifiedRegionArea:
    def test_fully_covered_disc(self):
        mvr = RectUnion([Rect(-10, -10, 10, 10)])
        assert unverified_region_area(Point(0, 0), 2, mvr) == pytest.approx(0.0)

    def test_uncovered_disc(self):
        mvr = RectUnion([Rect(100, 100, 101, 101)])
        area = unverified_region_area(Point(0, 0), 2, mvr)
        assert area == pytest.approx(math.pi * 4)

    def test_half_covered(self):
        mvr = RectUnion([Rect(0, -10, 10, 10)])
        area = unverified_region_area(Point(0, 0), 2, mvr)
        assert area == pytest.approx(math.pi * 2)

    def test_negative_distance_raises(self):
        with pytest.raises(ReproError):
            unverified_region_area(Point(0, 0), -1, RectUnion())


class TestCorrectnessProbability:
    def test_table2_worked_example(self):
        """The paper: λ = 0.3, u = 2 square units → e^-0.6 ≈ 0.5488."""
        assert math.exp(-0.3 * 2) == pytest.approx(0.5488, abs=1e-4)
        # Reconstruct geometrically: a disc of area 4 whose left half
        # is covered leaves u = 2.
        radius = math.sqrt(4 / math.pi)
        mvr = RectUnion([Rect(-10, -10, 0, 10)])
        p = correctness_probability(Point(0, 0), radius, mvr, poi_density=0.3)
        assert p == pytest.approx(math.exp(-0.6), rel=1e-6)
        # The right half of a disc of area 8 covered leaves u = 4.
        radius = math.sqrt(8 / math.pi)
        mvr = RectUnion([Rect(0, -10, 10, 10)])
        p = correctness_probability(Point(0, 0), radius, mvr, poi_density=0.3)
        assert abs(p - math.exp(-0.3 * 4.0)) < 1e-9

    def test_full_coverage_is_certain(self):
        mvr = RectUnion([Rect(-10, -10, 10, 10)])
        assert correctness_probability(Point(0, 0), 1, mvr, 5.0) == pytest.approx(1.0)

    def test_monotone_in_density(self):
        mvr = RectUnion([Rect(0, -10, 10, 10)])
        q = Point(0, 0)
        p_low = correctness_probability(q, 2, mvr, 0.1)
        p_high = correctness_probability(q, 2, mvr, 1.0)
        assert p_high < p_low

    def test_monotone_in_distance(self):
        mvr = RectUnion([Rect(-1, -1, 1, 1)])
        q = Point(0, 0)
        p_near = correctness_probability(q, 1.2, mvr, 0.5)
        p_far = correctness_probability(q, 3.0, mvr, 0.5)
        assert p_far < p_near

    def test_negative_density_raises(self):
        with pytest.raises(ReproError):
            correctness_probability(Point(0, 0), 1, RectUnion(), -0.1)


class TestSurpassingRatio:
    def test_table2_values(self):
        # Table 2: distances 2 (verified anchor... the paper anchors on
        # the last verified POI o5 at 3): o4 at 5 → 1.67, o3 at 6 → 2.0.
        assert surpassing_ratio(5, 3) == pytest.approx(1.667, abs=1e-3)
        assert abs(surpassing_ratio(5, 3) - 5 / 3) < 1e-9
        assert abs(surpassing_ratio(6, 3) - 2.0) < 1e-9

    def test_no_anchor_returns_none(self):
        assert surpassing_ratio(5, None) is None
        assert surpassing_ratio(5, 0.0) is None

    def test_closer_than_anchor_raises(self):
        with pytest.raises(ReproError):
            surpassing_ratio(1, 2)

    def test_expected_detour_example(self):
        # "he has to drive approximately two more miles":
        # 3 × (1.67 − 1) ≈ 2.
        detour = expected_detour(5, 3)
        assert abs(detour - 2.0) < 1e-9
        assert expected_detour(5, None) is None


class TestAnnotateHeap:
    def test_annotations_attached_to_unverified_only(self):
        vr = Rect(0, 0, 10, 10)
        pois = [POI(0, Point(5.2, 5.0)), POI(1, Point(9.9, 9.9))]
        responses = [ShareResponse(0, (vr,), tuple(pois))]
        q = Point(5, 5)
        heap, read = nnv(q, responses, k=2)
        mvr = read.mvr
        annotate_heap(q, heap, mvr, poi_density=0.3)
        verified = heap.verified_entries[0]
        unverified = heap.unverified_entries[0]
        assert verified.correctness is None
        assert 0 < unverified.correctness < 1
        assert unverified.surpassing_ratio > 1

    def test_annotation_probability_decreases_with_rank(self):
        vr = Rect(0, 0, 4, 4)
        q = Point(2, 2)
        pois = [POI(i, Point(2 + 0.9 * (i + 1), 2)) for i in range(3)]
        responses = [ShareResponse(0, (vr,), tuple(pois))]
        heap, read = nnv(q, responses, k=3)
        mvr = read.mvr
        annotate_heap(q, heap, mvr, poi_density=0.4)
        probs = [e.correctness for e in heap.unverified_entries]
        assert probs == sorted(probs, reverse=True)

    def test_walks_inwards_and_stops_at_the_deciding_entry(self):
        # boundary distance 0.5: the POI at 0.4 verifies, those at 1.5
        # and 3.0 do not
        vr = Rect(0, 0, 4, 4)
        q = Point(3.5, 2)
        pois = [POI(i, Point(3.5 - d, 2)) for i, d in enumerate((0.4, 1.5, 3.0))]
        responses = [ShareResponse(0, (vr,), tuple(pois))]
        full, read = nnv(q, responses, k=3)
        mvr = read.mvr
        counts = annotate_heap(q, full, mvr, poi_density=0.1)
        assert counts == {
            "entries": 2, "annotated": 2, "pieces": 1, "pieces_near": 1
        }
        near, far = (e.correctness for e in full.unverified_entries)
        assert far < 0.5 < near
        # the farthest entry is below 0.5: it alone is annotated
        early, _ = nnv(q, responses, k=3)
        counts = annotate_heap(q, early, mvr, 0.1, min_correctness=0.5)
        assert (counts["entries"], counts["annotated"]) == (2, 1)
        stopped_near, stopped_far = early.unverified_entries
        assert stopped_near.correctness is stopped_near.surpassing_ratio is None
        assert stopped_far.correctness == far
        assert stopped_far.surpassing_ratio == (
            full.unverified_entries[1].surpassing_ratio
        )
        # a threshold every entry clears stops nowhere
        cleared, _ = nnv(q, responses, k=3)
        annotate_heap(q, cleared, mvr, 0.1, min_correctness=far)
        assert [e.correctness for e in cleared] == [e.correctness for e in full]
        # and each value is the public one-disc function's
        assert [e.correctness for e in full.unverified_entries] == [
            correctness_probability(q, e.distance, mvr, 0.1)
            for e in full.unverified_entries
        ]

    def test_negative_density_raises(self):
        q = Point(2, 2)
        responses = [ShareResponse(0, (Rect(0, 0, 4, 4),), (POI(0, Point(3.5, 2)),))]
        heap, read = nnv(q, responses, k=1)
        mvr = read.mvr
        with pytest.raises(ReproError, match="density"):
            annotate_heap(q, heap, mvr, poi_density=-0.1)


class TestStopEarlyDecision:
    """Over a warmed world's (heap, MVR) pairs the early-stopped pass
    decides what annotating every entry decides."""

    @pytest.fixture(scope="class")
    def annotating_queries(self):
        import sys

        from repro.experiments import Simulation, scaled_parameters
        from repro.workloads import RIVERSIDE_COUNTY, QueryKind, seeded_events

        import repro.core.sbnn  # noqa: F401  (the package binds the function)

        module = sys.modules["repro.core.sbnn"]
        params = scaled_parameters(RIVERSIDE_COUNTY, area_scale=0.25)
        sim = Simulation(params, seed=0)
        sim.run_workload(QueryKind.KNN, 0, 3000)
        calls = []

        def both(query, heap, mvr, poi_density, min_correctness):
            everything = ResultHeap(heap.k)
            everything._entries = [
                HeapEntry(e.poi, e.distance, e.verified) for e in heap
            ]
            annotate_heap(query, everything, mvr, poi_density)
            counts = annotate_heap(query, heap, mvr, poi_density, min_correctness)
            calls.append((query, heap, everything, mvr, min_correctness, counts))
            return counts

        events = seeded_events(
            params, QueryKind.KNN, 1, 1500, start_time=sim.env.now
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "annotate_heap", both)
            records = [sim.execute_query(e).record for e in events]
        return calls, records

    def test_same_resolution_and_equal_annotations(self, annotating_queries):
        calls, records = annotating_queries
        assert len(calls) >= 700

        def accepted(heap, threshold):
            return all(
                (e.correctness or 0.0) >= threshold
                for e in heap.unverified_entries
            )

        approximate = stopped = 0
        for query, early, everything, mvr, threshold, counts in calls:
            assert accepted(early, threshold) == accepted(everything, threshold)
            pairs = list(zip(early.unverified_entries, everything.unverified_entries))
            assert all(b.correctness is not None for _, b in pairs)
            annotated = [(a, b) for a, b in pairs if a.correctness is not None]
            # a far-end suffix, each value the annotate-all pass's
            assert annotated == pairs[len(pairs) - len(annotated):]
            assert len(annotated) == counts["annotated"]
            for a, b in annotated:
                assert a.correctness == b.correctness
                assert a.surpassing_ratio == b.surpassing_ratio
            if accepted(early, threshold):
                approximate += 1
                assert len(annotated) == len(pairs)
            else:
                stopped += len(annotated) < len(pairs)
                assert annotated[0][0].correctness < threshold
        from repro.core import Resolution

        assert approximate == sum(
            r.resolution is Resolution.APPROXIMATE for r in records
        ) > 100
        assert stopped > 300  # the early stop is the common case here
