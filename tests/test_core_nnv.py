"""Tests for NNV (Algorithm 1) and Lemma 3.1 soundness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import merge_verified_regions, nnv
from repro.geometry import Point, Rect
from repro.index import brute_force_knn
from repro.model import POI
from repro.p2p import ShareResponse


def response(peer_id, rects, pois):
    return ShareResponse(peer_id, tuple(rects), tuple(pois))


class TestMergeRegions:
    def test_merge_is_union(self):
        responses = [
            response(0, [Rect(0, 0, 4, 4)], []),
            response(1, [Rect(2, 2, 6, 6)], []),
        ]
        mvr = merge_verified_regions(responses)
        x1, y1, x2, y2 = mvr.piece_table()  # disjoint pieces of the union
        assert float(((x2 - x1) * (y2 - y1)).sum()) == pytest.approx(16 + 16 - 4)

    def test_no_responses_is_empty(self):
        assert merge_verified_regions([]).is_empty


class TestNNVFigure5:
    """The paper's Figure 5: o1 verified because ||q,o1|| <= ||q,e1||."""

    def make(self):
        vr1 = Rect(0, 0, 6, 4)
        vr2 = Rect(2, 2, 8, 8)
        q = Point(4, 3)
        o1 = POI(1, Point(4.5, 3.0))  # 0.5 from q — within the safe disc
        o_far = POI(2, Point(7.5, 7.5))  # inside MVR but past the boundary
        responses = [
            response(0, [vr1], [o1]),
            response(1, [vr2], [o_far]),
        ]
        return q, responses

    def test_nearest_is_verified(self):
        q, responses = self.make()
        heap, read = nnv(q, responses, k=2)
        mvr = read.mvr
        assert mvr.contains_point(q)
        entries = heap.entries
        assert entries[0].poi.poi_id == 1
        assert entries[0].verified

    def test_distant_candidate_not_verified(self):
        q, responses = self.make()
        heap, _ = nnv(q, responses, k=2)
        far = [e for e in heap if e.poi.poi_id == 2][0]
        assert not far.verified


class TestNNVFigure6:
    """Figure 6/7: an interior hole blocks verification of o4."""

    def make(self):
        # Frame of VRs around the hole (2,2)-(4,4), inside (1,1)-(5,5).
        frame = [
            Rect(1, 1, 5, 2),
            Rect(1, 4, 5, 5),
            Rect(1, 2, 2, 4),
            Rect(4, 2, 5, 4),
        ]
        q = Point(1.5, 3.0)
        near = POI(1, Point(1.6, 3.0))  # 0.1 away, inside the safe disc
        beyond_hole = POI(4, Point(4.5, 3.0))  # hole lies between q and it
        responses = [response(i, [r], []) for i, r in enumerate(frame)]
        responses.append(response(9, [frame[2]], [near]))
        responses.append(response(10, [frame[3]], [beyond_hole]))
        return q, responses

    def test_hole_blocks_verification(self):
        q, responses = self.make()
        heap, read = nnv(q, responses, k=2)
        mvr = read.mvr
        # Boundary distance is 0.5 (the hole's left edge).
        assert mvr.distance_to_boundary(q) == pytest.approx(0.5)
        assert read.boundary_distance == mvr.distance_to_boundary(q)
        by_id = {e.poi.poi_id: e for e in heap}
        assert by_id[1].verified
        assert not by_id[4].verified


class TestNNVEdgeCases:
    def test_query_outside_mvr_verifies_nothing(self):
        responses = [
            response(0, [Rect(0, 0, 2, 2)], [POI(1, Point(1, 1))]),
        ]
        heap, read = nnv(Point(10, 10), responses, k=1)
        assert heap.verified_count == 0
        assert len(heap) == 1  # still a candidate, just unverified
        assert read.boundary_distance == -np.inf  # Lemma 3.1 cannot apply

    def test_no_peers(self):
        heap, read = nnv(Point(0, 0), [], k=3)
        mvr = read.mvr
        assert len(heap) == 0
        assert mvr.is_empty

    def test_pois_outside_mvr_ignored(self):
        responses = [
            response(0, [Rect(0, 0, 2, 2)], [POI(1, Point(1, 1)), POI(2, Point(9, 9))]),
        ]
        heap, _ = nnv(Point(1, 1), responses, k=5)
        assert [e.poi.poi_id for e in heap] == [1]

    def test_duplicate_pois_across_peers_deduplicated(self):
        poi = POI(1, Point(1, 1))
        responses = [
            response(0, [Rect(0, 0, 2, 2)], [poi]),
            response(1, [Rect(0, 0, 2, 2)], [poi]),
        ]
        heap, _ = nnv(Point(1, 1), responses, k=5)
        assert len(heap) == 1

    def test_verified_entries_precede_unverified(self):
        # A single threshold splits the sorted candidates.
        vr = Rect(0, 0, 10, 10)
        pois = [POI(i, Point(5 + 0.4 * i, 5)) for i in range(8)]
        responses = [response(0, [vr], pois)]
        heap, _ = nnv(Point(5, 5), responses, k=8)
        flags = [e.verified for e in heap]
        assert flags == sorted(flags, reverse=True)


class TestLemma31Soundness:
    """Property: verified entries are *exactly* the global top-v NNs,
    even though peers only see their own verified regions."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_verified_prefix_matches_global_knn(self, seed, k):
        rng = np.random.default_rng(seed)
        world = Rect(0, 0, 20, 20)
        server_pois = [
            POI(i, Point(float(x), float(y)))
            for i, (x, y) in enumerate(rng.uniform(0, 20, (120, 2)))
        ]
        responses = []
        for peer_id in range(int(rng.integers(1, 6))):
            x1, y1 = rng.uniform(0, 14, 2)
            vr = Rect(x1, y1, x1 + rng.uniform(1, 6), y1 + rng.uniform(1, 6))
            inside = [p for p in server_pois if vr.contains_point(p.location)]
            responses.append(response(peer_id, [vr], inside))
        # Query from inside the first peer's VR so Lemma 3.1 can bite.
        first_vr = responses[0].regions[0]
        u, v = (float(t) for t in rng.uniform(0.2, 0.8, 2))
        q = Point(
            first_vr.x1 + u * first_vr.width, first_vr.y1 + v * first_vr.height
        )

        heap, read = nnv(q, responses, k)
        mvr = read.mvr

        verified = heap.verified_entries
        truth = brute_force_knn(server_pois, q, len(verified))
        got_ids = sorted(e.poi.poi_id for e in verified)
        want_ids = sorted(e.poi.poi_id for e in truth)
        # Allow distance ties to swap identities.
        got_d = sorted(e.distance for e in verified)
        want_d = sorted(e.distance for e in truth)
        assert got_d == pytest.approx(want_d)
        if got_ids != want_ids:  # only acceptable under exact ties
            assert len(set(got_d)) < len(got_d)
