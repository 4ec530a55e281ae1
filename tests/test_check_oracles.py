"""Tests for the brute-force oracles of ``repro.check.oracles``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracles import (
    oracle_knn,
    oracle_knn_ids,
    oracle_union_area,
    oracle_window_ids,
    rects_pairwise_disjoint,
    world_digest,
)
from repro.geometry import Point, Rect, RectUnion
from repro.model import POI


def grid_pois():
    return [
        POI(poi_id, Point(float(x), float(y)))
        for poi_id, (x, y) in enumerate(
            (x, y) for x in range(3) for y in range(3)
        )
    ]


class TestOracleKnn:
    def test_ranks_by_distance(self):
        pois = grid_pois()
        ranked = oracle_knn(pois, Point(0.0, 0.0), 3)
        assert [poi_id for _, poi_id in ranked] == [0, 1, 3]
        assert ranked[0][0] == 0.0

    def test_ties_break_by_poi_id(self):
        pois = [POI(7, Point(1, 0)), POI(3, Point(0, 1)), POI(5, Point(-1, 0))]
        assert oracle_knn_ids(pois, Point(0, 0), 3) == [3, 5, 7]

    def test_k_clamps_to_world(self):
        pois = grid_pois()
        assert len(oracle_knn(pois, Point(0, 0), 50)) == len(pois)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            oracle_knn(grid_pois(), Point(0, 0), -1)


class TestOracleWindow:
    def test_closed_boundaries(self):
        pois = grid_pois()
        ids = oracle_window_ids(pois, Rect(0, 0, 1, 1))
        assert ids == [0, 1, 3, 4]

    def test_empty_window(self):
        assert oracle_window_ids(grid_pois(), Rect(5, 5, 6, 6)) == []


class TestOracleUnionArea:
    def test_disjoint_sum(self):
        rects = [Rect(0, 0, 1, 1), Rect(2, 0, 3, 2)]
        assert oracle_union_area(rects) == pytest.approx(3.0)
        assert rects_pairwise_disjoint(rects)

    def test_overlap_not_double_counted(self):
        rects = [Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)]
        assert oracle_union_area(rects) == pytest.approx(7.0)
        assert not rects_pairwise_disjoint(rects)

    def test_degenerate_rects_ignored(self):
        assert oracle_union_area([Rect(0, 0, 0, 5), Rect(1, 1, 1, 1)]) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8),
                st.integers(1, 4), st.integers(1, 4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_production_rect_union(self, raw):
        rects = [Rect(x, y, x + w, y + h) for x, y, w, h in raw]
        assert oracle_union_area(rects) == pytest.approx(
            RectUnion(rects).area, rel=1e-12
        )


class TestWorldDigest:
    def test_order_independent(self):
        pois = grid_pois()
        assert world_digest(pois) == world_digest(list(reversed(pois)))

    def test_sensitive_to_coordinates(self):
        pois = grid_pois()
        moved = pois[:-1] + [POI(pois[-1].poi_id, Point(99.0, 99.0))]
        assert world_digest(pois) != world_digest(moved)
