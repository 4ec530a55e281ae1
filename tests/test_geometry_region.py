"""Tests for the rectangle-union region algebra (the MVR machinery)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    Circle,
    Point,
    Rect,
    RectUnion,
    intervals_complement_within,
    intervals_cover,
    intervals_difference,
    intervals_total_length,
    merge_intervals,
)


def overlap_area(p, q):
    """Area two rectangles share (0 when they only touch)."""
    shared = p.intersection(q)
    return 0.0 if shared is None else shared.area


class TestIntervalAlgebra:
    def test_merge_overlapping(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_touching(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(1, 1), (3, 2)]) == []

    def test_cover(self):
        merged = [(0, 2), (3, 5)]
        assert intervals_cover(merged, 0.5, 1.5)
        assert intervals_cover(merged, 0, 2)
        assert not intervals_cover(merged, 1, 4)

    def test_cover_inverted_raises(self):
        with pytest.raises(GeometryError):
            intervals_cover([(0, 1)], 1, 0)

    def test_complement_within(self):
        merged = [(1, 2), (3, 4)]
        assert intervals_complement_within(merged, 0, 5) == [
            (0, 1),
            (2, 3),
            (4, 5),
        ]
        assert intervals_complement_within(merged, 1, 4) == [(2, 3)]
        assert intervals_complement_within([], 0, 1) == [(0, 1)]

    def test_difference(self):
        assert intervals_difference([(0, 10)], [(2, 3), (5, 6)]) == [
            (0, 2),
            (3, 5),
            (6, 10),
        ]
        assert intervals_difference([(0, 1)], [(0, 1)]) == []

    def test_total_length(self):
        assert intervals_total_length([(0, 1), (2, 4)]) == 3.0


class TestRectUnionBasics:
    def test_empty(self):
        region = RectUnion()
        assert region.is_empty
        assert region.area == 0.0
        assert not region.contains_point(Point(0, 0))
        with pytest.raises(GeometryError):
            region.mbr()
        with pytest.raises(GeometryError):
            region.distance_to_boundary(Point(0, 0))

    def test_degenerate_inputs_dropped(self):
        region = RectUnion([Rect(0, 0, 0, 5), Rect(1, 1, 4, 1)])
        assert region.is_empty

    def test_single_rect(self):
        r = Rect(0, 0, 4, 2)
        region = RectUnion([r])
        assert region.area == 8.0
        assert region.mbr() == r
        assert region.contains_point(Point(2, 1))
        assert region.contains_point(Point(0, 0))
        assert not region.contains_point(Point(4.1, 1))

    def test_two_overlapping_rects_inclusion_exclusion(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(2, 2, 6, 6)
        region = RectUnion([a, b])
        overlap = a.intersection(b).area
        assert region.area == pytest.approx(a.area + b.area - overlap)

    def test_identical_rects_counted_once(self):
        region = RectUnion([Rect(0, 0, 2, 2)] * 5)
        assert region.area == 4.0

    def test_disjoint_rects_partition(self):
        region = RectUnion([Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)])
        pieces = region.disjoint_rects()
        assert sum(p.area for p in pieces) == pytest.approx(region.area)
        for i, p in enumerate(pieces):
            for q in pieces[i + 1 :]:
                assert overlap_area(p, q) == 0.0


class TestRectUnionContainment:
    def test_point_on_internal_slab_boundary(self):
        # Two touching rects: x = 2 is an internal slab boundary.
        region = RectUnion([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)])
        assert region.contains_point(Point(2, 1))
        assert region.contains_point(Point(2, 0))

    def test_point_on_right_edge(self):
        region = RectUnion([Rect(0, 0, 2, 2)])
        assert region.contains_point(Point(2, 2))

    def test_hole_is_outside(self):
        # A 1-thick frame around the unit hole (2,2)-(4,4).
        frame = [
            Rect(1, 1, 5, 2),
            Rect(1, 4, 5, 5),
            Rect(1, 2, 2, 4),
            Rect(4, 2, 5, 4),
        ]
        region = RectUnion(frame)
        assert not region.contains_point(Point(3, 3))
        assert region.contains_point(Point(1.5, 3))
        assert region.area == pytest.approx(16 - 4)

    def test_covers_rect(self):
        region = RectUnion([Rect(0, 0, 4, 4), Rect(4, 0, 8, 4)])
        assert region.covers_rect(Rect(1, 1, 7, 3))
        assert region.covers_rect(Rect(0, 0, 8, 4))
        assert not region.covers_rect(Rect(1, 1, 9, 3))
        assert not region.covers_rect(Rect(-1, 1, 2, 2))

    def test_covers_rect_fails_over_hole(self):
        frame = [
            Rect(1, 1, 5, 2),
            Rect(1, 4, 5, 5),
            Rect(1, 2, 2, 4),
            Rect(4, 2, 5, 4),
        ]
        region = RectUnion(frame)
        assert not region.covers_rect(Rect(1.5, 1.5, 4.5, 4.5))
        assert region.covers_rect(Rect(1, 1, 5, 2))

    def test_covers_degenerate_window(self):
        region = RectUnion([Rect(0, 0, 2, 2)])
        assert region.covers_rect(Rect(1, 0.5, 1, 1.5))
        assert not region.covers_rect(Rect(3, 0, 3, 1))


class TestRectUnionSubtraction:
    def test_subtract_from_uncovered_window(self):
        region = RectUnion([Rect(10, 10, 11, 11)])
        window = Rect(0, 0, 2, 2)
        remainder = region.subtract_from_rect(window)
        assert sum(r.area for r in remainder) == pytest.approx(window.area)

    def test_subtract_fully_covered_window(self):
        region = RectUnion([Rect(0, 0, 10, 10)])
        assert region.subtract_from_rect(Rect(1, 1, 5, 5)) == []

    def test_subtract_partial(self):
        region = RectUnion([Rect(0, 0, 4, 4)])
        window = Rect(2, 1, 6, 3)
        remainder = region.subtract_from_rect(window)
        assert sum(r.area for r in remainder) == pytest.approx(4.0)
        for r in remainder:
            assert window.intersection(r) == r
            assert not region.contains_point(r.center)

    def test_subtract_empty_region_returns_window(self):
        assert RectUnion().subtract_from_rect(Rect(0, 0, 1, 1)) == [
            Rect(0, 0, 1, 1)
        ]

    def test_subtract_window_with_hole(self):
        frame = [
            Rect(1, 1, 5, 2),
            Rect(1, 4, 5, 5),
            Rect(1, 2, 2, 4),
            Rect(4, 2, 5, 4),
        ]
        region = RectUnion(frame)
        remainder = region.subtract_from_rect(Rect(1, 1, 5, 5))
        assert sum(r.area for r in remainder) == pytest.approx(4.0)

    def test_remainder_pieces_disjoint(self):
        region = RectUnion([Rect(0, 0, 3, 3), Rect(5, 0, 6, 6)])
        remainder = region.subtract_from_rect(Rect(-1, -1, 7, 7))
        for i, p in enumerate(remainder):
            for q in remainder[i + 1 :]:
                assert overlap_area(p, q) == 0.0


class TestRectUnionBoundary:
    def test_single_rect_boundary_distance(self):
        region = RectUnion([Rect(0, 0, 4, 2)])
        assert region.distance_to_boundary(Point(1, 1)) == 1.0
        assert region.distance_to_boundary(Point(3.5, 0.75)) == 0.5
        assert region.distance_to_boundary(Point(4, 2)) == 0.0  # a corner
        assert region.distance_to_boundary(Point(7, 6)) == 5.0  # outside

    def test_cross_shape_boundary_distance(self):
        region = RectUnion([Rect(-3, -1, 3, 1), Rect(-1, -3, 1, 3)])
        # The segments of the bars' edges interior to the cross are not
        # boundary; the nearest true boundary from the origin is the
        # re-entrant corner at (±1, ±1), sqrt(2) away.
        assert region.distance_to_boundary(Point(0, 0)) == pytest.approx(
            math.sqrt(2)
        )
        # Off-centre inside the horizontal bar, the bar edge dominates.
        assert region.distance_to_boundary(Point(2, 0)) == pytest.approx(1.0)

    def test_hole_boundary_counts(self):
        frame = [
            Rect(0, 0, 6, 2),
            Rect(0, 4, 6, 6),
            Rect(0, 2, 2, 4),
            Rect(4, 2, 6, 4),
        ]
        region = RectUnion(frame)
        # Point inside the material, nearest boundary is the hole edge.
        p = Point(1.5, 3)
        assert region.contains_point(p)
        assert region.distance_to_boundary(p) == pytest.approx(0.5)
        # From the hole's centre the whole hole edge is 1 away.
        assert not region.contains_point(Point(3, 3))
        assert region.distance_to_boundary(Point(3, 3)) == pytest.approx(1.0)

    def test_merged_rect_has_no_internal_boundary(self):
        region = RectUnion([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)])
        # Centre of the merged block is 1 from the boundary, not 0.
        assert region.distance_to_boundary(Point(2, 1)) == pytest.approx(1.0)

    def test_contains_circle(self):
        region = RectUnion([Rect(0, 0, 10, 10)])
        assert region.contains_circle(Circle(Point(5, 5), 4.9))
        assert not region.contains_circle(Circle(Point(5, 5), 5.1))
        assert not region.contains_circle(Circle(Point(20, 20), 1))
        assert not RectUnion().contains_circle(Circle(Point(0, 0), 1))


class TestRectUnionDisc:
    def test_disc_intersection_area_inside(self):
        region = RectUnion([Rect(-10, -10, 10, 10)])
        c = Circle(Point(0, 0), 2)
        assert region.disc_intersection_area(c) == pytest.approx(c.area)
        assert region.disc_uncovered_area(c) == pytest.approx(0.0)

    def test_disc_uncovered_half(self):
        region = RectUnion([Rect(0, -10, 10, 10)])
        c = Circle(Point(0, 0), 2)
        assert region.disc_uncovered_area(c) == pytest.approx(c.area / 2)

    def test_disc_outside(self):
        region = RectUnion([Rect(0, 0, 1, 1)])
        c = Circle(Point(10, 10), 1)
        assert region.disc_uncovered_area(c) == pytest.approx(c.area)

    def test_disc_overlap_not_double_counted(self):
        # Two heavily overlapping rects must not double-count disc area.
        region = RectUnion([Rect(-5, -5, 5, 5), Rect(-4, -4, 6, 6)])
        c = Circle(Point(0, 0), 1)
        assert region.disc_intersection_area(c) == pytest.approx(c.area)


rect_strategy = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.1, 30),
    st.floats(0.1, 30),
)


class TestRectUnionProperties:
    @given(st.lists(rect_strategy, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_area_vs_monte_carlo(self, rects):
        region = RectUnion(rects)
        mbr = region.mbr()
        rng = np.random.default_rng(42)
        n = 20_000
        xs = rng.uniform(mbr.x1, mbr.x2, n)
        ys = rng.uniform(mbr.y1, mbr.y2, n)
        inside = np.zeros(n, dtype=bool)
        for r in rects:
            inside |= (xs >= r.x1) & (xs <= r.x2) & (ys >= r.y1) & (ys <= r.y2)
        estimate = mbr.area * inside.mean()
        assert region.area == pytest.approx(
            estimate, rel=0.08, abs=0.08 * mbr.area
        )

    @given(st.lists(rect_strategy, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_area_bounds(self, rects):
        region = RectUnion(rects)
        assert region.area <= sum(r.area for r in rects) + 1e-6
        assert region.area >= max(r.area for r in rects) - 1e-6
        assert region.area <= region.mbr().area + 1e-6

    @given(st.lists(rect_strategy, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_input_rects_are_covered(self, rects):
        region = RectUnion(rects)
        for r in rects:
            assert region.covers_rect(r)
            assert region.contains_point(r.center)

    @given(st.lists(rect_strategy, min_size=1, max_size=6), rect_strategy)
    @settings(max_examples=100)
    def test_subtraction_partitions_window(self, rects, window):
        region = RectUnion(rects)
        remainder = region.subtract_from_rect(window)
        covered = window.area - sum(r.area for r in remainder)
        # covered must equal area(window ∩ region)
        clipped = RectUnion(
            [r.intersection(window) for r in rects if r.intersection(window)]
        )
        assert covered == pytest.approx(clipped.area, abs=1e-6)

    @given(st.lists(rect_strategy, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_interior_disc_fits(self, rects):
        region = RectUnion(rects)
        p = rects[0].center
        d = region.distance_to_boundary(p)
        if d > 1e-9:
            assert region.contains_circle(Circle(p, d * 0.999))
