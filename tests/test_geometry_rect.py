"""Unit and property tests for axis-aligned rectangles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Rect

coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    w = draw(st.floats(0, 100, allow_nan=False))
    h = draw(st.floats(0, 100, allow_nan=False))
    return Rect(x1, y1, x1 + w, y1 + h)


class TestConstruction:
    def test_malformed_raises(self):
        with pytest.raises(GeometryError):
            Rect(1, 0, 0, 1)
        with pytest.raises(GeometryError):
            Rect(0, 1, 1, 0)

    def test_bounding(self):
        r = Rect.bounding([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert r == Rect(0, -1, 3, 1)

    def test_bounding_empty_raises(self):
        with pytest.raises(GeometryError):
            Rect.bounding([])


class TestMeasures:
    def test_dimensions(self):
        r = Rect(0, 0, 4, 3)
        assert (r.width, r.height, r.area) == (4, 3, 12)
        assert r.center == Point(2, 1.5)

    def test_degenerate(self):
        assert Rect(0, 0, 0, 5).is_degenerate()
        assert Rect(0, 0, 5, 0).is_degenerate()
        assert not Rect(0, 0, 1, 1).is_degenerate()


class TestPredicates:
    def test_contains_point_closed(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(2, 2))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(2.0001, 1))

    def test_contains_rect(self):
        # Containment, read off the intersection: inner survives whole.
        outer = Rect(0, 0, 10, 10)
        assert outer.intersection(Rect(1, 1, 9, 9)) == Rect(1, 1, 9, 9)
        assert outer.intersection(outer) == outer
        assert outer.intersection(Rect(1, 1, 11, 9)) == Rect(1, 1, 10, 9)

    def test_overlaps_interior(self):
        # Abutting rectangles share an edge of zero area; overlapping
        # ones share a rectangle of positive area.
        assert Rect(0, 0, 1, 1).intersection(Rect(1, 0, 2, 1)).area == 0.0
        assert Rect(0, 0, 1, 1).intersection(Rect(0.5, 0.5, 2, 2)).area == 0.25

    def test_intersects_closed(self):
        # Shared boundary counts: touching corners meet in a point.
        assert Rect(0, 0, 1, 1).intersection(Rect(1, 1, 2, 2)) == Rect(1, 1, 1, 1)
        assert Rect(0, 0, 1, 1).intersection(Rect(1.01, 1.01, 2, 2)) is None


class TestCombinators:
    def test_intersection(self):
        out = Rect(0, 0, 4, 4).intersection(Rect(2, 2, 6, 6))
        assert out == Rect(2, 2, 4, 4)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_union_mbr(self):
        assert Rect(0, 0, 1, 1).union_mbr(Rect(3, -1, 4, 0.5)) == Rect(
            0, -1, 4, 1
        )

    def test_expanded(self):
        assert Rect(0, 0, 2, 2).expanded(1) == Rect(-1, -1, 3, 3)
        assert Rect(0, 0, 4, 4).expanded(-1) == Rect(1, 1, 3, 3)

    def test_expanded_too_much_raises(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 2, 2).expanded(-1.5)


class TestDistances:
    def test_distance_inside_is_zero(self):
        assert Rect(0, 0, 2, 2).distance_to_point(Point(1, 1)) == 0.0

    def test_distance_outside(self):
        assert Rect(0, 0, 2, 2).distance_to_point(Point(5, 6)) == 5.0

    def test_max_distance(self):
        assert Rect(0, 0, 3, 4).max_distance_to_point(Point(0, 0)) == 5.0


class TestProperties:
    @given(rects(), rects())
    def test_intersection_area_never_exceeds_either(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert inter.area <= a.area + 1e-6
            assert inter.area <= b.area + 1e-6

    @given(rects(), rects())
    def test_union_mbr_contains_both(self, a, b):
        u = a.union_mbr(b)
        assert u.intersection(a) == a
        assert u.intersection(b) == b

    @given(rects(), coords, coords)
    def test_distance_zero_iff_contains(self, r, px, py):
        p = Point(px, py)
        if r.contains_point(p):
            assert r.distance_to_point(p) == 0.0
        else:
            assert r.distance_to_point(p) > 0.0

    @given(rects(), coords, coords)
    def test_max_distance_bounds_min_distance(self, r, px, py):
        p = Point(px, py)
        assert r.max_distance_to_point(p) >= r.distance_to_point(p)

    @given(rects())
    def test_corners_are_contained(self, r):
        for x in (r.x1, r.x2):
            for y in (r.y1, r.y2):
                assert r.contains_point(Point(x, y))
