"""Unit tests for points."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point

coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_distance_matches_hypot(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 7.25)
        assert a.distance_to(b) == b.distance_to(a)

    def test_iteration_and_tuple(self):
        p = Point(2.0, 5.0)
        assert tuple(p) == (2.0, 5.0)

    def test_points_are_hashable_value_objects(self):
        assert {Point(1, 2), Point(1, 2)} == {Point(1, 2)}

    @given(coords, coords, coords, coords)
    def test_triangle_inequality(self, ax, ay, bx, by):
        a, b, origin = Point(ax, ay), Point(bx, by), Point(0, 0)
        assert a.distance_to(b) <= a.distance_to(origin) + origin.distance_to(
            b
        ) + 1e-9
