"""Tests for discs and the exact circle-rectangle intersection area.

The closed-form area is validated against Monte-Carlo estimates and
against analytically known configurations (full containment, half
planes, quadrants).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Circle, Point, Rect, circle_rect_intersection_area


def mc_area(circle, rect, n=200_000, seed=7):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(rect.x1, rect.x2, n)
    ys = rng.uniform(rect.y1, rect.y2, n)
    inside = (xs - circle.center.x) ** 2 + (ys - circle.center.y) ** 2 <= (
        circle.radius**2
    )
    return rect.area * inside.mean()


class TestCircleBasics:
    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            Circle(Point(0, 0), -1)

    def test_area(self):
        assert Circle(Point(0, 0), 2).area == pytest.approx(4 * math.pi)

    def test_mbr(self):
        assert Circle(Point(1, 2), 3).mbr() == Rect(-2, -1, 4, 5)

    def test_inscribed_rect_is_contained(self):
        c = Circle(Point(0, 0), 2)
        sq = c.inscribed_rect()
        assert c.contains_rect(sq)
        assert sq.area == pytest.approx(2 * c.radius**2)

    def test_intersects_rect(self):
        c = Circle(Point(0, 0), 1)
        assert c.intersects_rect(Rect(0.5, 0.5, 2, 2))
        assert not c.intersects_rect(Rect(2, 2, 3, 3))

    def test_contains_rect(self):
        c = Circle(Point(0, 0), 5)
        assert c.contains_rect(Rect(-3, -3, 3, 3))
        assert not c.contains_rect(Rect(-5, -5, 5, 5))


class TestIntersectionAreaExactCases:
    def test_rect_inside_circle(self):
        c = Circle(Point(0, 0), 10)
        r = Rect(-1, -1, 1, 1)
        assert circle_rect_intersection_area(c, r) == pytest.approx(4.0)

    def test_circle_inside_rect(self):
        c = Circle(Point(0, 0), 1)
        r = Rect(-5, -5, 5, 5)
        assert circle_rect_intersection_area(c, r) == pytest.approx(math.pi)

    def test_disjoint(self):
        c = Circle(Point(0, 0), 1)
        assert circle_rect_intersection_area(c, Rect(2, 2, 3, 3)) == 0.0

    def test_half_plane(self):
        c = Circle(Point(0, 0), 1)
        r = Rect(0, -2, 2, 2)
        assert circle_rect_intersection_area(c, r) == pytest.approx(math.pi / 2)

    def test_quadrant(self):
        c = Circle(Point(0, 0), 2)
        r = Rect(0, 0, 5, 5)
        assert circle_rect_intersection_area(c, r) == pytest.approx(math.pi)

    def test_zero_radius(self):
        c = Circle(Point(0, 0), 0)
        assert circle_rect_intersection_area(c, Rect(-1, -1, 1, 1)) == 0.0

    def test_degenerate_rect(self):
        c = Circle(Point(0, 0), 1)
        assert circle_rect_intersection_area(c, Rect(0, -1, 0, 1)) == 0.0

    def test_circular_segment(self):
        # Chord at x = 0.5 on the unit circle: segment area is
        # r^2 * (theta - sin(theta)) / 2 with theta = 2*acos(0.5).
        c = Circle(Point(0, 0), 1)
        r = Rect(0.5, -2, 2, 2)
        theta = 2 * math.acos(0.5)
        expected = (theta - math.sin(theta)) / 2
        assert circle_rect_intersection_area(c, r) == pytest.approx(expected)

    def test_translation_invariance(self):
        c0 = Circle(Point(0, 0), 1.5)
        r0 = Rect(-1, 0.2, 0.7, 3)
        c1 = Circle(Point(10, -7), 1.5)
        r1 = Rect(9, -6.8, 10.7, -4)
        assert circle_rect_intersection_area(c0, r0) == pytest.approx(
            circle_rect_intersection_area(c1, r1)
        )


class TestIntersectionAreaMonteCarlo:
    @pytest.mark.parametrize(
        "circle, rect",
        [
            (Circle(Point(0, 0), 1), Rect(-0.5, -0.5, 1.5, 0.8)),
            (Circle(Point(2, 3), 2.5), Rect(0, 0, 3, 3)),
            (Circle(Point(0, 0), 1), Rect(0.2, 0.2, 0.9, 0.9)),
            (Circle(Point(-1, -1), 3), Rect(-2, 0, 4, 1)),
            (Circle(Point(0, 0), 0.3), Rect(-1, -1, 1, 1)),
        ],
    )
    def test_matches_monte_carlo(self, circle, rect):
        exact = circle_rect_intersection_area(circle, rect)
        estimate = mc_area(circle, rect)
        assert exact == pytest.approx(estimate, abs=0.02 * max(1.0, rect.area))


small = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


class TestIntersectionAreaProperties:
    @given(small, small, st.floats(0.01, 4), small, small, st.floats(0.01, 5), st.floats(0.01, 5))
    @settings(max_examples=200)
    def test_bounded_by_both_areas(self, cx, cy, r, x1, y1, w, h):
        circle = Circle(Point(cx, cy), r)
        rect = Rect(x1, y1, x1 + w, y1 + h)
        area = circle_rect_intersection_area(circle, rect)
        assert -1e-9 <= area <= min(circle.area, rect.area) + 1e-9

    @given(small, small, st.floats(0.01, 4), small, small, st.floats(0.01, 5), st.floats(0.01, 5))
    @settings(max_examples=100)
    def test_additive_in_rect_split(self, cx, cy, r, x1, y1, w, h):
        circle = Circle(Point(cx, cy), r)
        rect = Rect(x1, y1, x1 + w, y1 + h)
        xm = x1 + w / 2
        left = Rect(x1, y1, xm, y1 + h)
        right = Rect(xm, y1, x1 + w, y1 + h)
        whole = circle_rect_intersection_area(circle, rect)
        parts = circle_rect_intersection_area(
            circle, left
        ) + circle_rect_intersection_area(circle, right)
        assert whole == pytest.approx(parts, abs=1e-7)
