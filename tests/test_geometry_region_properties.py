"""Hypothesis property tests for :class:`RectUnion`.

Seeded from the oracle harness: the independent coordinate-compression
area oracle (:func:`repro.check.oracles.oracle_union_area`) referees
the production slab decomposition over random rectangle sets, and the
set-algebra contracts (covers/contains/subtract consistency,
idempotence) are stated as properties rather than examples.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracles import oracle_union_area, rects_pairwise_disjoint
from repro.geometry import Point, Rect, RectUnion

# Integer corner coordinates keep every predicate exact: any float
# rounding at all would turn "equality iff disjoint" into a tolerance
# judgement call.
rect_strategy = st.tuples(
    st.integers(0, 10), st.integers(0, 10), st.integers(1, 5), st.integers(1, 5)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

rect_lists = st.lists(rect_strategy, min_size=1, max_size=7)


class TestAreaProperties:
    @given(rect_lists)
    @settings(max_examples=80, deadline=None)
    def test_area_at_most_sum_with_equality_iff_disjoint(self, rects):
        union = RectUnion(rects)
        total = sum(r.area for r in rects)
        assert union.area <= total + 1e-9
        if rects_pairwise_disjoint(rects):
            assert union.area == pytest.approx(total, rel=1e-12)
        else:
            assert union.area < total

    @given(rect_lists)
    @settings(max_examples=80, deadline=None)
    def test_area_matches_independent_oracle(self, rects):
        assert RectUnion(rects).area == pytest.approx(
            oracle_union_area(rects), rel=1e-12
        )


class TestSetAlgebraConsistency:
    @given(rect_lists, rect_strategy)
    @settings(max_examples=80, deadline=None)
    def test_covers_contains_subtract_agree(self, rects, window):
        union = RectUnion(rects)
        remainder = union.subtract_from_rect(window)
        covers = union.covers_rect(window)
        # covers_rect <=> nothing remains after subtraction.
        assert covers == (not remainder)
        # Remainder pieces tile window - union: disjoint, inside the
        # window, outside the union, and area-consistent.
        assert rects_pairwise_disjoint(remainder)
        for piece in remainder:
            assert window.x1 <= piece.x1 and piece.x2 <= window.x2
            assert window.y1 <= piece.y1 and piece.y2 <= window.y2
            assert not union.contains_point(piece.center)
        clipped = [
            r
            for r in (rect.intersection(window) for rect in rects)
            if r is not None
        ]
        covered_area = oracle_union_area(clipped)
        remainder_area = sum(r.area for r in remainder)
        assert covered_area + remainder_area == pytest.approx(
            window.area, rel=1e-12
        )
        # Containment sampling agrees with coverage: every sampled
        # point of a covered window is inside the union.
        if covers:
            for x in (window.x1, window.x2):
                for y in (window.y1, window.y2):
                    assert union.contains_point(Point(x, y))
            assert union.contains_point(window.center)

    @given(rect_lists)
    @settings(max_examples=80, deadline=None)
    def test_union_with_covered_rects_is_idempotent(self, rects):
        union = RectUnion(rects)
        again = RectUnion(rects + union.disjoint_rects())
        assert again.area == pytest.approx(union.area, rel=1e-12)
        again_inputs = RectUnion(rects + rects)
        assert again_inputs.area == pytest.approx(union.area, rel=1e-12)

    @given(rect_lists, rect_lists)
    @settings(max_examples=60, deadline=None)
    def test_union_is_monotone(self, base, extra):
        grown = RectUnion(base + extra)
        assert grown.area >= RectUnion(base).area - 1e-12
        assert grown.area >= RectUnion(extra).area - 1e-12


class TestDegenerateCoversRect:
    """Regression: segment coverage must see *every* hole it crosses."""

    def make_striped_union(self):
        # Three horizontal stripes with two gaps between them.
        return RectUnion([Rect(0, 0, 1, 1), Rect(0, 2, 1, 3), Rect(0, 4, 1, 5)])

    def test_vertical_segment_across_two_holes_not_covered(self):
        union = self.make_striped_union()
        # Corners (y=0.5, y=4.5) and midpoint (y=2.5) all lie inside
        # stripes, but the segment crosses the two gaps.
        window = Rect(0.5, 0.5, 0.5, 4.5)
        assert not union.covers_rect(window)
        assert union.subtract_from_rect(window) == [window]

    def test_horizontal_segment_across_gap_not_covered(self):
        union = RectUnion([Rect(0, 0, 1, 1), Rect(2, 0, 3, 1), Rect(4, 0, 5, 1)])
        window = Rect(0.5, 0.5, 4.5, 0.5)
        assert not union.covers_rect(window)

    def test_covered_segments_and_points(self):
        union = self.make_striped_union()
        assert union.covers_rect(Rect(0.2, 0.1, 0.2, 0.9))  # inside a stripe
        assert union.covers_rect(Rect(0.1, 2.5, 0.9, 2.5))  # horizontal
        assert union.covers_rect(Rect(0.5, 4.5, 0.5, 4.5))  # point
        assert not union.covers_rect(Rect(0.5, 1.5, 0.5, 1.5))  # point in gap

    def test_segment_on_slab_boundary(self):
        union = RectUnion([Rect(0, 0, 1, 2), Rect(1, 1, 2, 3)])
        # x = 1 is a slab boundary: both closed slabs contribute, so
        # y in [0, 3] is fully covered there.
        assert union.covers_rect(Rect(1, 0, 1, 3))
        assert not union.covers_rect(Rect(1, 0, 1, 3.5))

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_vertical_segment_matches_pointwise_sampling(
        self, origins, x2, ya, yb
    ):
        rects = [Rect(x, y, x + 1, y + 1) for x, y in origins]
        union = RectUnion(rects)
        y1, y2 = min(ya, yb), max(ya, yb)
        window = Rect(x2, y1, x2, y2)
        covered = union.covers_rect(window)
        # Dense sampling along the segment is a sound refuter: if any
        # sampled point is outside, the segment is not covered.
        samples = 64
        for i in range(samples + 1):
            y = y1 + (y2 - y1) * i / samples
            if not union.contains_point(Point(float(x2), float(y))):
                assert not covered
                return
        # All integer-grid holes are wider than the sample spacing, so
        # full sample coverage implies true coverage here.
        assert covered

    def test_empty_union_covers_nothing_degenerate(self):
        empty = RectUnion()
        assert not empty.covers_rect(Rect(0, 0, 0, 1))
        assert not empty.covers_rect(Rect(0, 0, 1, 0))
        assert not empty.covers_rect(Rect(0, 0, 0, 0))

    def test_point_window(self):
        union = RectUnion([Rect(0, 0, 1, 1)])
        assert union.covers_rect(Rect(1, 1, 1, 1))
        assert not union.covers_rect(Rect(1.5, 1.5, 1.5, 1.5))
        assert math.isclose(union.area, 1.0)
