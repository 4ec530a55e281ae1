"""The batched disc read (Lemma 3.2) vs one disc and one piece at a time.

``SlabUnion.piece_table`` is ``slabs_disjoint_rects`` as coordinate
arrays — read off the coverage grid by a lazy union, off the slab
intervals by a small one — and ``DiscPieces`` prices concentric discs
against it together.  The referee for both is the pure-Python sweep
and the scalar loop ``slabs_disc_intersection_area``: equality is
``==`` on floats and on order, as for every other grid read
(``tests/test_geometry_grid.py``).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Circle, Point, Rect, RectUnion, SlabUnion
from repro.geometry.region import (
    GRID_MIN_RECTS,
    slabs_disc_intersection_area,
    slabs_disjoint_rects,
    sweep_slabs,
)

from .test_geometry_grid import float_rect, lattice_rect, members

# Either side of GRID_MIN_RECTS: the slab-interval table and the grid
# one.  Lattice rectangles touch, nest and leave holes constantly.
rect_sets = st.one_of(
    st.lists(float_rect, min_size=1, max_size=GRID_MIN_RECTS - 1),
    st.lists(lattice_rect, min_size=1, max_size=GRID_MIN_RECTS - 1),
    st.lists(float_rect, min_size=GRID_MIN_RECTS, max_size=120),
    st.lists(lattice_rect, min_size=GRID_MIN_RECTS, max_size=120),
)
share = st.floats(0.0, 1.0)


def table_rects(union):
    return [Rect(*piece) for piece in zip(*(c.tolist() for c in union.piece_table()))]


def ring(filler):
    """A square ring (hole 1..2 x 1..2) of four touching members, plus
    ``filler`` unit squares far to the right."""
    return [
        Rect(0, 0, 3, 1), Rect(0, 2, 3, 3), Rect(0, 0, 1, 3), Rect(2, 0, 3, 3)
    ] + [Rect(10 + 2 * i, 0, 11 + 2 * i, 1) for i in range(filler)]


@st.composite
def unions_and_discs(draw):
    """A member set, and centres and radii aimed at every kind of
    contact: a disc inside one piece, one swallowing the union, one
    outside the MBR, a centre on a cut, and ``r = 0``."""
    rects = members(draw(rect_sets)) or [Rect(0, 0, 1, 1)]
    box = Rect.bounding(rects)
    pieces = slabs_disjoint_rects(*sweep_slabs(rects))
    piece = draw(st.sampled_from(pieces))
    a, b = draw(share), draw(share)
    diagonal = math.hypot(box.width, box.height)
    center = draw(
        st.sampled_from(
            [
                # inside one piece (the radii below start inside it)
                Point(piece.x1 + a * piece.width, piece.y1 + b * piece.height),
                # on a cut, and on a crossing of two
                Point(piece.x1, piece.y1 + b * piece.height),
                Point(piece.x2, piece.y2),
                # anywhere in the extent (holes included), and outside it
                Point(box.x1 + a * box.width, box.y1 + b * box.height),
                Point(box.x2 + 1.0 + a * diagonal, box.y1 - b * diagonal),
            ]
        )
    )
    inside = min(
        center.x - piece.x1, piece.x2 - center.x,
        center.y - piece.y1, piece.y2 - center.y,
    )
    far = box.max_distance_to_point(center)
    radii = sorted(
        {0.0, max(inside, 0.0) / 2.0, box.distance_to_point(center) / 2.0,
         a * far, b * far, far, 2.0 * far + 1.0}
    )
    return rects, center, radii


class TestPieceTable:
    @given(rect_sets)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_sweep_pieces_in_order(self, rects):
        rects = members(rects)
        union = SlabUnion.from_rects(rects)
        with mock.patch(
            "repro.geometry.slabunion.build_slabs",
            side_effect=AssertionError("the piece table built the slabs"),
        ):
            pieces = table_rects(union)
        assert pieces == slabs_disjoint_rects(*sweep_slabs(rects))
        assert ("slabs" not in union._memo) == (len(rects) >= GRID_MIN_RECTS)
        assert union.piece_table() is union.piece_table()  # memoised

    @pytest.mark.parametrize("filler", [0, GRID_MIN_RECTS])
    def test_hole_and_touching_members(self, filler):
        union = SlabUnion.from_rects(ring(filler))
        assert table_rects(union)[:4] == [
            Rect(0, 0, 1, 3),                    # merged across three members
            Rect(1, 0, 2, 1), Rect(1, 2, 2, 3),  # the hole splits this slab
            Rect(2, 0, 3, 3),
        ]
        assert len(union.piece_table()[0]) == 4 + filler
        assert ("slabs" not in union._memo) == bool(filler)

    def test_empty_union(self):
        union = SlabUnion.from_rects([Rect(1, 1, 1, 5)])
        assert [len(c) for c in union.piece_table()] == [0, 0, 0, 0]
        discs = union.disc_pieces(Point(0, 0), 2.0)
        assert discs.near == []
        assert discs.intersection_area(2.0) == 0.0
        assert discs.uncovered_area(2.0) == Circle(Point(0, 0), 2.0).area


class TestBatchedDiscRead:
    @given(unions_and_discs())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scalar_loop(self, drawn):
        rects, center, radii = drawn
        xs, slabs = sweep_slabs(rects)
        union = SlabUnion.from_rects(rects)
        discs = union.disc_pieces(center, radii[-1])
        expected = [
            slabs_disc_intersection_area(xs, slabs, Circle(center, r))
            for r in radii
        ]
        assert [discs.intersection_area(r) for r in radii] == expected
        # a batch of one is the same read
        assert [
            union.disc_intersection_area(Circle(center, r)) for r in radii
        ] == expected
        assert [discs.uncovered_area(r) for r in radii] == [
            RectUnion(rects).disc_uncovered_area(Circle(center, r))
            for r in radii
        ]
        assert ("slabs" not in union._memo) == (len(rects) >= GRID_MIN_RECTS)

    @given(unions_and_discs())
    @settings(max_examples=100, deadline=None)
    def test_area_conservation_and_monotone_u(self, drawn):
        rects, center, radii = drawn
        discs = SlabUnion.from_rects(rects).disc_pieces(center, radii[-1])
        uncovered = [discs.uncovered_area(r) for r in radii]
        for r, u in zip(radii, uncovered):
            disc = math.pi * r * r
            assert 0.0 <= u <= disc
            assert discs.intersection_area(r) + u == pytest.approx(
                disc, rel=1e-9, abs=1e-9
            )
        slack = 1e-9 * max(1.0, math.pi * radii[-1] ** 2)
        for near, far in zip(uncovered, uncovered[1:]):
            assert far >= near - slack

    @pytest.mark.parametrize("filler", [0, GRID_MIN_RECTS])
    def test_named_discs(self, filler):
        union = SlabUnion.from_rects(ring(filler))
        area = lambda x, y, r: union.disc_intersection_area(Circle(Point(x, y), r))
        # inside one piece; inside the hole; the hole plus a rim
        assert area(0.5, 1.5, 0.25) == pytest.approx(math.pi / 16)
        assert area(1.5, 1.5, 0.5) == 0.0
        assert area(1.5, 1.5, 1.0) == pytest.approx(math.pi - 1.0)
        # swallowing everything; outside the MBR; a point
        assert area(1.5, 1.5, 100.0) == pytest.approx(8.0 + filler)
        assert area(-5.0, -5.0, 1.0) == 0.0
        assert area(0.5, 0.5, 0.0) == 0.0
        # centred on a cut, tangent to the hole's far edge from inside
        assert area(1.0, 1.5, 0.5) == pytest.approx(math.pi / 8)

    def test_near_pieces_keep_piece_order_and_exact_distances(self):
        union = SlabUnion.from_rects(ring(GRID_MIN_RECTS))
        center = Point(1.5, 1.5)
        discs = union.disc_pieces(center, 1.0)
        assert [piece for _, piece in discs.near] == slabs_disjoint_rects(
            *sweep_slabs(ring(GRID_MIN_RECTS))
        )[:4]
        assert [d for d, _ in discs.near] == [
            piece.distance_to_point(center) for _, piece in discs.near
        ]

    def test_radius_outside_the_prepared_reach(self):
        discs = SlabUnion.from_rects(ring(0)).disc_pieces(Point(1.5, 1.5), 1.0)
        with pytest.raises(GeometryError, match="reach"):
            discs.intersection_area(1.5)
        with pytest.raises(GeometryError, match="negative"):
            discs.uncovered_area(-0.5)

    @given(st.floats(0, 1e12), st.floats(0, 1e12))
    def test_chebyshev_prefilter_is_sound(self, dx, dy):
        # what lets a comparisons-only filter stand in for the exact test
        assert max(dx, dy) <= math.hypot(dx, dy)
        pair = np.array([dx, dy])
        assert float(np.maximum(pair[0], pair[1])) == max(dx, dy)
