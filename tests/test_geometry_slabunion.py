"""SlabUnion vs eager RectUnion: the build-once/eager differential.

:class:`~repro.geometry.SlabUnion` must be *bit-identical* to the
eager :class:`~repro.geometry.RectUnion` of the same rectangle set
(canonical-form contract: the same slab pieces and boundary segments,
hence the same floats out of every derived computation) — whether
``from_rects`` builds the slabs at once (small sets) or reads the
coverage grid (``GRID_MIN_RECTS`` members and up).  Plus the contracts
of the value itself: empty unions, and no way to change a union after
it is built.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Rect, RectUnion, SlabUnion
from repro.geometry.region import (
    GRID_MIN_RECTS,
    slabs_boundary_coord_arrays,
    slabs_piece_table,
    sweep_slabs,
)

rect_strategy = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0, 30),  # zero-width degenerates included on purpose
    st.floats(0, 30),
)

# Integer-corner rectangles overlap and touch constantly — the
# sharpest case for shared cuts and interval merging.
lattice_rect = st.tuples(
    st.integers(0, 10), st.integers(0, 10), st.integers(1, 6), st.integers(1, 6)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

# Both sides of the grid threshold: the sweep builds the small sets at
# once, the large ones are read off the coverage grid.
rect_lists = st.one_of(
    st.lists(rect_strategy | lattice_rect, max_size=10),
    st.lists(
        rect_strategy | lattice_rect,
        min_size=GRID_MIN_RECTS,
        max_size=3 * GRID_MIN_RECTS,
    ),
)

coord = st.floats(-60, 60)


# Exactly 1, 15, 16 or 200 members: both sides of GRID_MIN_RECTS.
live_rect = lattice_rect | st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.5, 30),
    st.floats(0.5, 30),
)
member_sets = st.sampled_from([1, 15, GRID_MIN_RECTS, 200]).flatmap(
    lambda n: st.lists(live_rect, min_size=n, max_size=n)
)


def built(rects):
    union = SlabUnion.from_rects(rects)
    live = [r for r in rects if not r.is_degenerate()]
    assert ("slabs" in union._memo) == (len(live) < GRID_MIN_RECTS)
    return union


def segments(arrays):
    return sorted(zip(*(a.tolist() for a in arrays)))


class TestInsertOnlyBitIdentity:
    @given(member_sets)
    @settings(max_examples=60, deadline=None)
    def test_structure_matches_eager(self, rects):
        # The canonical form through what the union exposes: its piece
        # table float for float and in order, its boundary as a segment
        # multiset.  `==`, not encoded bytes: -0.0 and 0.0 are one cut,
        # and which sign a build keeps is not part of the canonical form.
        union = built(rects)
        swept = sweep_slabs(rects)
        assert union.rects == RectUnion(rects).rects == tuple(rects)
        assert [c.tolist() for c in union.piece_table()] == [
            c.tolist() for c in slabs_piece_table(*swept)
        ]
        assert segments(union._boundary_coord_arrays()) == segments(
            slabs_boundary_coord_arrays(*swept)
        )

    @given(rect_lists, st.lists(st.tuples(coord, coord), max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_containment_matches_eager(self, rects, points):
        eager = RectUnion(rects)
        union = built(rects)
        # Corner points sit exactly on boundaries — the sharpest case.
        points = points + [(r.x1, r.y1) for r in rects]
        points += [(r.x2, r.y2) for r in rects]
        for x, y in points:
            assert union.contains_point(Point(x, y)) == eager.contains_point(
                Point(x, y)
            )
        if points:
            xs = np.array([p[0] for p in points])
            ys = np.array([p[1] for p in points])
            assert np.array_equal(
                union.contains_points(xs, ys), eager.contains_points(xs, ys)
            )

    @given(rect_lists, lattice_rect, coord, coord)
    @settings(max_examples=100, deadline=None)
    def test_windows_and_boundary_match_eager(self, rects, window, x, y):
        eager = RectUnion(rects)
        union = built(rects)
        assert union.covers_rect(window) == eager.covers_rect(window)
        assert union.subtract_from_rect(window) == eager.subtract_from_rect(
            window
        )
        if not eager.is_empty:
            p = Point(x, y)
            assert union.distance_to_boundary(p) == eager.distance_to_boundary(
                p
            )
            assert union.mbr() == eager.mbr()


class TestPersistence:
    """Contracts of the value itself."""

    def test_exposes_no_mutator(self):
        # One representation of a verified area, built once: nothing on
        # the class changes a union after `from_rects` returns it.
        assert SlabUnion.__slots__ == ("_members", "_memo")
        for name in (
            "insert_rect", "subtract_rect", "subtract_point_cut",
            "clone", "freeze", "generation", "__reduce__",
        ):
            assert name not in vars(SlabUnion), name
        union = SlabUnion.from_rects([Rect(0, 0, 4, 4)])
        assert not hasattr(union, "__dict__")
        with pytest.raises(AttributeError):
            union.generation = 1
        # the member view is a fresh tuple
        assert union.rects == (Rect(0, 0, 4, 4),)
        assert union.rects is not union.rects

    def test_empty_contracts(self):
        for rects in ([], [Rect(1, 1, 1, 5)]):
            union = SlabUnion.from_rects(rects)
            assert union.is_empty
            assert [len(c) for c in union.piece_table()] == [0, 0, 0, 0]
            assert union.rects == ()
            with pytest.raises(GeometryError):
                union.mbr()
            with pytest.raises(GeometryError):
                union.distance_to_boundary(Point(0, 0))
            assert union.subtract_from_rect(Rect(0, 0, 1, 1)) == [
                Rect(0, 0, 1, 1)
            ]
            assert not union.contains_point(Point(0, 0))
