"""Coverage-grid union kernel vs the pure-Python slab sweep.

``grid_slabs`` / ``grid_boundary_coord_arrays`` are a vectorised route
to the structure ``sweep_slabs`` builds one slab at a time; the sweep
is the referee at every size.  On top of the kernel, a lazily built
``SlabUnion.from_rects`` must be indistinguishable from a union whose
slabs were materialised up front — on every public read, whichever
read comes first, and after every way of leaving the lazy state.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.metamorphic import grid_vs_sweep
from repro.codec import decode, encode
from repro.errors import GeometryError
from repro.geometry import Circle, Point, Rect, RectUnion, SlabUnion
from repro.geometry.region import (
    GRID_MIN_RECTS,
    boundary_min_distance,
    coverage_grid,
    grid_boundary_coord_arrays,
    grid_slabs,
    slabs_boundary_coord_arrays,
    sweep_slabs,
)

float_rect = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0, 30),  # zero-width degenerates included on purpose
    st.floats(0, 30),
)

# Integer corners on a small lattice: rectangles touch, abut, meet at
# a single corner, nest and repeat constantly.
lattice_rect = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(1, 6), st.integers(1, 6)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

rect_sets = st.one_of(
    st.lists(float_rect, min_size=1, max_size=200),
    st.lists(lattice_rect, min_size=1, max_size=200),
    st.lists(float_rect | lattice_rect, min_size=1, max_size=40),
)


def members(rects):
    return [r for r in rects if not r.is_degenerate()]


def segments(arrays):
    return sorted(zip(*(a.tolist() for a in arrays)))


class TestKernelMatchesSweep:
    @given(rect_sets)
    @settings(max_examples=200, deadline=None)
    def test_slabs_and_boundary_segments(self, rects):
        # Slabs equal, boundary segment multisets equal, lazy reads
        # equal the sweep's (the same relation `repro.cli check` fuzzes).
        assert grid_vs_sweep(rects) == []

    @given(rect_sets)
    @settings(max_examples=60, deadline=None)
    def test_cover_matrix_is_the_union(self, rects):
        rects = members(rects)
        xs, ys, cover = coverage_grid(rects)
        assert cover.shape == (max(len(xs) - 1, 0), max(len(ys) - 1, 0))
        expected = np.zeros(cover.shape, dtype=bool)
        for r in rects:
            # A rectangle covers the cells whose cuts it spans (cell
            # centres would round onto a cut between adjacent floats).
            expected |= np.outer(
                (xs[:-1] >= r.x1) & (xs[1:] <= r.x2),
                (ys[:-1] >= r.y1) & (ys[1:] <= r.y2),
            )
        assert np.array_equal(cover, expected)

    def test_empty_set(self):
        assert grid_slabs([]) == sweep_slabs([]) == ([], [])
        assert coverage_grid([])[2].shape == (0, 0)
        assert all(a.size == 0 for a in grid_boundary_coord_arrays([]))

    @pytest.mark.parametrize(
        "rects",
        [
            # signed zeros are one cut
            [Rect(-1.0, -0.0, 0.0, 1.0), Rect(-0.0, 0.0, 1.0, 2.0)],
            # duplicates
            [Rect(0, 0, 2, 2)] * 3,
            # shared edge, then corner-only contact
            [Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)],
            [Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)],
            # nested, and a hole in a ring
            [Rect(0, 0, 9, 9), Rect(2, 2, 4, 4), Rect(3, 3, 3.5, 3.5)],
            [Rect(0, 0, 3, 1), Rect(0, 2, 3, 3), Rect(0, 0, 1, 3), Rect(2, 0, 3, 3)],
        ],
    )
    def test_named_contacts(self, rects):
        assert grid_vs_sweep(rects) == []
        xs, slabs = grid_slabs(rects)
        assert (xs, slabs) == sweep_slabs(rects)

    def test_subnormal_offset_needs_maximal_runs(self):
        # One boundary segment per exposed *cell* edge splits the edge
        # x=0, y in [-1, 1] at y=0; the clamped projection's float `t`
        # then rounds differently and the distance reads 0.0 instead
        # of 1.16e-88, flipping Lemma 3.1's `distance <= boundary`.
        rects = [Rect(0, 0, 1, 1), Rect(0, -1, 1, 0)]
        px, py = 0.0, 1.16e-88
        expected = boundary_min_distance(
            slabs_boundary_coord_arrays(*sweep_slabs(rects)), px, py
        )
        assert (
            boundary_min_distance(grid_boundary_coord_arrays(rects), px, py)
            == expected
        )
        assert segments(grid_boundary_coord_arrays(rects)) == segments(
            slabs_boundary_coord_arrays(*sweep_slabs(rects))
        )

    def test_two_thousand_thin_rects_stay_under_the_memory_budget(self):
        # A staircase of 2,000 slivers: ~4,000 cuts per axis, 16 M
        # cells if the grid were built whole (128 MB of difference
        # array alone).  Blocks of GRID_BLOCK_CELLS keep the transient
        # under 64 MB, output included, with the canonical structure.
        rects = [
            Rect(i, i * 0.5, i + 1.5, i * 0.5 + 0.75) for i in range(2000)
        ]
        expected = sweep_slabs(rects)
        tracemalloc.start()
        try:
            slabs = grid_slabs(rects)
            arrays = grid_boundary_coord_arrays(rects)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 * 1024
        assert slabs == expected
        assert segments(arrays) == segments(
            slabs_boundary_coord_arrays(*expected)
        )


# ----------------------------------------------------------------------
# Lazy from_rects == eagerly materialised twin
# ----------------------------------------------------------------------
coord = st.floats(-60, 60)
points = st.lists(st.tuples(coord, coord), min_size=1, max_size=6)

READS = (
    "is_empty", "mbr", "area", "contains_point", "contains_points",
    "distance_to_boundary", "covers_rect", "subtract_from_rect",
    "disc_intersection_area",
)


def read(union, name, p, window):
    try:
        return _read(union, name, p, window)
    except GeometryError:  # mbr / boundary distance of an empty union
        return GeometryError


def _read(union, name, p, window):
    if name == "is_empty":
        return union.is_empty
    if name == "area":
        return union.area
    if name == "mbr":
        return union.mbr()
    if name == "contains_point":
        return union.contains_point(p)
    if name == "contains_points":
        xs = np.array([p.x, window.x1, window.x2])
        ys = np.array([p.y, window.y1, window.y2])
        return union.contains_points(xs, ys).tolist()
    if name == "distance_to_boundary":
        return union.distance_to_boundary(p)
    if name == "covers_rect":
        return union.covers_rect(window)
    if name == "subtract_from_rect":
        return union.subtract_from_rect(window)
    return union.disc_intersection_area(Circle(p, 3.0))


def eager_twin(rects):
    """The same union with its slabs built by the sweep, up front."""
    union = SlabUnion.from_rects(rects)
    union._xs, union._slabs = sweep_slabs(members(rects))
    union._lazy = False
    return union


def same_state(a, b):
    # `==`, not encoded bytes: -0.0 and 0.0 are one cut, and which
    # sign a build keeps is not part of the canonical form.
    return (
        a._xs == b._xs
        and a._slabs == b._slabs
        and a._members == b._members
        and (a.generation, a._frozen) == (b.generation, b._frozen)
    )


big_sets = st.one_of(
    st.lists(float_rect, min_size=GRID_MIN_RECTS + 4, max_size=80),
    st.lists(lattice_rect, min_size=GRID_MIN_RECTS + 4, max_size=80),
)


class TestLazyUnion:
    def test_bulk_build_defers_the_slabs(self):
        rects = [Rect(i, 0, i + 2, 1 + i % 3) for i in range(GRID_MIN_RECTS)]
        union = SlabUnion.from_rects(rects)
        assert union._lazy
        assert not union.is_empty
        assert union.contains_point(Point(1.0, 0.5))
        assert union.distance_to_boundary(Point(1.0, 0.5)) == 0.5
        assert union.mbr() == Rect.bounding(rects)
        assert union._lazy  # none of the NNV reads built anything
        assert union.area > 0
        assert not union._lazy
        small = SlabUnion.from_rects(rects[: GRID_MIN_RECTS - 1])
        assert not small._lazy

    @given(big_sets, st.permutations(READS), points, lattice_rect)
    @settings(max_examples=80, deadline=None)
    def test_every_read_in_any_order(self, rects, order, pts, window):
        lazy = SlabUnion.from_rects(rects)
        eager = eager_twin(rects)
        for name in order:
            for x, y in pts:
                p = Point(x, y)
                assert read(lazy, name, p, window) == read(
                    eager, name, p, window
                ), name
        assert same_state(lazy, eager)

    @given(big_sets, lattice_rect, points)
    @settings(max_examples=40, deadline=None)
    def test_leaving_the_lazy_state(self, rects, extra, pts):
        p = Point(*pts[0])
        exits = {
            "clone+insert": lambda u: u.clone().insert_rect(extra),
            "point cut": lambda u: u.subtract_point_cut(p),
            "freeze": lambda u: u.freeze(),
            "codec": lambda u: decode(encode(u)),
            "pickle": lambda u: pickle.loads(pickle.dumps(u)),
        }
        for label, leave in exits.items():
            for prime in (False, True):
                lazy = SlabUnion.from_rects(rects)
                if prime and not lazy.is_empty:
                    # The boundary arrays came from the grid before
                    # the slabs existed; they must survive the exit.
                    lazy.distance_to_boundary(p)
                got = leave(lazy)
                want = leave(eager_twin(rects))
                assert same_state(got, want), label
                assert got.is_empty == want.is_empty
                if not got.is_empty:
                    assert got.distance_to_boundary(p) == (
                        want.distance_to_boundary(p)
                    ), label
                assert got.contains_point(p) == want.contains_point(p)
                assert got.area == want.area


class TestIsEmptyIsStructural:
    """`is_empty` reads the structure; it no longer integrates the area."""

    def test_truth_table(self):
        rect = Rect(0, 0, 2, 2)
        assert SlabUnion().is_empty and RectUnion().is_empty
        assert SlabUnion.from_rects([Rect(1, 1, 1, 5)]).is_empty
        assert RectUnion([Rect(1, 1, 1, 5)]).is_empty
        assert not SlabUnion.from_rects([rect]).is_empty
        assert not RectUnion([rect]).is_empty
        # emptied by subtraction, whole and in two bites
        assert SlabUnion.from_rects([rect]).subtract_rect(rect).is_empty
        halves = SlabUnion.from_rects([rect])
        halves.subtract_rect(Rect(0, 0, 1, 2))
        assert not halves.is_empty
        assert halves.subtract_rect(Rect(1, 0, 2, 2)).is_empty
        # a hole leaves an empty slab between two live ones
        ring = SlabUnion.from_rects([Rect(0, 0, 3, 1)])
        ring.subtract_rect(Rect(1, 0, 2, 1))
        assert not ring.is_empty and ring.area == 2.0

    def test_never_touches_the_area(self, monkeypatch):
        import repro.geometry.slabunion as module

        def boom(*_):
            raise AssertionError("is_empty integrated the area")

        monkeypatch.setattr(module, "slabs_area", boom)
        union = SlabUnion.from_rects([Rect(0, 0, 2, 2)])
        assert not union.is_empty
        assert union.subtract_rect(Rect(0, 0, 2, 2)).is_empty
