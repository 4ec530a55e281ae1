"""Coverage-grid union kernel vs the pure-Python slab sweep.

``grid_slabs`` / ``grid_boundary_coord_arrays`` are a vectorised route
to the structure ``sweep_slabs`` builds one slab at a time; the sweep
is the referee at every size.  On top of the kernel, a bulk
``SlabUnion.from_rects`` — no slab structure in its memo — must be
indistinguishable from a union whose slabs were materialised up front:
on every public read, whichever read comes first, and after the one
read that builds its slabs (a degenerate window).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.metamorphic import grid_vs_sweep
from repro.errors import GeometryError
from repro.geometry import Circle, Point, Rect, RectUnion, SlabUnion
from repro.geometry import region
from repro.geometry.region import (
    GRID_MIN_RECTS,
    boundary_min_distance,
    grid_boundary_coord_arrays,
    grid_slabs,
    padded_coverage_grid,
    rects_contain_points,
    slabs_boundary_coord_arrays,
    slabs_covers_rect,
    slabs_disc_intersection_area,
    slabs_subtract_from_rect,
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

    @given(rect_sets, st.sampled_from([None, 64]))
    @settings(max_examples=100, deadline=None)
    def test_cover_matrix_is_the_union(self, rects, block):
        # Built over the padded index space directly, or — a grid over
        # GRID_BLOCK_CELLS (64 forces it, in several blocks) — from the
        # block route.
        rects = members(rects)
        cells = block or region.GRID_BLOCK_CELLS
        with mock.patch.object(region, "GRID_BLOCK_CELLS", cells):
            xs, ys, padded = padded_coverage_grid(rects)
        assert padded.dtype == bool
        assert padded.shape == (max(len(xs), 1) + 1, max(len(ys), 1) + 1)
        expected = np.zeros(padded.shape, dtype=bool)
        for r in rects:
            # A rectangle covers the cells whose cuts it spans (cell
            # centres would round onto a cut between adjacent floats).
            expected[1:-1, 1:-1] |= np.outer(
                (xs[:-1] >= r.x1) & (xs[1:] <= r.x2),
                (ys[:-1] >= r.y1) & (ys[1:] <= r.y2),
            )
        assert np.array_equal(padded, expected)

    def test_empty_set(self):
        assert grid_slabs([]) == sweep_slabs([]) == ([], [])
        assert not padded_coverage_grid([])[2].any()
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
    "is_empty", "mbr", "piece_table", "contains_point", "contains_points",
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
    if name == "piece_table":
        return [c.tolist() for c in union.piece_table()]
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
    union._memo["slabs"] = sweep_slabs(members(rects))
    return union


def same_state(a, b):
    # `==`, not encoded bytes: -0.0 and 0.0 are one cut, and which
    # sign a build keeps is not part of the canonical form.
    return a._slabs() == b._slabs() and a._members == b._members


def leave(union, p):
    """The one read that builds a bulk union's slab structure: the
    closed coverage of a degenerate window."""
    return union.covers_rect(Rect(p.x, p.y, p.x, p.y + 1.0))


big_sets = st.one_of(
    st.lists(float_rect, min_size=GRID_MIN_RECTS + 4, max_size=80),
    st.lists(lattice_rect, min_size=GRID_MIN_RECTS + 4, max_size=80),
)


class TestLazyUnion:
    def test_bulk_build_defers_the_slabs(self):
        rects = [Rect(i, 0, i + 2, 1 + i % 3) for i in range(GRID_MIN_RECTS)]
        union = SlabUnion.from_rects(rects)
        assert "slabs" not in union._memo
        assert not union.is_empty
        assert union.contains_point(Point(1.0, 0.5))
        assert union.distance_to_boundary(Point(1.0, 0.5)) == 0.5
        assert union.mbr() == Rect.bounding(rects)
        assert "slabs" not in union._memo  # none of the NNV reads built anything
        assert leave(union, Point(1.0, 0.0))
        assert "slabs" in union._memo
        small = SlabUnion.from_rects(rects[: GRID_MIN_RECTS - 1])
        assert "slabs" in small._memo

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
    def test_leaving_the_lazy_state(self, rects, window, pts):
        p = Point(*pts[0])
        for prime in (False, True):
            lazy = SlabUnion.from_rects(rects)
            eager = eager_twin(rects)
            if prime and not lazy.is_empty:
                # The boundary arrays and the piece table came from the
                # grid before the slabs existed; they must survive.
                lazy.distance_to_boundary(p)
                lazy.piece_table()
            assert leave(lazy, p) == leave(eager, p)
            assert "slabs" in lazy._memo
            assert same_state(lazy, eager)
            assert lazy.is_empty == eager.is_empty
            for name in READS:
                assert read(lazy, name, p, window) == read(
                    eager, name, p, window
                ), name


# ----------------------------------------------------------------------
# Window reads on a lazy union: window-local, and the union stays lazy
# ----------------------------------------------------------------------
def span(a, b, c, d):
    return Rect(min(a, c), min(b, d), max(a, c), max(b, d))


@st.composite
def sets_and_windows(draw):
    """16-200 members plus windows aimed at every kind of contact."""
    rects = draw(
        st.one_of(
            st.lists(float_rect, min_size=GRID_MIN_RECTS + 4, max_size=200),
            st.lists(lattice_rect, min_size=GRID_MIN_RECTS + 4, max_size=200),
        )
    )
    live = members(rects)
    if len(live) < GRID_MIN_RECTS:
        live = live + [Rect(i, i, i + 2.5, i + 1.5) for i in range(GRID_MIN_RECTS)]
    member = st.sampled_from(live)
    share = st.floats(0.0, 1.0)
    reach = st.floats(0.0, 40.0)

    def inside(r, a, b, c, d):
        return span(
            r.x1 + a * r.width, r.y1 + b * r.height,
            r.x1 + c * r.width, r.y1 + d * r.height,
        )

    box = Rect.bounding(live)
    window = st.one_of(
        # inside one member
        st.builds(inside, member, share, share, share, share),
        # from inside the extent to beyond it, and all around it
        st.builds(
            lambda a, b, dx, dy: span(
                box.x1 + a * box.width, box.y1 + b * box.height,
                box.x2 + dx - 20.0, box.y2 + dy - 20.0,
            ),
            share, share, reach, reach,
        ),
        st.builds(
            lambda dx, dy: Rect(box.x1 - dx, box.y1 - dy, box.x2 + dx, box.y2 + dy),
            reach, reach,
        ),
        # every edge on a member cut
        st.builds(
            lambda p, q: span(p.x1, q.y1, q.x2, p.y2), member, member
        ),
        # touching a member in a corner point / along an edge only
        st.builds(
            lambda r, w, h: Rect(r.x2, r.y2, r.x2 + w, r.y2 + h),
            member, reach, reach,
        ),
        st.builds(
            lambda r, w: Rect(r.x2, r.y1, r.x2 + w, r.y2), member, reach
        ),
        st.builds(
            lambda r, h: Rect(r.x1, r.y1 - h, r.x2, r.y1), member, reach
        ),
        # degenerate: a point, a vertical and a horizontal segment
        st.builds(lambda r: Rect(r.x1, r.y2, r.x1, r.y2), member),
        st.builds(lambda r, h: Rect(r.x2, r.y1, r.x2, r.y1 + h), member, reach),
        st.builds(lambda r, w: Rect(r.x1, r.y2, r.x1 + w, r.y2), member, reach),
        # anything on the lattice
        lattice_rect,
    )
    return live, draw(st.lists(window, min_size=1, max_size=8))


def window_reads(union, window):
    return union.covers_rect(window), union.subtract_from_rect(window)


class TestWindowLocalReads:
    @given(sets_and_windows())
    @settings(max_examples=150, deadline=None)
    def test_equal_the_sweep_and_stay_lazy(self, drawn):
        rects, windows = drawn
        xs, slabs = sweep_slabs(rects)
        for window in windows:
            union = SlabUnion.from_rects(rects)
            with mock.patch(
                "repro.geometry.slabunion.build_slabs",
                side_effect=AssertionError("window read built the slabs"),
            ) as build:
                if window.is_degenerate():
                    # closed coverage reads the slabs on both sides of
                    # a cut: the full structure, built now
                    build.side_effect = None
                    build.return_value = (xs, slabs)
                covered, remainder = window_reads(union, window)
            assert covered == slabs_covers_rect(xs, slabs, window)
            # list equality: the same fragments in the same order
            # (they pick plan_window's buckets one by one)
            assert remainder == slabs_subtract_from_rect(xs, slabs, window)
            assert ("slabs" not in union._memo) != window.is_degenerate()

    @given(sets_and_windows())
    @settings(max_examples=60, deadline=None)
    def test_primed_union_reads_the_same(self, drawn):
        # One union across all windows: the memoised cuts serve every
        # later window.
        rects, windows = drawn
        xs, slabs = sweep_slabs(rects)
        union = SlabUnion.from_rects(rects)
        for window in windows:
            assert window_reads(union, window) == (
                slabs_covers_rect(xs, slabs, window),
                slabs_subtract_from_rect(xs, slabs, window),
            )

    @given(sets_and_windows(), points)
    @settings(max_examples=40, deadline=None)
    def test_after_leaving_the_lazy_state(self, drawn, pts):
        rects, windows = drawn
        p = Point(*pts[0])
        lazy = SlabUnion.from_rects(rects)
        eager = eager_twin(rects)
        # the cuts are memoised before the exit
        window_reads(lazy, Rect(-1.0, -1.0, 7.0, 7.0))
        assert "slabs" not in lazy._memo
        assert leave(lazy, p) == leave(eager, p)
        # from here on the window reads run over the full structure
        assert "slabs" in lazy._memo
        for window in windows:
            assert window_reads(lazy, window) == window_reads(eager, window)
        assert same_state(lazy, eager)

    def test_clipping_members_to_the_window_is_not_the_same(self):
        # The member on the right misses the window in y, yet its left
        # edge x=3 is a cut of the full structure and splits w'.
        rects = [Rect(0, 0, 6, 1), Rect(3, 5, 4, 6)] + [
            Rect(10 + i, 10, 11 + i, 11) for i in range(GRID_MIN_RECTS)
        ]
        window = Rect(1, 0, 5, 2)
        union = SlabUnion.from_rects(rects)
        assert union.subtract_from_rect(window) == [
            Rect(1, 1, 3, 2), Rect(3, 1, 4, 2), Rect(4, 1, 5, 2)
        ]
        assert "slabs" not in union._memo
        clipped = SlabUnion.from_rects([Rect(1, 0, 5, 1)])
        assert clipped.subtract_from_rect(window) == [Rect(1, 1, 5, 2)]

    def test_sbwq_leaves_the_merged_mvr_lazy(self):
        from repro.core import MVRMemo, Resolution, sbwq
        from repro.model import POI
        from repro.p2p import ShareResponse

        rects = [Rect(i, 0, i + 2, 3 + i % 3) for i in range(GRID_MIN_RECTS + 8)]
        responses = [
            ShareResponse(
                i, (rect,), (POI(i, Point(rect.x1 + 0.5, 1.0)),), generation=1
            )
            for i, rect in enumerate(rects)
        ]
        memo = MVRMemo()
        with mock.patch(
            "repro.geometry.slabunion.build_slabs",
            side_effect=AssertionError("sbwq built the slabs"),
        ):
            mvr = memo.merged(responses)
            inside = sbwq(Rect(2, 0.5, 9, 2.5), responses, mvr=mvr)
            across = sbwq(Rect(2, 0.5, 40, 2.5), responses, mvr=mvr)
        assert inside.resolution is Resolution.VERIFIED
        assert [p.poi_id for p in inside.verified_pois] == list(range(2, 9))
        assert across.resolution is Resolution.BROADCAST
        assert across.remainder_windows == (Rect(25, 0.5, 40, 2.5),)
        assert "slabs" not in mvr._memo


lookup_sets = st.one_of(
    st.lists(float_rect, min_size=GRID_MIN_RECTS, max_size=200),
    st.lists(lattice_rect, min_size=GRID_MIN_RECTS, max_size=200),
)


def sharp_points(rects, extra):
    """Where a cell lookup can go wrong: every cut crossing of a
    sample of cuts (member corners and MBR edges among them; on the
    lattice, hole corners too), one ulp either side of each, cell
    centres (hole interiors), and points beyond the MBR."""
    def axis(values):
        cuts = np.unique(values)
        if len(cuts) > 8:
            mid = len(cuts) // 2
            cuts = np.concatenate((cuts[:3], cuts[mid : mid + 2], cuts[-3:]))
        centres = (cuts[:-1] + cuts[1:]) / 2.0
        return np.concatenate((
            cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
            centres, [cuts[0] - 1.0, cuts[-1] + 1.0],
        ))

    px = axis([x for r in rects for x in (r.x1, r.x2)])
    py = axis([y for r in rects for y in (r.y1, r.y2)])
    gx, gy = (a.ravel() for a in np.meshgrid(px, py))
    ex = np.array([x for x, _ in extra])
    ey = np.array([y for _, y in extra])
    return np.concatenate((gx, ex)), np.concatenate((gy, ey))


class TestOneGridPerLazyUnion:
    """Containment by cell lookup, on the grid the boundary reads."""

    @given(lookup_sets, points)
    @settings(max_examples=120, deadline=None)
    def test_lookup_equals_broadcast_equals_scalar(self, rects, extra):
        rects = members(rects)
        if len(rects) < GRID_MIN_RECTS:
            return
        pxs, pys = sharp_points(rects, extra)
        union = SlabUnion.from_rects(rects)
        with mock.patch.object(
            region, "_grid_cuts", wraps=region._grid_cuts
        ) as builds:
            mask = union.contains_points(pxs, pys)
            inside = [
                Point(x, y)
                for x, y in zip(pxs[mask][:3].tolist(), pys[mask][:3].tolist())
            ]
            distances = [union.distance_to_boundary(p) for p in inside]
            again = union.contains_points(pxs, pys)
            # the third read off the same grid: the Lemma 3.2 disc areas
            areas = [union.disc_intersection_area(Circle(p, 3.0)) for p in inside]
            assert builds.call_count == 1
        assert "slabs" not in union._memo
        broadcast = rects_contain_points(
            (
                np.array([r.x1 for r in rects]), np.array([r.y1 for r in rects]),
                np.array([r.x2 for r in rects]), np.array([r.y2 for r in rects]),
            ),
            pxs, pys,
        )
        assert np.array_equal(mask, broadcast) and np.array_equal(mask, again)
        scalar = [
            union.contains_point(Point(x, y))
            for x, y in zip(pxs.tolist(), pys.tolist())
        ]
        assert mask.tolist() == scalar
        # the shared grid gives the un-shared build's arrays, in order
        for shared, alone in zip(
            union._boundary_coord_arrays(), grid_boundary_coord_arrays(rects)
        ):
            assert np.array_equal(shared, alone)
        swept = slabs_boundary_coord_arrays(*sweep_slabs(rects))
        assert distances == [
            boundary_min_distance(swept, p.x, p.y) for p in inside
        ]
        assert areas == [
            slabs_disc_intersection_area(*sweep_slabs(rects), Circle(p, 3.0))
            for p in inside
        ]

    def test_named_points(self):
        # a ring (hole 1..2 x 1..2) plus filler to make the union lazy
        ring = [Rect(0, 0, 3, 1), Rect(0, 2, 3, 3), Rect(0, 0, 1, 3), Rect(2, 0, 3, 3)]
        rects = ring + [Rect(10 + i, 0, 11 + i, 1) for i in range(GRID_MIN_RECTS)]
        union = SlabUnion.from_rects(rects)
        up, down = (lambda v: np.nextafter(v, np.inf)), (lambda v: np.nextafter(v, -np.inf))
        cases = [
            ((1.5, 1.5), False),          # inside the hole
            ((1.0, 1.5), True),           # on the hole's edge (a cut)
            ((up(1.0), 1.5), False),      # one ulp into the hole
            ((down(1.0), 1.5), True),
            ((1.0, 1.0), True),           # hole corner: four cells meet
            ((up(1.0), up(1.0)), False),
            ((0.0, 0.0), True),           # MBR corner
            ((down(0.0), 0.0), False),
            ((0.0, 3.0), True),
            ((0.0, up(3.0)), False),
            ((3.0, 1.5), True),           # right edge of the ring
            ((up(3.0), 1.5), False),
            ((5.0, 0.5), False),          # between components
            ((10.0, 1.0), True),
            ((10.0 + GRID_MIN_RECTS, 0.0), True),   # MBR far corner
            ((up(10.0 + GRID_MIN_RECTS), 0.0), False),
            ((-1e9, 0.5), False),
            ((1e9, 1e9), False),
        ]
        pxs = np.array([float(x) for (x, _), _ in cases])
        pys = np.array([float(y) for (_, y), _ in cases])
        assert "slabs" not in union._memo
        assert union.contains_points(pxs, pys).tolist() == [e for _, e in cases]
        assert [
            union.contains_point(Point(x, y)) for x, y in zip(pxs, pys)
        ] == [e for _, e in cases]

    def test_other_unions_keep_the_broadcast(self):
        rects = [Rect(i, 0, i + 2, 1 + i % 3) for i in range(GRID_MIN_RECTS + 4)]
        pxs, pys = np.array([1.0, 0.5, -1.0]), np.array([0.5, 2.5, 0.5])
        expected = [True, False, False]
        built = SlabUnion.from_rects(rects)
        leave(built, Point(1.0, 0.0))
        small = SlabUnion.from_rects(rects[:3])
        assert "slabs" in built._memo and "slabs" in small._memo
        unions = (built, small, RectUnion(rects))
        with mock.patch.object(
            region, "_grid_cuts",
            side_effect=AssertionError("built a grid for a broadcast union"),
        ):
            for union in unions:
                assert union.contains_points(pxs, pys).tolist() == expected


class TestIsEmptyIsStructural:
    """`is_empty` reads the structure; it no longer integrates the area."""

    def test_truth_table(self):
        rect = Rect(0, 0, 2, 2)
        assert SlabUnion.from_rects().is_empty and RectUnion().is_empty
        assert SlabUnion.from_rects([Rect(1, 1, 1, 5)]).is_empty
        assert RectUnion([Rect(1, 1, 1, 5)]).is_empty
        assert not SlabUnion.from_rects([rect]).is_empty
        assert not RectUnion([rect]).is_empty
        # lazy or not, and however many members are degenerate
        many = [Rect(i, 0, i + 1, 1) for i in range(GRID_MIN_RECTS)]
        assert not SlabUnion.from_rects(many).is_empty
        assert SlabUnion.from_rects(
            [Rect(i, 0, i, 1) for i in range(GRID_MIN_RECTS)]
        ).is_empty
        # a gap leaves an empty slab between two live ones
        gap = SlabUnion.from_rects([Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)])
        assert not gap.is_empty and len(gap.piece_table()[0]) == 2

    def test_never_touches_the_area(self, monkeypatch):
        # A union has no area read at all, and emptiness builds nothing.
        import repro.geometry.slabunion as module

        def boom(*_):
            raise AssertionError("is_empty built a structure")

        monkeypatch.setattr(module, "padded_coverage_grid", boom)
        monkeypatch.setattr(module, "x_cuts", boom)
        assert not hasattr(SlabUnion, "area")
        many = [Rect(i, 0, i + 1, 1) for i in range(GRID_MIN_RECTS)]
        assert not SlabUnion.from_rects(many).is_empty
        assert SlabUnion.from_rects([Rect(0, 0, 0, 2)]).is_empty
