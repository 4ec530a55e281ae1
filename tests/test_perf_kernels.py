"""Equivalence tests for the vectorised query kernels.

The vectorised NNV pipeline, the Hilbert batch transforms, the batch
containment/boundary-distance kernels, and the generation-stamped MVR
memo must agree with their scalar reference paths — byte-identical
where the issue demands it (NNV results, Hilbert values, containment
masks), to a relative 1e-12 for the boundary distances (same formula,
array evaluation order).
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import POICache
from repro.core import MVRMemo, nnv, nnv_scalar, sbwq
from repro.core.nnv import PeerRead, first_contained, pois_at
from repro.geometry import (
    Point,
    Rect,
    RectUnion,
    SlabUnion,
    hilbert_d_to_xy,
    hilbert_d_to_xy_batch,
    hilbert_xy_to_d,
    hilbert_xy_to_d_batch,
)
from repro.geometry.region import slabs_boundary_coord_arrays, sweep_slabs
from repro.model import POI
from repro.p2p import ShareResponse

rect_strategy = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.1, 30),
    st.floats(0.1, 30),
)

coord_strategy = st.floats(-60, 60)


@st.composite
def responses_strategy(draw):
    """A few peers with overlapping regions and colliding POI ids."""
    n_peers = draw(st.integers(1, 4))
    responses = []
    for peer in range(n_peers):
        rects = tuple(draw(st.lists(rect_strategy, max_size=3)))
        pois = tuple(
            POI(poi_id, Point(x, y))
            for poi_id, x, y in draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 25), coord_strategy, coord_strategy
                    ),
                    max_size=6,
                )
            )
        )
        responses.append(ShareResponse(peer, rects, pois, generation=peer))
    return responses


class TestNNVEquivalence:
    @given(
        responses_strategy(),
        coord_strategy,
        coord_strategy,
        st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_vectorised_matches_scalar(self, responses, qx, qy, k):
        query = Point(qx, qy)
        heap_vec, read = nnv(query, responses, k)
        mvr_vec = read.mvr
        heap_ref, mvr_ref = nnv_scalar(query, responses, k)
        entries_vec = heap_vec.results()
        entries_ref = heap_ref.results()
        assert len(entries_vec) == len(entries_ref)
        for a, b in zip(entries_vec, entries_ref):
            assert a.poi is b.poi
            assert a.distance == b.distance
            assert a.verified == b.verified
        assert mvr_vec.rects == mvr_ref.rects

    @given(responses_strategy(), coord_strategy, coord_strategy)
    @settings(max_examples=60, deadline=None)
    def test_memoised_mvr_matches_fresh_merge(self, responses, qx, qy):
        # (the name predates the memo's removal: `merged` vs the eager merge)
        memo = MVRMemo()
        merged = memo.merged(responses)
        fresh = RectUnion(
            [rect for response in responses for rect in response.regions]
        )
        assert merged.rects == fresh.rects
        heap_memo, _ = nnv(Point(qx, qy), responses, 3, mvr=merged)
        heap_ref, _ = nnv_scalar(Point(qx, qy), responses, 3)
        assert [
            (e.poi, e.distance, e.verified) for e in heap_memo.results()
        ] == [(e.poi, e.distance, e.verified) for e in heap_ref.results()]


def scalar_peer_pois(responses, within, mvr):
    """SBWQ's per-POI loop: the reference for the host's batch filter."""
    seen = {}
    for response in responses:
        for poi in response.pois:
            if (
                poi.poi_id not in seen
                and within.contains_point(poi.location)
                and mvr.contains_point(poi.location)
            ):
                seen[poi.poi_id] = poi
    return list(seen.values())


def batch_peer_pois(responses, within, mvr):
    return PeerRead.gather(responses, mvr).pois_within(within)


class TestPeerPoisBatchEquivalence:
    """A query's one peer read (one batch over all responses), asked
    for a rectangle, and SBWQ's scalar loop keep the same copy of every
    id, in the same order."""

    @given(responses_strategy(), rect_strategy)
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_scalar(self, responses, window):
        mvr = RectUnion(
            [rect for response in responses for rect in response.regions]
        )
        expected = scalar_peer_pois(responses, window, mvr)
        got = batch_peer_pois(responses, window, mvr)
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))
        outcome = sbwq(window, responses, mvr=mvr)
        assert outcome.verified_pois == tuple(
            sorted(expected, key=lambda p: p.poi_id)
        )

    def test_first_contained_copy_wins(self):
        # Four copies of id 7: outside the window, outside the MVR,
        # then two good ones — the third is kept, whatever its peer.
        vr = Rect(0, 0, 10, 10)
        window = Rect(2, 2, 8, 8)
        copies = [
            POI(7, Point(1.0, 5.0)),
            POI(7, Point(5.0, 5.0)),
            POI(7, Point(6.0, 6.0)),
            POI(7, Point(7.0, 7.0)),
        ]
        other = POI(3, Point(2.0, 8.0))  # on the window's corner: inside
        responses = [
            ShareResponse(0, (vr,), (copies[0],)),
            ShareResponse(1, (), ()),
            ShareResponse(2, (), (copies[1], other, copies[2])),
            ShareResponse(3, (), (copies[3], other)),
        ]
        mvr = RectUnion([Rect(0, 0, 10, 4.5), Rect(0, 5.5, 10, 10)])
        got = batch_peer_pois(responses, window, mvr)
        assert [id(p) for p in got] == [id(other), id(copies[2])]
        assert got == scalar_peer_pois(responses, window, mvr)
        pieces, _, _, _, sel = first_contained(responses, mvr, window)
        assert [id(p) for p in pois_at(pieces, sel)] == [id(p) for p in got]
        assert sbwq(window, responses, mvr=mvr).verified_pois == (
            other, copies[2],
        )

    def test_nothing_to_offer(self):
        mvr = RectUnion([Rect(0, 0, 1, 1)])
        empty = [ShareResponse(0, (Rect(0, 0, 1, 1),), ())]
        assert batch_peer_pois([], Rect(0, 0, 1, 1), mvr) == []
        assert batch_peer_pois(empty, Rect(0, 0, 1, 1), mvr) == []
        away = [ShareResponse(0, (), (POI(1, Point(5.0, 5.0)),))]
        assert batch_peer_pois(away, Rect(0, 0, 1, 1), mvr) == []
        assert batch_peer_pois(away, Rect(4, 4, 6, 6), mvr) == []


# Integer coordinates on a small grid: POIs land on rectangle edges and
# corners, ids collide across and within peers, and a colliding copy
# often sits elsewhere (stale peer data).
grid_coord = st.integers(-6, 6).map(float)


@st.composite
def grid_rect(draw):
    x, y = draw(grid_coord), draw(grid_coord)
    return Rect(x, y, x + draw(st.integers(1, 6)), y + draw(st.integers(1, 6)))


@st.composite
def stale_responses_strategy(draw):
    """Peers whose copies of an id disagree; some peers send nothing."""
    responses = []
    for peer in range(draw(st.integers(0, 6))):
        rects = tuple(draw(st.lists(grid_rect(), max_size=5)))
        pois = tuple(
            POI(poi_id, Point(x, y))
            for poi_id, x, y in draw(
                st.lists(
                    st.tuples(st.integers(0, 12), grid_coord, grid_coord),
                    max_size=8,
                )
            )
        )
        responses.append(ShareResponse(peer, rects, pois, generation=peer))
    return responses


@st.composite
def overheard_responses_strategy(draw):
    """Peers that overheard the same results: their responses share POI
    objects, in their own orders and repeats, beside stale copies (an
    id that also sits elsewhere)."""
    pool = [
        POI(poi_id, Point(x, y))
        for poi_id, x, y in draw(
            st.lists(
                st.tuples(st.integers(0, 8), grid_coord, grid_coord),
                min_size=1,
                max_size=10,
            )
        )
    ]
    responses = []
    for peer in range(draw(st.integers(1, 8))):
        rects = tuple(draw(st.lists(grid_rect(), max_size=3)))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        responses.append(
            ShareResponse(
                peer, rects, tuple(pool[i] for i in picks), generation=peer
            )
        )
    return responses


@st.composite
def one_place_responses_strategy(draw):
    """Peers that overheard the same results and nothing stale: every
    copy of an id is at one place."""
    pool = [
        POI(poi_id, Point(x, y))
        for poi_id, x, y in draw(
            st.lists(
                st.tuples(st.integers(0, 8), grid_coord, grid_coord),
                min_size=1,
                max_size=10,
                unique_by=lambda t: t[0],
            )
        )
    ]
    responses = []
    for peer in range(draw(st.integers(1, 8))):
        rects = tuple(draw(st.lists(grid_rect(), max_size=3)))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        copies = tuple(
            # A copy is its own object, as a decoded halo response's is.
            POI(pool[i].poi_id, pool[i].location) if draw(st.booleans())
            else pool[i]
            for i in picks
        )
        responses.append(ShareResponse(peer, rects, copies, generation=peer))
    return responses


class TestPeerReadReuse:
    """A query's one peer read answers "first copy per id inside rect ∩
    MVR" exactly as a fresh `first_contained` over the same responses:
    same flat indices, same POI objects in the same order."""

    @given(
        stale_responses_strategy(),
        st.one_of(st.none(), grid_rect()),
        st.sampled_from(["slab", "rect"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_reused_gather_equals_fresh_first_contained(
        self, responses, within, kind
    ):
        rects = [rect for response in responses for rect in response.regions]
        mvr = SlabUnion.from_rects(rects) if kind == "slab" else RectUnion(rects)
        read = PeerRead.gather(responses, mvr)
        pieces, _, _, _, sel = first_contained(responses, mvr, within)
        assert read.first(within).tolist() == sel.tolist()
        expected = pois_at(pieces, sel)
        got = pois_at(read.pieces, read.first(within))
        if within is not None:
            assert read.pois_within(within) == got
        assert [id(p) for p in got] == [id(p) for p in expected]

    @given(
        overheard_responses_strategy(),
        st.lists(grid_rect(), max_size=4),
        st.sampled_from(["slab", "rect"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_copies_read_once_answer_every_window(
        self, responses, windows, kind
    ):
        rects = [rect for response in responses for rect in response.regions]
        mvr = SlabUnion.from_rects(rects) if kind == "slab" else RectUnion(rects)
        read = PeerRead.gather(responses, mvr)
        for within in [None, *windows]:
            _, _, _, _, sel = first_contained(responses, mvr, within)
            assert read.first(within).tolist() == sel.tolist()

    @given(overheard_responses_strategy())
    @settings(max_examples=100, deadline=None)
    def test_gather_asks_once_per_distinct_copy(self, responses):
        asked = []
        real = SlabUnion.contains_points

        def spy(union, pxs, pys):
            asked.extend(zip(pxs.tolist(), pys.tolist()))
            return real(union, pxs, pys)

        rects = [rect for response in responses for rect in response.regions]
        with patch.object(SlabUnion, "contains_points", spy):
            PeerRead.gather(responses, SlabUnion.from_rects(rects))
        copies = [p for r in responses for p in r.pois]
        assert len(asked) <= len({(p.poi_id, p.x, p.y) for p in copies})

    @given(
        one_place_responses_strategy(),
        st.lists(grid_rect(), max_size=4),
        st.sampled_from(["slab", "rect"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_stale_copy_reads_without_a_dedup(self, responses, windows, kind):
        rects = [rect for response in responses for rect in response.regions]
        mvr = SlabUnion.from_rects(rects) if kind == "slab" else RectUnion(rects)
        read = PeerRead.gather(responses, mvr)
        assert not read.stale
        with patch(
            "repro.core.nnv._first_copies",
            side_effect=AssertionError("deduplicated a stale-free read"),
        ):
            answers = [read.first(within) for within in [None, *windows]]
        for within, got in zip([None, *windows], answers):
            pieces, _, _, _, sel = first_contained(responses, mvr, within)
            assert got.tolist() == sel.tolist()
            assert [id(p) for p in pois_at(read.pieces, got)] == [
                id(p) for p in pois_at(pieces, sel)
            ]

    @given(
        stale_responses_strategy(),
        st.lists(grid_rect(), max_size=4),
        st.sampled_from(["slab", "rect"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_stale_copy_reads_through_the_dedup(self, responses, windows, kind):
        rects = [rect for response in responses for rect in response.regions]
        mvr = SlabUnion.from_rects(rects) if kind == "slab" else RectUnion(rects)
        read = PeerRead.gather(responses, mvr)
        places = {}
        for poi in (p for r in responses for p in r.pois):
            places.setdefault(poi.poi_id, set()).add((poi.x, poi.y))
        assert read.stale == any(len(at) > 1 for at in places.values())
        for within in [None, *windows]:
            _, _, _, _, sel = first_contained(responses, mvr, within)
            assert read.first(within).tolist() == sel.tolist()

    def test_stale_copy_inside_only_on_the_edge(self):
        # Id 5's first copy is outside the MVR, its second on the MVR's
        # edge and the window's corner, its third well inside both.
        mvr = SlabUnion.from_rects([Rect(0, 0, 4, 4)])
        copies = [POI(5, Point(-1.0, 2.0)), POI(5, Point(4.0, 4.0)),
                  POI(5, Point(2.0, 2.0))]
        responses = [
            ShareResponse(0, (), ()),
            ShareResponse(1, (Rect(0, 0, 4, 4),), tuple(copies)),
        ]
        read = PeerRead.gather(responses, mvr)
        assert read.stale
        assert read.pois_within(Rect(4, 4, 6, 6))[0] is copies[1]
        assert read.pois_within(Rect(1, 1, 3, 3))[0] is copies[2]
        assert read.pois_within(Rect(-2, 1, -0.5, 3)) == []


class TestMVRMemo:
    """`MVRMemo.merged` is a pure function of the responses' regions:
    the union belongs to the query that asked for it."""

    def _response(self, peer, generation, x=0.0):
        return ShareResponse(
            peer, (Rect(x, 0, x + 2, 2),), (), generation=generation
        )

    @pytest.mark.parametrize("count", [2, 40])  # sweep-built, lazy
    def test_merging_twice_gives_equal_distinct_unions(self, count):
        memo = MVRMemo()
        responses = [self._response(i, 1 + i, x=1.5 * i) for i in range(count)]
        first = memo.merged(responses)
        second = memo.merged(list(responses))
        assert second is not first
        for union in (first, second):
            assert ("slabs" in union._memo) == (count < 16)
        probe = Point(1.0, 1.0)
        assert first.distance_to_boundary(probe) == second.distance_to_boundary(
            probe
        )
        for a, b in zip(
            first._boundary_coord_arrays(), second._boundary_coord_arrays()
        ):
            assert a is not b and np.array_equal(a, b)
        for a, b in zip(first.piece_table(), second.piece_table()):
            assert a is not b and np.array_equal(a, b)
        assert first.rects == second.rects
        assert memo.hits == 0

    def test_generation_change_invalidates(self):
        # Nothing to invalidate any more: a changed cache is simply
        # merged afresh.
        memo = MVRMemo()
        before = memo.merged([self._response(0, 1)])
        after = memo.merged([self._response(0, 2, x=5.0)])
        assert after is not before
        assert after.rects != before.rects

    def test_unstamped_responses_bypass_memo(self):
        # Stamped or not, every merge is a fresh SlabUnion.
        memo = MVRMemo()
        unstamped = [ShareResponse(0, (Rect(0, 0, 1, 1),), ())]
        first = memo.merged(unstamped)
        second = memo.merged(unstamped)
        assert first is not second
        assert first.rects == second.rects == (Rect(0, 0, 1, 1),)
        assert memo.hits == 0

    def test_nothing_is_retained(self):
        memo = MVRMemo()
        for generation in range(5):
            memo.merged([self._response(0, generation)])
        # no instance state at all: one memo serves every host
        assert not hasattr(memo, "__dict__") and MVRMemo.__slots__ == ()
        assert memo.hits == 0
        assert "merged" in MVRMemo.__dict__  # the name bench/ patches

    def test_no_warmed_host_holds_a_merged_union(self):
        import gc
        import types

        from repro.experiments import Simulation, scaled_parameters
        from repro.experiments import host as host_module
        from repro.experiments.host import MobileHost
        from repro.geometry import SlabUnion
        from repro.workloads import LA_CITY, QueryKind

        sim = Simulation(scaled_parameters(LA_CITY, area_scale=0.02), seed=3)
        sim.run_workload(QueryKind.KNN, 0, 200)
        sim.run_workload(QueryKind.WINDOW, 0, 100)
        # standing queries live in their monitor, certificates and all
        monitor = sim.run_continuous(QueryKind.KNN, standing=30, ticks=3)
        assert any(query.safe is not None for query in monitor.queries)
        assert len(monitor.queries) == 30
        assert type(host_module.MVR) is MVRMemo
        # A host is its id and its cache; the one share response it
        # keeps sits on the cache, of the cache's generation.
        assert MobileHost.__slots__ == ("host_id", "cache")
        for host in sim.hosts:
            assert not hasattr(host, "__dict__")
            response = host.cache.response
            assert response is None or (
                response.generation == host.cache.generation
            )
            seen, stack = set(), [host]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(
                    obj, (type, types.ModuleType, types.FunctionType)
                ):
                    continue
                seen.add(id(obj))
                # a host keeps rectangles; unions belong to queries
                assert not isinstance(obj, (SlabUnion, RectUnion))
                stack.extend(gc.get_referents(obj))


class TestCacheGeneration:
    def test_insert_and_evict_bump_touch_does_not(self):
        cache = POICache(capacity=2, max_regions=4)
        origin = Point(0.0, 0.0)
        p1 = POI(1, Point(1.0, 1.0))
        p2 = POI(2, Point(2.0, 2.0))
        p3 = POI(3, Point(3.0, 3.0))
        g0 = cache.generation
        cache.insert_result([(Rect(0, 0, 4, 4), [p1, p2])], 0.0, origin)
        g1 = cache.generation
        assert g1 > g0
        cache.touch([1, 2], 1.0)
        assert cache.generation == g1
        # Over-capacity insert evicts and bumps again.
        cache.insert_result([(Rect(0, 0, 4, 4), [p3])], 2.0, origin)
        assert cache.generation > g1


class TestShareResponseArrays:
    @given(responses_strategy())
    @settings(max_examples=40, deadline=None)
    def test_poi_arrays_match_pois(self, responses):
        for response in responses:
            ids, xs, ys = response.poi_arrays()
            assert ids.tolist() == [p.poi_id for p in response.pois]
            assert xs.tolist() == [p.x for p in response.pois]
            assert ys.tolist() == [p.y for p in response.pois]
            # Cached on the frozen instance: same arrays next call.
            assert response.poi_arrays()[0] is ids


class TestRectUnionBatchKernels:
    @given(
        st.lists(rect_strategy, min_size=1, max_size=8),
        st.lists(
            st.tuples(coord_strategy, coord_strategy), max_size=20
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_contains_points_matches_scalar(self, rects, points):
        region = RectUnion(rects)
        # Corner points sit exactly on boundaries — the sharpest case.
        points = points + [(r.x1, r.y1) for r in rects]
        points += [(r.x2, r.y2) for r in rects]
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        mask = region.contains_points(xs, ys)
        for (x, y), got in zip(points, mask):
            assert got == region.contains_point(Point(x, y))

    @given(
        st.lists(rect_strategy, min_size=1, max_size=6),
        coord_strategy,
        coord_strategy,
    )
    @settings(max_examples=100, deadline=None)
    def test_distance_to_boundary_matches_segments(self, rects, x, y):
        region = RectUnion(rects)
        p = Point(x, y)
        vectorised = region.distance_to_boundary(p)
        # Boundary segments are axis-aligned: each is a degenerate Rect.
        arrays = slabs_boundary_coord_arrays(*sweep_slabs(region.rects))
        reference = min(
            Rect(
                min(ax, ax + dx), min(ay, ay + dy),
                max(ax, ax + dx), max(ay, ay + dy),
            ).distance_to_point(p)
            for ax, ay, dx, dy in zip(*(a.tolist() for a in arrays[:4]))
        )
        assert vectorised == pytest.approx(reference, rel=1e-12, abs=1e-12)


class TestHilbertBatch:
    @given(st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_scalar(self, order, data):
        side = 1 << order
        ds = np.array(
            data.draw(
                st.lists(
                    st.integers(0, side * side - 1), min_size=1, max_size=32
                )
            ),
            dtype=np.int64,
        )
        xs, ys = hilbert_d_to_xy_batch(order, ds)
        for d, x, y in zip(ds, xs, ys):
            assert (int(x), int(y)) == hilbert_d_to_xy(order, int(d))
        back = hilbert_xy_to_d_batch(order, xs, ys)
        assert np.array_equal(back, ds)
        for x, y, d in zip(xs, ys, back):
            assert hilbert_xy_to_d(order, int(x), int(y)) == int(d)

    def test_full_roundtrip_order_5(self):
        ds = np.arange(1024, dtype=np.int64)
        xs, ys = hilbert_d_to_xy_batch(5, ds)
        assert np.array_equal(hilbert_xy_to_d_batch(5, xs, ys), ds)
