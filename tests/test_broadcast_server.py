"""Tests for the broadcast server's data file and index construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BroadcastError
from repro.geometry import HilbertGrid, Point, Rect, hilbert_xy_to_d
from repro.broadcast import (
    BatchMember,
    BroadcastSchedule,
    BroadcastServer,
    DataBucket,
    IndexEntry,
    IndexSegment,
    batch_scan,
)
from repro.model import POI

BOUNDS = Rect(0, 0, 20, 20)


def make_server(n=100, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    pois = [
        POI(i, Point(float(x), float(y)))
        for i, (x, y) in enumerate(rng.uniform(0, 20, (n, 2)))
    ]
    defaults = dict(hilbert_order=5, bucket_capacity=8)
    defaults.update(kwargs)
    return BroadcastServer(pois, BOUNDS, **defaults), pois


class TestConstruction:
    def test_empty_database_raises(self):
        with pytest.raises(BroadcastError):
            BroadcastServer([], BOUNDS)

    def test_invalid_bucket_capacity_raises(self):
        with pytest.raises(BroadcastError):
            BroadcastServer([POI(0, Point(1, 1))], BOUNDS, bucket_capacity=0)

    def test_buckets_partition_database(self):
        server, pois = make_server(100)
        in_buckets = [p for b in server.buckets for p in b.pois]
        assert len(in_buckets) == len(pois)
        assert {p.poi_id for p in in_buckets} == {p.poi_id for p in pois}

    def test_buckets_respect_capacity(self):
        server, _ = make_server(100, bucket_capacity=8)
        for bucket in server.buckets:
            assert 1 <= len(bucket.pois) <= 8

    def test_buckets_are_hilbert_ordered(self):
        server, _ = make_server(200)
        last = -1
        for bucket in server.buckets:
            assert bucket.h_min >= last
            assert bucket.h_min <= bucket.h_max
            last = bucket.h_max

    def test_bucket_extent_covers_its_pois(self):
        server, _ = make_server(150)
        for bucket in server.buckets:
            for poi in bucket.pois:
                assert bucket.extent.contains_point(poi.location)

    def test_index_entries_sorted_and_counted(self):
        server, pois = make_server(120)
        values = [e.h_value for e in server.index.entries]
        assert values == sorted(values)
        assert len(set(values)) == len(values)
        assert sum(e.poi_count for e in server.index.entries) == len(pois)


class TestBucketLookup:
    def test_unknown_bucket_raises(self):
        server, _ = make_server(10)
        schedule = BroadcastSchedule(
            data_bucket_count=server.bucket_count,
            index_packet_count=server.index.packet_count,
        )
        member = BatchMember(0, (0, 9999), server.index.tree_probe_packets)
        with pytest.raises(BroadcastError):
            batch_scan(server, schedule, [member], 0.0)


class TestPacketStructures:
    def test_bucket_validation(self):
        with pytest.raises(BroadcastError):
            DataBucket(0, 5, 3, (POI(0, Point(0, 0)),), Rect(0, 0, 1, 1))
        with pytest.raises(BroadcastError):
            DataBucket(0, 0, 1, (), Rect(0, 0, 1, 1))

    def test_index_segment_validation(self):
        with pytest.raises(BroadcastError):
            IndexSegment(
                entries=(IndexEntry(5, 0, 1), IndexEntry(2, 0, 1)),
                entries_per_packet=8,
            )
        with pytest.raises(BroadcastError):
            IndexSegment(entries=(), entries_per_packet=0)

    def test_index_packet_count(self):
        entries = tuple(IndexEntry(i, 0, 1) for i in range(100))
        seg = IndexSegment(entries=entries, entries_per_packet=64)
        assert seg.packet_count == 2
        assert IndexSegment(entries=(), entries_per_packet=64).packet_count == 1

    def test_tree_probe_is_shallower_than_full_scan(self):
        entries = tuple(IndexEntry(i, 0, 1) for i in range(1000))
        seg = IndexSegment(entries=entries, entries_per_packet=16)
        assert 1 <= seg.tree_probe_packets < seg.packet_count


# ----------------------------------------------------------------------
# The array-built data file vs the per-POI construction it replaced
# ----------------------------------------------------------------------
def reference_file(pois, bounds, order, capacity):
    """The scalar construction: one curve encode and one cell rectangle
    per POI, a Python sort, and each bucket's MBR over its cells."""
    grid = HilbertGrid(order, bounds)
    decorated = sorted(
        (grid.value_of_point(p.location), p.poi_id, p) for p in pois
    )
    buckets = []
    for start in range(0, len(decorated), capacity):
        chunk = decorated[start : start + capacity]
        extent = Rect.bounding([grid.rect_of_value(h) for h, _, _ in chunk])
        buckets.append((
            chunk[0][0],
            chunk[-1][0],
            tuple(p.poi_id for _, _, p in chunk),
            extent.as_tuple(),
        ))
    return [h for h, _, _ in decorated], buckets


@st.composite
def databases(draw):
    """Bounds, a POI field with edge and cell-sharing POIs, an order."""
    x1 = draw(st.floats(-50.0, 50.0))
    y1 = draw(st.floats(-50.0, 50.0))
    bounds = Rect(
        x1, y1, x1 + draw(st.floats(0.5, 40.0)), y1 + draw(st.floats(0.5, 40.0))
    )
    fraction = st.floats(0.0, 1.0)
    points: list[tuple[float, float]] = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["inside", "edge", "shared"]))
        if kind == "shared" and points:
            # Same cell as an earlier POI: its point, or a hair beside it.
            x, y = draw(st.sampled_from(points))
            nudge = draw(st.sampled_from([0.0, 1e-9]))
            x = min(bounds.x2, x + nudge)
        elif kind == "edge":
            # On the bounds: a corner or a point of one side.
            x = draw(st.sampled_from([bounds.x1, bounds.x2]))
            y = bounds.y1 + draw(fraction) * bounds.height
            if draw(st.booleans()):
                x, y = bounds.x1 + draw(fraction) * bounds.width, draw(
                    st.sampled_from([bounds.y1, bounds.y2])
                )
        else:
            x = bounds.x1 + draw(fraction) * bounds.width
            y = bounds.y1 + draw(fraction) * bounds.height
        points.append((x, y))
    pois = [POI(i, Point(x, y)) for i, (x, y) in enumerate(points)]
    ids = draw(st.permutations(range(len(pois))))
    pois = [POI(i, poi.location) for i, poi in zip(ids, pois)]
    return bounds, pois, draw(st.integers(1, 6))


class TestArrayBuiltFile:
    @settings(max_examples=150, deadline=None)
    @given(databases(), st.sampled_from([1, 8, None]))
    def test_matches_the_scalar_construction(self, database, capacity):
        bounds, pois, order = database
        capacity = capacity or len(pois)  # None: one bucket of all N
        server = BroadcastServer(
            pois, bounds, hilbert_order=order, bucket_capacity=capacity
        )
        hvalues, buckets = reference_file(pois, bounds, order, capacity)
        assert server._sorted_hvalues == hvalues
        assert all(type(h) is int for h in server._sorted_hvalues)
        assert [
            (b.h_min, b.h_max, tuple(p.poi_id for p in b.pois), b.extent.as_tuple())
            for b in server.buckets
        ] == buckets
        assert [b.bucket_id for b in server.buckets] == list(range(len(buckets)))
        runs = {}
        for position, h in enumerate(hvalues):
            runs.setdefault(h, [position // capacity, 0])[1] += 1
        assert [
            (e.h_value, e.bucket_id, e.poi_count) for e in server.index.entries
        ] == [(h, bucket, count) for h, (bucket, count) in runs.items()]

    def test_shared_cells_and_edges_are_exercised(self):
        # The strategy's two special cases, pinned once by hand: POIs on
        # every corner land in the grid's corner cells, and two POIs in
        # one cell share an index entry.
        bounds = Rect(0.0, 0.0, 4.0, 4.0)
        pois = [
            POI(3, Point(4.0, 4.0)), POI(1, Point(0.0, 0.0)),
            POI(2, Point(0.0, 4.0)), POI(0, Point(4.0, 0.0)),
            POI(5, Point(1.2, 1.2)), POI(4, Point(1.3, 1.1)),
        ]
        for capacity in (1, 8, len(pois)):
            server = BroadcastServer(
                pois, bounds, hilbert_order=2, bucket_capacity=capacity
            )
            assert (server._sorted_hvalues, [
                (b.h_min, b.h_max, tuple(p.poi_id for p in b.pois), b.extent.as_tuple())
                for b in server.buckets
            ]) == reference_file(pois, bounds, 2, capacity)
        shared = [e for e in server.index.entries if e.poi_count == 2]
        assert len(shared) == 1
