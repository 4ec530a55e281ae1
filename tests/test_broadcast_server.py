"""Tests for the broadcast server's data file and index construction."""

import numpy as np
import pytest

from repro.errors import BroadcastError
from repro.geometry import Point, Rect, hilbert_xy_to_d
from repro.broadcast import BroadcastServer, DataBucket, IndexSegment, IndexEntry
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
        with pytest.raises(BroadcastError):
            server.pois_in_bucket(9999)


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
