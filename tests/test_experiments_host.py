"""Focused tests for the mobile-host query pipeline."""

import numpy as np
import pytest

from repro.broadcast import OnAirClient
from repro.cache import POICache
from repro.core import Resolution
from repro.experiments.host import MobileHost
from repro.geometry import Point, Rect
from repro.index import brute_force_knn, brute_force_window
from repro.p2p import ShareResponse
from repro.workloads import generate_pois

BOUNDS = Rect(0, 0, 20, 20)


def make_world(n=200, seed=0):
    rng = np.random.default_rng(seed)
    pois = generate_pois(BOUNDS, n, rng)
    client = OnAirClient.build(pois, BOUNDS, hilbert_order=6, bucket_capacity=4)
    return pois, client


def honest_response(peer_id, vr, pois):
    inside = tuple(p for p in pois if vr.contains_point(p.location))
    return ShareResponse(peer_id, (vr,), inside)


def make_host(capacity=50):
    return MobileHost(0, POICache(capacity, max_regions=50))


class TestKnnPipeline:
    def test_peer_resolved_gossip_region_is_sound(self):
        pois, client = make_world(seed=1)
        host = make_host()
        q = Point(10, 10)
        vr = Rect(6, 6, 14, 14)
        responses = [honest_response(1, vr, pois)]
        result = host.execute_knn(
            q, (1, 0), 2, responses, client, 200 / 400, now=0.0
        )
        assert result.record.resolution is Resolution.VERIFIED
        assert host.cache.region_rects  # gossip cached something
        host.cache.check_soundness(pois)
        # The gossip region is shared for overhearing peers.
        assert result.shared

    def test_broadcast_fallback_answers_exactly_and_caches(self):
        pois, client = make_world(seed=3)
        host = make_host()
        q = Point(4, 17)
        result = host.execute_knn(q, (0, 0), 5, [], client, 0.5, now=0.0)
        assert result.record.resolution is Resolution.BROADCAST
        expected = brute_force_knn(pois, q, 5)
        assert [p.poi_id for p in result.answers] == [
            e.poi.poi_id for e in expected
        ]
        host.cache.check_soundness(pois)
        assert result.record.access_latency > 0
        assert result.record.tuning_packets > 0
        # The covered search MBR plus any bonus blocks were shared.
        assert len(result.shared) >= 1

    def test_bonus_regions_cached_are_sound(self):
        pois, client = make_world(n=500, seed=4)
        host = make_host(capacity=100)
        q = Point(10, 10)
        result = host.execute_knn(q, (0, 0), 8, [], client, 1.25, now=0.0)
        assert result.record.resolution is Resolution.BROADCAST
        host.cache.check_soundness(pois)
        # Segment downloads certify more than the search MBR.
        assert len(result.shared) > 1

    def test_p2p_latency_only_with_peers(self):
        pois, client = make_world(seed=5)
        host = make_host()
        q = Point(10, 10)
        alone = host.execute_knn(q, (0, 0), 3, [], client, 0.5, now=0.0)
        assert alone.record.peer_count == 0
        with_peer = make_host().execute_knn(
            q,
            (0, 0),
            3,
            [honest_response(1, Rect(6, 6, 14, 14), pois)],
            client,
            0.5,
            now=0.0,
            p2p_latency=0.07,
        )
        assert with_peer.record.access_latency == pytest.approx(0.07)

    def test_own_cache_counts_as_response_but_not_peer(self):
        pois, client = make_world(seed=6)
        host = make_host()
        q = Point(10, 10)
        # Prime the host's own cache via a broadcast query.
        host.execute_knn(q, (0, 0), 3, [], client, 0.5, now=0.0)
        own = host.share_response()
        assert own is not None
        result = host.execute_knn(
            q, (0, 0), 1, [own], client, 0.5, now=1.0
        )
        assert result.record.peer_count == 0
        assert result.record.resolution is Resolution.VERIFIED


class TestWindowPipeline:
    def test_covered_window_verified_and_cached(self):
        pois, client = make_world(seed=7)
        host = make_host()
        window = Rect(8, 8, 10, 10)
        responses = [honest_response(1, Rect(6, 6, 12, 12), pois)]
        result = host.execute_window(
            Point(9, 9), (0, 0), window, responses, client, now=0.0
        )
        assert result.record.resolution is Resolution.VERIFIED
        expected = brute_force_window(pois, window)
        assert [p.poi_id for p in result.answers] == [
            p.poi_id for p in expected
        ]
        host.cache.check_soundness(pois)

    def test_partial_window_completed_exactly(self):
        pois, client = make_world(seed=8)
        host = make_host()
        window = Rect(8, 8, 12, 12)
        responses = [honest_response(1, Rect(6, 6, 10, 14), pois)]
        result = host.execute_window(
            Point(9, 9), (0, 0), window, responses, client, now=0.0
        )
        assert result.record.resolution is Resolution.BROADCAST
        expected = brute_force_window(pois, window)
        assert [p.poi_id for p in result.answers] == [
            p.poi_id for p in expected
        ]
        host.cache.check_soundness(pois)

    def test_window_share_includes_whole_window(self):
        pois, client = make_world(seed=9)
        host = make_host()
        window = Rect(3, 3, 5, 5)
        result = host.execute_window(
            Point(4, 4), (0, 0), window, [], client, now=0.0
        )
        shared_rects = [region for region, _ in result.shared]
        assert window in shared_rects

    def test_share_response_empty_cache_is_none(self):
        host = make_host()
        assert host.share_response() is None
