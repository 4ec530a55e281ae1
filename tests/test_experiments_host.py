"""Focused tests for the mobile-host query pipeline."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import OnAirClient
from repro.cache import POICache, SharedResult
from repro.codec import decode, encode
from repro.core import Resolution
from repro.experiments.host import MobileHost
from repro.geometry import Point, Rect
from repro.index import brute_force_knn, brute_force_window
from repro.model import POI
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


def rebuilt_columns(response):
    """``poi_arrays()`` of a fresh response over the same POIs."""
    return ShareResponse(
        response.peer_id, response.regions, response.pois, response.generation
    ).poi_arrays()


def assert_same_columns(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestShareResponseColumns:
    """A host's share response carries ``(ids, xs, ys)`` copied from its
    cache's coordinate mirror: equal to the columns rebuilt from its
    POIs, and untouched by the visits that follow."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_columns_match_pois_through_churn(self, seed):
        rng = random.Random(seed)
        host = make_host(capacity=50)
        built = []  # (response, its columns copied when it was built)
        history = []
        next_id = 0
        for step in range(60):
            x, y = rng.uniform(0, 20), rng.uniform(0, 20)
            visit = []
            for _ in range(rng.randint(1, 4)):
                if history and rng.random() < 0.3:  # a re-offer
                    visit.append(rng.choice(history))
                    continue
                half = rng.uniform(0.5, 4.0)
                region = Rect(x - half, y - half, x + half, y + half)
                pois = tuple(
                    POI(next_id + i, Point(
                        rng.uniform(region.x1, region.x2),
                        rng.uniform(region.y1, region.y2),
                    ))
                    for i in range(rng.randint(0, 25))
                )
                next_id += len(pois)
                visit.append((region, pois))
                history.append((region, pois))
            host.cache.insert_result(
                SharedResult(visit), float(step), Point(x, y),
                (rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            if rng.random() < 0.15:  # the host migrates: a decoded cache
                host = decode(encode(host))
            response = host.share_response()
            assert response is host.share_response()  # one per generation
            assert len(response.pois) <= 50
            assert_same_columns(response.poi_arrays(), rebuilt_columns(response))
            built.append((response, [a.copy() for a in response.poi_arrays()]))
        assert any(len(r.pois) == 50 for r, _ in built)  # evictions ran
        for response, columns in built:
            assert_same_columns(response.poi_arrays(), columns)
            assert_same_columns(columns, rebuilt_columns(response))

    def test_a_later_visit_leaves_a_built_response_alone(self):
        host = make_host(capacity=3)
        first = (Rect(0, 0, 2, 2), (POI(1, Point(1, 1)), POI(2, Point(1.5, 1))))
        host.cache.insert_result(SharedResult([first]), 0.0, Point(1, 1))
        response = host.share_response()
        ids, xs, ys = (a.copy() for a in response.poi_arrays())
        second = (Rect(5, 5, 7, 7), (POI(3, Point(6, 6)), POI(4, Point(6.5, 6))))
        host.cache.insert_result(SharedResult([second]), 1.0, Point(6, 6))
        later = host.share_response()
        assert later is not response
        assert later.poi_arrays()[0].tolist() != ids.tolist()  # evicted
        assert_same_columns(response.poi_arrays(), (ids, xs, ys))
        assert_same_columns(later.poi_arrays(), rebuilt_columns(later))

    def test_a_decoded_response_builds_its_columns_on_first_use(self):
        host = make_host()
        region = (Rect(0, 0, 2, 2), (POI(7, Point(0.5, 1.5)),))
        host.cache.insert_result(SharedResult([region]), 0.0, Point(1, 1))
        mirror = decode(encode(host.share_response()))
        assert mirror._poi_arrays is None
        assert_same_columns(mirror.poi_arrays(), host.share_response().poi_arrays())
