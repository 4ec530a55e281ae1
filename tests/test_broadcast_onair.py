"""End-to-end tests for the on-air kNN and window algorithms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import (
    BroadcastServer,
    OnAirClient,
    estimate_search_radius,
    plan_knn,
    plan_window,
)
from repro.errors import BroadcastError
from repro.geometry import Point, Rect
from repro.index import brute_force_knn, brute_force_window
from repro.model import POI

BOUNDS = Rect(0, 0, 20, 20)


def make_world(n=150, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    pois = [
        POI(i, Point(float(x), float(y)))
        for i, (x, y) in enumerate(rng.uniform(0, 20, (n, 2)))
    ]
    defaults = dict(hilbert_order=5, bucket_capacity=8, m=4, packet_time=0.1)
    defaults.update(kwargs)
    client = OnAirClient.build(pois, BOUNDS, **defaults)
    return client, pois


class TestSearchRadius:
    def test_radius_is_sound(self):
        client, pois = make_world(100, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = Point(*rng.uniform(0, 20, 2))
            for k in (1, 3, 10):
                radius = estimate_search_radius(client.server, q, k)
                true_kth = brute_force_knn(pois, q, k)[-1].distance
                assert radius >= true_kth

    def test_radius_is_tight(self):
        # Every POI lies within half a diagonal of its published centre,
        # so the k-th centre distance is at most half a diagonal above
        # the true k-th distance, and the radius at most one and a half.
        client, pois = make_world(100, seed=1)
        diagonal = client.server.grid.cell_diagonal
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = Point(*rng.uniform(-5, 25, 2))
            for k in (1, 3, 10, 100, 105):
                radius = estimate_search_radius(client.server, q, k)
                true_kth = brute_force_knn(pois, q, k)[-1].distance
                assert radius <= true_kth + 1.5 * diagonal + 1e-9

    def test_invalid_k_raises(self):
        client, _ = make_world(10)
        with pytest.raises(BroadcastError):
            estimate_search_radius(client.server, Point(0, 0), 0)

    def test_centres_are_float_columns_in_hilbert_order(self):
        client, pois = make_world(60, seed=8)
        server = client.server
        grid = server.grid
        values = [(grid.value_of_point(p.location), p.poi_id) for p in pois]
        by_value = [(h, i, grid.rect_of_value(h).center) for h, i in sorted(values)]
        for column in (server.index_center_x, server.index_center_y):
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
        assert server.index_center_x.tolist() == [c.x for _, _, c in by_value]
        assert server.index_center_y.tolist() == [c.y for _, _, c in by_value]


def published_centres(server, pois):
    """Each POI's cell centre, decoded one POI at a time."""
    grid = server.grid
    return [grid.rect_of_value(grid.value_of_point(p.location)).center
            for p in pois]


def full_sort_radius(server, centres, query, k):
    """The historical estimate: every published centre's ``math.hypot``
    distance, sorted, the ``min(k, N)``-th plus a cell diagonal."""
    distances = sorted(math.hypot(query.x - c.x, query.y - c.y) for c in centres)
    return distances[min(k, len(distances)) - 1] + server.grid.cell_diagonal


@st.composite
def radius_cases(draw):
    """A server over POIs on an integer grid (many share one published
    centre, many centres tie in distance) and a query on a centre, on
    the grid, or far outside the bounds."""
    order = draw(st.sampled_from([6, 8]))
    side = draw(st.sampled_from([8, 100, 1000]))
    coords = st.integers(0, side)
    points = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=60))
    pois = [POI(i, Point(float(x), float(y))) for i, (x, y) in enumerate(points)]
    server = BroadcastServer(
        pois, Rect(0, 0, side, side), hilbert_order=order, bucket_capacity=4
    )
    where = draw(st.sampled_from(["centre", "grid", "far"]))
    if where == "centre":
        query = draw(st.sampled_from(published_centres(server, pois)))
    elif where == "grid":
        query = Point(float(draw(coords)), float(draw(coords)))
    else:
        fx, fy = draw(st.tuples(*[st.sampled_from([-1e6, -3.5, 41.0, 1e9])] * 2))
        query = Point(side * fx, side * fy)
    n = len(pois)
    k = draw(st.sampled_from([1, max(1, n - 1), n, n + 5]))
    return server, pois, query, k


@given(radius_cases())
@settings(max_examples=300, deadline=None)
def test_selected_radius_equals_the_full_sort(case):
    server, pois, query, k = case
    assert estimate_search_radius(server, query, k) == full_sort_radius(
        server, published_centres(server, pois), query, k
    )


def test_radius_is_math_hypots_where_np_hypot_rounds_differently():
    # Queries whose k-th np.hypot centre distance is not math.hypot's:
    # the selection must still return math.hypot's, bit for bit.
    client, pois = make_world(400, seed=9)
    server = client.server
    centres = published_centres(server, pois)
    cx = np.array([c.x for c in centres])
    cy = np.array([c.y for c in centres])
    rng = np.random.default_rng(10)
    differing = 0
    for q in (Point(*xy) for xy in rng.uniform(-2, 22, (600, 2))):
        approx = np.sort(np.hypot(q.x - cx, q.y - cy))
        for k in (1, 2, 5):
            want = full_sort_radius(server, centres, q, k)
            if approx[k - 1] + server.grid.cell_diagonal != want:
                differing += 1
                assert estimate_search_radius(server, q, k) == want
    assert differing >= 3


def test_single_poi_server_radius():
    pois = [POI(0, Point(3.0, 4.0))]
    server = BroadcastServer(pois, Rect(0, 0, 8, 8), hilbert_order=6)
    centres = published_centres(server, pois)
    for query in (Point(0.0, 0.0), centres[0], Point(-1e6, 5e8)):
        for k in (1, 2, 6):
            assert estimate_search_radius(server, query, k) == full_sort_radius(
                server, centres, query, k
            )


class TestOnAirKnn:
    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_exact_answers(self, k):
        client, pois = make_world(200, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(15):
            q = Point(*rng.uniform(1, 19, 2))
            result = client.knn(q, k, t_query=float(rng.uniform(0, 100)))
            expected = brute_force_knn(pois, q, k)
            assert [e.poi.poi_id for e in result.results] == [
                e.poi.poi_id for e in expected
            ]

    def test_k_exceeding_database(self):
        client, pois = make_world(5, seed=5)
        result = client.knn(Point(10, 10), 50)
        assert len(result.results) == 5

    def test_upper_bound_shrinks_plan(self):
        client, pois = make_world(300, seed=6)
        q = Point(10, 10)
        k = 3
        true_kth = brute_force_knn(pois, q, k)[-1].distance
        free = client.knn(q, k)
        bounded = client.knn(q, k, upper_bound=true_kth * 1.01)
        assert [e.poi.poi_id for e in bounded.results] == [
            e.poi.poi_id for e in free.results
        ]
        assert len(bounded.plan.bucket_ids) <= len(free.plan.bucket_ids)
        assert bounded.plan.index_read_packets <= free.plan.index_read_packets

    def test_lower_bound_skips_buckets_and_stays_exact(self):
        client, pois = make_world(400, seed=7, bucket_capacity=4, hilbert_order=6)
        q = Point(10, 10)
        k = 10
        expected = brute_force_knn(pois, q, k)
        # Pretend everything within the 5th NN distance is verified.
        lower = expected[4].distance
        known = tuple(
            p for p in pois if p.location.distance_to(q) <= lower
        )
        filtered = client.knn(q, k, lower_bound=lower, known_pois=known)
        assert [e.poi.poi_id for e in filtered.results] == [
            e.poi.poi_id for e in expected
        ]
        unfiltered = client.knn(q, k)
        assert len(filtered.plan.bucket_ids) <= len(unfiltered.plan.bucket_ids)

    def test_lower_bound_actually_skips_something_when_dense(self):
        client, pois = make_world(
            800, seed=8, bucket_capacity=2, hilbert_order=6
        )
        q = Point(10, 10)
        expected = brute_force_knn(pois, q, 30)
        lower = expected[19].distance
        known = tuple(p for p in pois if p.location.distance_to(q) <= lower)
        filtered = client.knn(q, 30, lower_bound=lower, known_pois=known)
        assert filtered.plan.skipped_buckets  # the optimisation engaged
        assert [e.poi.poi_id for e in filtered.results] == [
            e.poi.poi_id for e in expected
        ]

    def test_covered_region_is_sound_for_caching(self):
        # Every POI inside the search MBR must be in the download.
        client, pois = make_world(250, seed=9)
        q = Point(7, 13)
        result = client.knn(q, 5)
        downloaded = {p.poi_id for p in result.downloaded}
        for poi in pois:
            if result.plan.search_mbr.contains_point(poi.location):
                assert poi.poi_id in downloaded

    def test_cost_accounting(self):
        client, _ = make_world(100, seed=10)
        result = client.knn(Point(5, 5), 3, t_query=12.34)
        cost = result.cost
        assert cost.access_latency > 0
        assert cost.finish_time == pytest.approx(12.34 + cost.access_latency)
        assert (
            cost.tuning_packets
            == 1 + result.plan.index_read_packets + len(result.plan.bucket_ids)
        )

    def test_invalid_bounds_raise(self):
        client, _ = make_world(20)
        with pytest.raises(BroadcastError):
            client.knn(Point(1, 1), 1, upper_bound=0)
        with pytest.raises(BroadcastError):
            client.knn(Point(1, 1), 1, lower_bound=-1)


class TestOnAirWindow:
    def test_exact_answers(self):
        client, pois = make_world(200, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(15):
            x1, y1 = rng.uniform(0, 15, 2)
            w = Rect(x1, y1, x1 + rng.uniform(1, 5), y1 + rng.uniform(1, 5))
            result = client.window([w], t_query=float(rng.uniform(0, 50)))
            expected = brute_force_window(pois, w)
            assert [p.poi_id for p in result.pois] == [
                p.poi_id for p in expected
            ]

    def test_empty_window_list_raises(self):
        client, _ = make_world(20)
        with pytest.raises(BroadcastError):
            client.window([])

    def test_window_outside_bounds_is_empty(self):
        client, _ = make_world(50, seed=13)
        result = client.window([Rect(100, 100, 110, 110)])
        assert result.pois == ()
        assert result.bucket_ids == ()

    def test_reduced_windows_cost_less(self):
        client, pois = make_world(500, seed=14, bucket_capacity=4)
        w = Rect(2, 2, 14, 14)
        fragment = Rect(2, 2, 4, 4)
        full = client.window([w], t_query=0.0)
        reduced = client.window([fragment], t_query=0.0)
        assert len(reduced.bucket_ids) < len(full.bucket_ids)
        assert reduced.cost.tuning_packets < full.cost.tuning_packets

    def test_multiple_fragments_union(self):
        client, pois = make_world(300, seed=15)
        w1 = Rect(1, 1, 4, 4)
        w2 = Rect(10, 10, 14, 14)
        result = client.window([w1, w2])
        expected = {
            p.poi_id
            for p in pois
            if w1.contains_point(p.location) or w2.contains_point(p.location)
        }
        assert {p.poi_id for p in result.pois} == expected

    def test_window_plan_covers_all_window_pois(self):
        client, pois = make_world(250, seed=16)
        w = Rect(3, 8, 9, 12)
        buckets, blocks = plan_window(client.server, [w])
        downloaded = {
            p.poi_id
            for b in buckets
            for p in client.server.buckets[b].pois
        }
        for poi in brute_force_window(pois, w):
            assert poi.poi_id in downloaded

    def test_window_plan_is_a_contiguous_segment(self):
        # Figure 8: the client listens to the whole broadcast run
        # between the window's first and last Hilbert point.
        client, _ = make_world(250, seed=17)
        buckets, _ = plan_window(client.server, [Rect(3, 8, 9, 12)])
        assert list(buckets) == list(range(buckets[0], buckets[-1] + 1))

    def test_window_bonus_regions_are_fully_downloaded(self):
        client, pois = make_world(400, seed=18, bucket_capacity=4)
        result = client.window([Rect(2, 2, 8, 8)])
        downloaded = {p.poi_id for p in result.downloaded}
        for region, _ in result.bonus_regions:
            for poi in pois:
                if region.contains_point(poi.location):
                    assert poi.poi_id in downloaded


class TestOnAirProperties:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 8),
        st.floats(1, 19),
        st.floats(1, 19),
    )
    @settings(max_examples=40, deadline=None)
    def test_knn_always_exact(self, seed, k, qx, qy):
        client, pois = make_world(80, seed=seed)
        q = Point(qx, qy)
        result = client.knn(q, k)
        expected = brute_force_knn(pois, q, k)
        assert [e.distance for e in result.results] == pytest.approx(
            [e.distance for e in expected]
        )

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0, 15),
        st.floats(0, 15),
        st.floats(0.5, 5),
        st.floats(0.5, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_always_exact(self, seed, x1, y1, w, h):
        client, pois = make_world(80, seed=seed)
        window = Rect(x1, y1, x1 + w, y1 + h)
        result = client.window([window])
        expected = brute_force_window(pois, window)
        assert [p.poi_id for p in result.pois] == [p.poi_id for p in expected]


class TestKClampSurfacing:
    """Regression: k > |POIs| used to clamp silently; the plan (and
    the index_scan span) must now say so."""

    def test_clamp_flag_set(self):
        client, pois = make_world(5, seed=5)
        result = client.knn(Point(10, 10), 50)
        assert result.plan.k_clamped is True
        assert len(result.results) == len(pois)

    def test_clamp_flag_clear_for_satisfiable_k(self):
        client, _ = make_world(50, seed=6)
        result = client.knn(Point(10, 10), 3)
        assert result.plan.k_clamped is False
        assert len(result.results) == 3

    def test_clamp_reported_on_index_scan_span(self):
        from repro.obs import Tracer

        client, _ = make_world(5, seed=7)
        tracer = Tracer()
        with tracer.span("query"):
            client.knn(Point(10, 10), 50, tracer=tracer)
        root = tracer.roots[0].to_dict()
        index_scan = next(
            c for c in root["children"] if c["name"] == "broadcast.index_scan"
        )
        assert index_scan["attributes"]["k_clamped"] is True
