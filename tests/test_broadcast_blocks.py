"""The server's aligned-block memo against the per-query filter it replaced.

A plan hands out each aligned block it certifies as the server's own
``(region, POIs)`` pair, built once per server.  The referee below is
the filter every query used to run: the download's POIs inside each
block's closed rectangle, in download order.  The served pairs must
equal it object for object, on the bench's two single-process worlds,
on a hand-built file whose POIs sit on cell edges, and on the
continuous engine's batched window path.
"""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import BroadcastServer, plan_knn, plan_window
from repro.cache import POICache
from repro.check import invariants
from repro.check.invariants import InvariantViolation, set_check_enabled
from repro.check.oracles import oracle_window_ids
from repro.continuous import ContinuousMonitor, standing_queries
from repro.experiments import Simulation
from repro.experiments.host import MobileHost
from repro.experiments.station import BaseStation
from repro.geometry import Point, Rect
from repro.model import POI
from repro.workloads import (
    LA_CITY,
    RIVERSIDE_COUNTY,
    QueryKind,
    generate_pois,
    scaled_parameters,
)


def _pois_per_region(
    regions: Sequence[Rect], downloaded: Sequence[POI]
) -> list[tuple[Rect, tuple[POI, ...]]]:
    """Filter the downloaded POIs into each bonus region.

    The per-region test is a closed-rectangle mask over coordinate
    arrays built once for the whole batch; ``nonzero`` preserves the
    download order, so each tuple matches the sequential filter.
    """
    if not regions:
        return []
    if not downloaded:
        return [(region, ()) for region in regions]
    xs = np.array([p.location.x for p in downloaded], np.float64)
    ys = np.array([p.location.y for p in downloaded], np.float64)
    out = []
    for region in regions:
        mask = (
            (region.x1 <= xs)
            & (xs <= region.x2)
            & (region.y1 <= ys)
            & (ys <= region.y2)
        )
        out.append(
            (region, tuple([downloaded[i] for i in np.nonzero(mask)[0].tolist()]))
        )
    return out


def assert_refereed(pairs, downloaded):
    """``pairs`` are the referee's filter of ``downloaded``: same
    regions, same POI objects, same order."""
    expected = _pois_per_region([rect for rect, _ in pairs], downloaded)
    assert len(pairs) == len(expected)
    for (rect, pois), (_, want) in zip(pairs, expected):
        assert [p.poi_id for p in pois] == [p.poi_id for p in want]
        assert all(a is b for a, b in zip(pois, want))


def per_bucket_download(server, bucket_ids):
    """The download as one extend per bucket, in plan order."""
    return tuple(p for b in bucket_ids for p in server.buckets[b].pois)


WORLDS = {
    "riverside-x0.25": (RIVERSIDE_COUNTY, 0.25),
    "la-x0.1": (LA_CITY, 0.1),
}
_SERVERS: dict[str, BroadcastServer] = {}


def world_server(name: str) -> BroadcastServer:
    """The bench world's broadcast server (the world seed is 0)."""
    if name not in _SERVERS:
        region, scale = WORLDS[name]
        params = scaled_parameters(region, area_scale=scale)
        pois = generate_pois(
            params.bounds, params.poi_number, np.random.default_rng(0)
        )
        _SERVERS[name] = BaseStation(pois, params.bounds).server
    return _SERVERS[name]


fraction = st.floats(0.0, 1.0)


def draw_window(data, bounds: Rect, max_share: float) -> Rect:
    """A window inside (or hanging over) ``bounds``."""
    w, h = bounds.width, bounds.height
    x = bounds.x1 - 0.05 * w + data.draw(fraction) * 1.1 * w
    y = bounds.y1 - 0.05 * h + data.draw(fraction) * 1.1 * h
    dx = data.draw(fraction) * max_share * w
    dy = data.draw(fraction) * max_share * h
    return Rect(x, y, x + dx, y + dy)


class TestServedPairsEqualTheReferee:
    @pytest.mark.parametrize("world", sorted(WORLDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_fragments(self, world, data):
        server = world_server(world)
        windows = [
            draw_window(data, server.bounds, 0.3)
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        bucket_ids, pairs = plan_window(server, windows)
        downloaded = server.download(bucket_ids)
        assert downloaded == per_bucket_download(server, bucket_ids)
        assert_refereed(pairs, downloaded)

    @pytest.mark.parametrize("world", sorted(WORLDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_knn_plans(self, world, data):
        server = world_server(world)
        b = server.bounds
        query = Point(
            b.x1 + data.draw(fraction) * b.width,
            b.y1 + data.draw(fraction) * b.height,
        )
        k = data.draw(st.integers(1, 12))
        upper = data.draw(st.none() | st.floats(0.05, 0.5 * b.width))
        lower = data.draw(st.none() | st.floats(0.0, 0.5 * b.width))
        plan = plan_knn(server, query, k, upper, lower)
        downloaded = server.download(plan.bucket_ids)
        assert downloaded == per_bucket_download(server, plan.bucket_ids)
        assert_refereed(plan.bonus_regions, downloaded)

    def test_a_block_served_twice_is_the_same_object(self):
        server = world_server("riverside-x0.25")
        b = server.bounds
        window = Rect(b.x1, b.y1, b.x1 + 0.4 * b.width, b.y1 + 0.4 * b.height)
        _, first = plan_window(server, [window])
        _, again = plan_window(server, [window])
        assert first
        assert all(a is b for a, b in zip(first, again))

    def test_two_servers_never_share_a_memo(self):
        params = scaled_parameters(RIVERSIDE_COUNTY, area_scale=0.25)
        pois = generate_pois(
            params.bounds, params.poi_number, np.random.default_rng(0)
        )
        one, two = (BaseStation(pois, params.bounds).server for _ in range(2))
        window = Rect(
            params.bounds.x1,
            params.bounds.y1,
            params.bounds.x1 + 0.5 * params.bounds.width,
            params.bounds.y1 + 0.5 * params.bounds.height,
        )
        _, from_one = plan_window(one, [window])
        _, from_two = plan_window(two, [window])
        assert from_one == from_two
        assert all(a is not b for a, b in zip(from_one, from_two))
        assert one._blocks is not two._blocks


# An order-3 grid of unit cells over [0, 8]^2, one POI per bucket: the
# curve's first four values are the 2 x 2 block [0, 2]^2, and (2, 1)
# sits on that block's right edge in cell (2, 1), outside its run.
EDGE_BOUNDS = Rect(0.0, 0.0, 8.0, 8.0)
EDGE_POIS = [
    POI(0, Point(0.5, 0.5)),
    POI(1, Point(1.5, 1.5)),
    POI(2, Point(2.0, 1.0)),
    POI(3, Point(2.0, 2.0)),
    POI(4, Point(0.0, 2.0)),
    POI(5, Point(6.5, 6.5)),
]
CORNER = Rect(0.1, 0.1, 1.9, 1.9)


def edge_server() -> BroadcastServer:
    return BroadcastServer(EDGE_POIS, EDGE_BOUNDS, hilbert_order=3, bucket_capacity=1)


class TestPOIsOnCellEdges:
    def test_the_edge_bucket_outside_the_plan(self):
        server = edge_server()
        bucket_ids, pairs = plan_window(server, [CORNER])
        (rect, pois), = pairs
        assert rect == Rect(0.0, 0.0, 2.0, 2.0)
        assert [p.poi_id for p in pois] == [0, 1]
        assert_refereed(pairs, server.download(bucket_ids))

    def test_the_edge_bucket_inside_the_plan(self):
        server = edge_server()
        near_edge = Rect(2.2, 1.2, 2.8, 1.8)
        bucket_ids, pairs = plan_window(server, [CORNER, near_edge])
        downloaded = server.download(bucket_ids)
        assert 2 in {p.poi_id for p in downloaded}
        assert 2 in {p.poi_id for p in pairs[0][1]}
        assert_refereed(pairs, downloaded)

    def test_the_full_and_the_filtered_pair_take_turns(self):
        # One memo entry serves both plans: the pair without the edge
        # POIs is built for the plan that lacks their buckets, and
        # never replaces the memo's own object.
        server = edge_server()
        around = [Rect(0.1, 0.1, 2.9, 2.9)]
        block = Rect(0.0, 0.0, 2.0, 2.0)
        _, full = plan_window(server, around)
        _, filtered = plan_window(server, [CORNER])
        _, full_again = plan_window(server, around)
        (whole,) = [pair for pair in full if pair[0] == block]
        (again,) = [pair for pair in full_again if pair[0] == block]
        assert whole is again
        assert sorted(p.poi_id for p in whole[1]) == [0, 1, 2, 3, 4]
        assert [p.poi_id for p in filtered[0][1]] == [0, 1]
        assert filtered[0] is not whole


@pytest.fixture()
def checks_on():
    previous = set_check_enabled(True)
    yield
    set_check_enabled(previous)


class TestServedBlockOracle:
    def test_a_wrong_poi_in_a_served_pair_fails(self, checks_on):
        server = world_server("riverside-x0.25")
        b = server.bounds
        window = Rect(b.x1, b.y1, b.x1 + 0.4 * b.width, b.y1 + 0.4 * b.height)
        bucket_ids, pairs = plan_window(server, [window])
        downloaded = server.download(bucket_ids)
        invariants.check_served_blocks(pairs, downloaded)
        (rect, pois), *rest = pairs
        stranger = next(p for p in server.file if not rect.contains_point(p.location))
        with pytest.raises(InvariantViolation):
            invariants.check_served_blocks(
                [(rect, (*pois, stranger)), *rest], downloaded
            )

    def test_a_host_adopting_a_wrong_pair_fails(self, checks_on, monkeypatch):
        client = BaseStation(EDGE_POIS, EDGE_BOUNDS).client
        real = BroadcastServer.blocks

        def planted(self, runs, downloaded):
            (rect, pois), *rest = real(self, runs, downloaded)
            return ((rect, (*pois, EDGE_POIS[5])), *rest)

        monkeypatch.setattr(BroadcastServer, "blocks", planted)
        host = MobileHost(0, POICache(50, max_regions=50))
        with pytest.raises(InvariantViolation):
            host.execute_window(
                Point(1.0, 1.0), (0.0, 0.0), Rect(0.1, 0.1, 3.9, 3.9), [], client, 0.0
            )


class TestBatchedWindowPath:
    def test_batched_ticks_answer_as_naive_ones_and_serve_refereed_pairs(
        self, monkeypatch
    ):
        adopted = []
        real = MobileHost._adopt

        def spy(self, certified, bonus_regions, downloaded, *rest):
            adopted.append((bonus_regions, downloaded))
            return real(self, certified, bonus_regions, downloaded, *rest)

        monkeypatch.setattr(MobileHost, "_adopt", spy)
        params = scaled_parameters(LA_CITY, area_scale=0.02)
        monitors = []
        for naive in (False, True):
            sim = Simulation(
                params, seed=0, accept_approximate=False, overhear=False
            )
            sim.run_workload(QueryKind.KNN, 0, 40)
            queries = standing_queries(
                params, QueryKind.WINDOW, np.random.default_rng((0, 0xC017)), 10
            )
            monitors.append(ContinuousMonitor(sim, queries, naive=naive))
        batched, naive = monitors
        start = batched.sim.env.now
        for i in range(5):
            t = start + (i + 1) * 5.0
            got, want = batched.tick(t), naive.tick(t)
            for query in batched.queries:
                ids = sorted(p.poi_id for p in got[query.query_id])
                assert ids == sorted(p.poi_id for p in want[query.query_id])
                window = query.template.window_for(
                    batched.sim.host_position(query.host_id),
                    batched.sim.params.bounds,
                )
                assert ids == oracle_window_ids(batched.sim.pois, window)
        assert max(batched.stats.batch_widths) > 1
        assert any(pairs for pairs, _ in adopted)
        for pairs, downloaded in adopted:
            assert_refereed(pairs, downloaded)
