"""Tests for continuous monitoring: safe regions, batch scans, engine A/B.

The tentpole claim under test is *bit-identity*: a monitored run (safe
regions + batched scans) must return, tick for tick and query for
query, exactly the answers a naive recompute-from-scratch run returns
— and both must match the exhaustive oracle — while spending
measurably fewer tuning packets on the broadcast channel.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import (
    BatchMember,
    OnAirClient,
    answer_knn,
    answer_window,
    batch_scan,
    plan_knn,
    plan_window,
)
from repro.cache import EVICTION_MARGIN, POICache
from repro.check import (
    run_continuous_campaign,
    safe_region_contract,
)
from repro.check.oracles import oracle_knn_ids, oracle_window_ids
from repro.core import Resolution
from repro.continuous import (
    ContinuousMonitor,
    derive_safe_region,
    standing_queries,
)
from repro.errors import BroadcastError, ExperimentError, ReproError
from repro.experiments import Simulation
from repro.faults import ChannelModel, FaultConfig
from repro.geometry import Point, Rect, RectUnion
from repro.index import brute_force_knn
from repro.model import POI
from repro.workloads import LA_CITY, QueryKind, scaled_parameters

BOUNDS = Rect(0, 0, 20, 20)


def make_pois(n=200, seed=0, lo=0.0, hi=20.0):
    rng = np.random.default_rng(seed)
    return [
        POI(i, Point(float(x), float(y)))
        for i, (x, y) in enumerate(rng.uniform(lo, hi, (n, 2)))
    ]


def make_cache(pois, region, capacity=4096, now=0.0):
    """A cache honouring the completeness contract on ``region``."""
    cache = POICache(capacity=capacity)
    inside = [p for p in pois if region.contains_point(p.location)]
    cache.insert_result([(region, inside)], now, Point(region.x1, region.y1))
    return cache


class TestSafeRegionDerivation:
    def test_snapshot_is_exactly_the_open_disc(self):
        pois = make_pois(300, seed=1)
        region = Rect(4, 4, 16, 16)
        cache = make_cache(pois, region)
        anchor = Point(10, 10)
        safe = derive_safe_region(cache, anchor, k=3)
        assert safe is not None
        assert safe.r_known > 0
        expected = sorted(
            p.poi_id
            for p in pois
            if math.hypot(p.x - anchor.x, p.y - anchor.y) < safe.r_known
        )
        assert sorted(p.poi_id for p in safe.snapshot) == expected

    def test_anchor_outside_mirror_returns_none(self):
        pois = make_pois(50, seed=2)
        cache = make_cache(pois, Rect(4, 4, 16, 16))
        assert derive_safe_region(cache, Point(1, 1), k=3) is None

    def test_empty_cache_returns_none(self):
        cache = POICache(capacity=8)
        assert derive_safe_region(cache, Point(5, 5), k=1) is None

    def test_snapshot_too_small_for_k_gives_zero_safe_radius(self):
        pois = [POI(0, Point(10, 10))]
        cache = make_cache(pois, Rect(4, 4, 16, 16))
        safe = derive_safe_region(cache, Point(10, 10), k=5)
        assert safe is not None
        assert safe.safe_radius == 0.0
        assert not safe.knn_safe(Point(10, 10))

    def test_knn_answers_match_full_database_oracle(self):
        pois = make_pois(400, seed=3)
        region = Rect(3, 3, 17, 17)
        cache = make_cache(pois, region)
        anchor = Point(10, 10)
        k = 4
        safe = derive_safe_region(cache, anchor, k=k)
        assert safe is not None and safe.safe_radius > 0
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(50):
            angle = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0, safe.safe_radius * 1.5)
            q = Point(anchor.x + r * math.cos(angle), anchor.y + r * math.sin(angle))
            if not safe.knn_safe(q):
                continue
            checked += 1
            got = [e.poi.poi_id for e in safe.knn_answer(q, k)]
            assert got == oracle_knn_ids(pois, q, k)
        assert checked > 0

    def test_window_answers_match_full_database_oracle(self):
        pois = make_pois(400, seed=5)
        cache = make_cache(pois, Rect(3, 3, 17, 17))
        anchor = Point(10, 10)
        safe = derive_safe_region(cache, anchor)
        assert safe is not None
        side = safe.r_known / 3.0
        window = Rect(
            anchor.x - side, anchor.y - side, anchor.x + side, anchor.y + side
        )
        assert safe.window_safe(window)
        got = sorted(p.poi_id for p in safe.window_answer(window))
        assert got == oracle_window_ids(pois, window)

    def test_window_straddling_the_disc_is_unsafe(self):
        pois = make_pois(100, seed=6)
        cache = make_cache(pois, Rect(3, 3, 17, 17))
        safe = derive_safe_region(cache, Point(10, 10))
        big = 2.0 * safe.r_known
        window = Rect(10 - big, 10 - big, 10 + big, 10 + big)
        assert not safe.window_safe(window)

    def test_margin_shrinks_region_monotonically(self):
        pois = make_pois(300, seed=7)
        cache = make_cache(pois, Rect(3, 3, 17, 17))
        anchor = Point(10, 10)
        base = derive_safe_region(cache, anchor, k=3)
        shrunk = derive_safe_region(cache, anchor, k=3, margin=0.5)
        assert shrunk is not None
        assert shrunk.r_known < base.r_known
        assert set(p.poi_id for p in shrunk.snapshot) <= set(
            p.poi_id for p in base.snapshot
        )
        assert shrunk.safe_radius <= base.safe_radius


class TestSafeRegionContract:
    def test_contract_holds_on_a_complete_cache(self):
        pois = make_pois(300, seed=8)
        cache = make_cache(pois, Rect(3, 3, 17, 17))
        anchor = Point(10, 10)
        probes = [anchor, Point(10.2, 9.9), Point(9.7, 10.3)]
        violations = safe_region_contract(
            cache, pois, anchor, 3, probes, window_side=0.5
        )
        assert violations == []

    def test_contract_flags_an_unsound_cache(self):
        # Claim a verified region but withhold one POI inside it:
        # snapshot completeness must fail.
        pois = make_pois(120, seed=9)
        region = Rect(3, 3, 17, 17)
        cache = POICache(capacity=4096)
        inside = [p for p in pois if region.contains_point(p.location)]
        withheld = min(
            inside,
            key=lambda p: math.hypot(p.x - 10, p.y - 10),
        )
        cache.insert_result(
            [(region, [p for p in inside if p.poi_id != withheld.poi_id])],
            0.0,
            Point(3, 3),
        )
        violations = safe_region_contract(cache, pois, Point(10, 10), 3, [])
        assert violations

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 500),
        ax=st.floats(5.0, 15.0),
        ay=st.floats(5.0, 15.0),
        k=st.integers(1, 6),
    )
    def test_contract_property(self, seed, ax, ay, k):
        pois = make_pois(150, seed=seed)
        cache = make_cache(pois, Rect(3, 3, 17, 17))
        anchor = Point(ax, ay)
        safe = derive_safe_region(cache, anchor, k=k)
        if safe is None:
            return
        probes = [anchor, Point(ax + safe.r_known / 4, ay)]
        violations = safe_region_contract(
            cache, pois, anchor, k, probes, window_side=safe.r_known / 4
        )
        assert violations == []

    @pytest.mark.parametrize("seed", [0, 3])
    def test_certificates_over_churned_caches(self, seed):
        # The certificate is derived from the rectangles eviction left
        # behind, so the caches that matter are the ones that evicted:
        # a warmed world with overhearing on, hosts at capacity only.
        params = scaled_parameters(LA_CITY, area_scale=0.05)
        sim = Simulation(
            params, seed=seed, accept_approximate=False, overhear=True
        )
        sim.run_workload(QueryKind.KNN, 0, 800)
        churned = [
            host.cache for host in sim.hosts
            if len(host.cache) == host.cache.capacity and host.cache.regions
        ]
        assert len(churned) >= 100
        certificates = 0
        for cache in churned[:150]:
            eager = RectUnion(cache.region_rects)
            for rect in cache.region_rects:
                anchor = rect.center
                safe = derive_safe_region(cache, anchor, k=3)
                r_known = eager.distance_to_boundary(anchor) - EVICTION_MARGIN
                if safe is None:
                    assert r_known <= 0.0
                    continue
                certificates += 1
                # the same certificate an eager union of the same
                # rectangles gives
                assert safe.r_known == r_known
                assert sorted(p.poi_id for p in safe.snapshot) == sorted(
                    p.poi_id for p in cache.pois
                    if math.hypot(p.x - anchor.x, p.y - anchor.y) < r_known
                )
                probes = [anchor, Point(anchor.x + safe.r_known / 4, anchor.y)]
                assert safe_region_contract(
                    cache, sim.pois, anchor, 3, probes,
                    window_side=safe.r_known / 4,
                ) == []
        assert certificates >= 200


class TestBatchScan:
    def make_client(self, n=150, seed=0):
        pois = make_pois(n, seed=seed)
        client = OnAirClient.build(
            pois, BOUNDS, hilbert_order=5, bucket_capacity=8, m=4, packet_time=0.1
        )
        return client, pois

    def plans(self, client, points, k=3):
        return [plan_knn(client.server, q, k) for q in points]

    def test_single_member_batch_equals_solo_scan(self):
        client, _ = self.make_client()
        (plan,) = self.plans(client, [Point(5, 5)])
        member = BatchMember(
            member_id=0,
            bucket_ids=plan.bucket_ids,
            index_read_packets=plan.index_read_packets,
        )
        batched = batch_scan(client.server, client.schedule, [member], 10.0)
        solo = client.knn(Point(5, 5), 3, t_query=10.0)
        assert batched.bucket_ids == tuple(sorted(plan.bucket_ids))
        assert batched.cost.tuning_packets == solo.cost.tuning_packets
        assert batched.cost.buckets_downloaded == solo.cost.buckets_downloaded

    def test_member_downloads_are_isolated_from_batching(self):
        client, pois = self.make_client(n=300, seed=11)
        points = [Point(4, 4), Point(16, 16), Point(4.5, 4.2)]
        plans = self.plans(client, points)
        members = [
            BatchMember(
                member_id=i,
                bucket_ids=plan.bucket_ids,
                index_read_packets=plan.index_read_packets,
            )
            for i, plan in enumerate(plans)
        ]
        shared = batch_scan(client.server, client.schedule, members, 0.0)
        for i, member in enumerate(members):
            solo = batch_scan(client.server, client.schedule, [member], 0.0)
            assert shared.downloads[i] == solo.downloads[i]
            # The downstream kNN over the member's own downloads is
            # therefore identical however wide the batch was.
            got = [
                e.poi.poi_id
                for e in brute_force_knn(shared.downloads[i], points[i], 3)
            ]
            assert got == oracle_knn_ids(pois, points[i], 3)

    def test_shared_scan_costs_no_more_than_solo_sum(self):
        client, _ = self.make_client(n=300, seed=12)
        plans = self.plans(client, [Point(4, 4), Point(4.5, 4.2), Point(5, 5)])
        members = [
            BatchMember(
                member_id=i,
                bucket_ids=plan.bucket_ids,
                index_read_packets=plan.index_read_packets,
            )
            for i, plan in enumerate(plans)
        ]
        shared = batch_scan(client.server, client.schedule, members, 0.0)
        solo_total = sum(
            batch_scan(
                client.server, client.schedule, [m], 0.0
            ).cost.tuning_packets
            for m in members
        )
        assert shared.width == 3
        assert shared.cost.tuning_packets < solo_total

    @given(
        seed=st.integers(0, 50),
        qx=st.floats(0.5, 19.5),
        qy=st.floats(0.5, 19.5),
        k=st.integers(1, 12),
        side=st.floats(0.2, 6.0),
        t_query=st.floats(0.0, 500.0),
        loss=st.sampled_from([None, 0.3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_width_one_batch_is_the_solo_scan(
        self, seed, qx, qy, k, side, t_query, loss
    ):
        # The law the one pipeline rests on: a batch of one is the solo
        # scan — every cost field, the download and the answer — on the
        # perfect channel and on a lossy one drawing the same stream.
        client, _ = self.make_client(n=120, seed=seed)
        server, schedule = client.server, client.schedule

        def channel():
            if loss is None:
                return None
            config = FaultConfig(bucket_loss_rate=loss, seed=7)
            return ChannelModel(config, tx_range=1.0)

        q = Point(qx, qy)
        plan = plan_knn(server, q, k)
        client.channel = channel()
        solo = client.knn(q, k, t_query=t_query)
        batched = batch_scan(
            server, schedule,
            [BatchMember(5, plan.bucket_ids, plan.index_read_packets)],
            t_query, channel=channel(),
        )
        assert solo.plan == plan
        assert batched.cost == solo.cost
        assert batched.downloads[5] == solo.downloaded
        assert answer_knn(plan, q, k, (), batched.downloads[5], batched.cost) == solo

        windows = [Rect(qx - side / 2, qy - side / 2, qx, qy + side / 2),
                   Rect(qx, qy - side / 2, qx + side / 2, qy + side / 2)]
        bucket_ids, bonus = plan_window(server, windows)
        client.channel = channel()
        solo = client.window(windows, t_query=t_query)
        batched = batch_scan(
            server, schedule,
            [BatchMember(9, bucket_ids, server.index.tree_probe_packets)],
            t_query, channel=channel(),
        )
        assert batched.cost == solo.cost
        assert batched.downloads[9] == solo.downloaded
        assert answer_window(
            windows, bucket_ids, bonus, batched.downloads[9], batched.cost
        ) == solo

    def test_empty_members_rejected(self):
        client, _ = self.make_client(n=20)
        with pytest.raises(BroadcastError):
            batch_scan(client.server, client.schedule, [], 0.0)

    def test_duplicate_member_ids_rejected(self):
        client, _ = self.make_client(n=20)
        (plan,) = self.plans(client, [Point(5, 5)])
        member = BatchMember(
            member_id=7,
            bucket_ids=plan.bucket_ids,
            index_read_packets=plan.index_read_packets,
        )
        with pytest.raises(BroadcastError):
            batch_scan(client.server, client.schedule, [member, member], 0.0)


class TestStandingQueries:
    def params(self):
        return scaled_parameters(LA_CITY, area_scale=0.02)

    def test_draws_requested_count(self):
        queries = standing_queries(
            self.params(), QueryKind.KNN, np.random.default_rng(0), 12
        )
        assert len(queries) == 12
        assert len({q.query_id for q in queries}) == 12
        assert all(q.kind is QueryKind.KNN for q in queries)

    def test_zero_count_rejected(self):
        with pytest.raises(ExperimentError):
            standing_queries(
                self.params(), QueryKind.KNN, np.random.default_rng(0), 0
            )

    def test_monitor_rejects_duplicate_ids(self):
        params = self.params()
        sim = Simulation(params, seed=0, accept_approximate=False, overhear=False)
        queries = standing_queries(
            params, QueryKind.KNN, np.random.default_rng(0), 2
        )
        queries[1].query_id = queries[0].query_id
        with pytest.raises(ExperimentError):
            ContinuousMonitor(sim, queries)

    def test_monitor_rejects_empty_queries(self):
        sim = Simulation(
            self.params(), seed=0, accept_approximate=False, overhear=False
        )
        with pytest.raises(ExperimentError):
            ContinuousMonitor(sim, [])


class TestEngineAB:
    """Monitored vs naive bit-identity on identically seeded worlds."""

    def build_pair(self, kind, standing=10, seed=0):
        params = scaled_parameters(LA_CITY, area_scale=0.02)
        sims, monitors = [], []
        for flags in (True, False):
            sim = Simulation(
                params, seed=seed, accept_approximate=False, overhear=False
            )
            sim.run_workload(QueryKind.KNN, 0, 40)
            queries = standing_queries(
                params, kind, np.random.default_rng((seed, 0xC017)), standing
            )
            monitors.append(
                ContinuousMonitor(sim, queries, naive=not flags)
            )
            sims.append(sim)
        return sims, monitors

    @pytest.mark.parametrize("kind", [QueryKind.KNN, QueryKind.WINDOW])
    def test_answers_bit_identical_and_oracle_exact(self, kind):
        (sim_mon, sim_naive), (mon, naive) = self.build_pair(kind)
        start = sim_mon.env.now
        for i in range(5):
            t = start + (i + 1) * 5.0
            answers_mon = mon.tick(t)
            answers_naive = naive.tick(t)
            for query in mon.queries:
                ids_mon = tuple(p.poi_id for p in answers_mon[query.query_id])
                ids_naive = tuple(
                    p.poi_id for p in answers_naive[query.query_id]
                )
                assert ids_mon == ids_naive
                position = sim_mon.host_position(query.host_id)
                if kind is QueryKind.KNN:
                    assert list(ids_mon) == oracle_knn_ids(
                        sim_mon.pois, position, query.template.k
                    )
                else:
                    window = query.template.window_for(
                        position, sim_mon.params.bounds
                    )
                    assert sorted(ids_mon) == oracle_window_ids(
                        sim_mon.pois, window
                    )

    @pytest.mark.parametrize("kind", [QueryKind.KNN, QueryKind.WINDOW])
    def test_one_shot_query_is_a_naive_tick_of_one(self, kind, monkeypatch):
        # Two identically seeded, identically warmed worlds: the same
        # template at the same time through execute_query on one and
        # through one naive tick on the other leaves the same record
        # (answers, tuning packets, access latency, ...) and the same
        # caches.
        params = scaled_parameters(LA_CITY, area_scale=0.02)
        settled = []
        real = ContinuousMonitor._settle

        def spy(self, query, position, result, answers):
            settled.append(result)
            return real(self, query, position, result, answers)

        monkeypatch.setattr(ContinuousMonitor, "_settle", spy)
        resolutions = set()
        for draw in range(6):
            one_shot, ticked = (
                Simulation(
                    params, seed=3, accept_approximate=False, overhear=False
                )
                for _ in range(2)
            )
            for sim in (one_shot, ticked):
                sim.run_workload(kind, 0, 60)
            (query,) = standing_queries(
                params, kind, np.random.default_rng((draw, 0xC017)), 1
            )
            t = one_shot.env.now + 10.0
            # the monitor force-refreshes positions; so must the one-shot
            one_shot._refresh_positions(t)
            event = dataclasses.replace(query.template, time=t)
            expected = one_shot.execute_query(event)
            monitor = ContinuousMonitor(ticked, [query], naive=True)
            answers = monitor.tick(t)
            (got,) = settled[-1:]
            assert got.record == expected.record
            assert answers[query.query_id] == got.answers == expected.answers
            assert got.shared == expected.shared
            assert monitor.stats.tuning_packets == expected.record.tuning_packets
            assert ticked.share_states() == one_shot.share_states()
            resolutions.add(expected.record.resolution)
        assert Resolution.BROADCAST in resolutions

    def test_monitored_mode_spends_fewer_tuning_packets(self):
        (_, _), (mon, naive) = self.build_pair(QueryKind.KNN, standing=12)
        start = mon.sim.env.now
        for i in range(6):
            t = start + (i + 1) * 5.0
            mon.tick(t)
            naive.tick(t)
        assert mon.stats.evaluations == naive.stats.evaluations == 72
        assert mon.stats.tuning_packets < naive.stats.tuning_packets
        assert mon.stats.safe_hits > 0
        assert naive.stats.safe_hits == 0
        # Every naive broadcast re-evaluation pays its own scan.
        assert naive.stats.scans == naive.stats.reeval_broadcast
        assert all(w == 1 for w in naive.stats.batch_widths)

    def test_run_continuous_entry_point(self):
        params = scaled_parameters(LA_CITY, area_scale=0.02)
        sim = Simulation(
            params, seed=0, accept_approximate=False, overhear=False
        )
        monitor = sim.run_continuous(
            QueryKind.KNN, standing=6, ticks=3, warmup_queries=20
        )
        stats = monitor.stats
        assert stats.ticks == 3
        assert stats.evaluations == 18
        assert all(q.answer for q in monitor.queries)

    def test_committed_operating_point_tuning_packets(self):
        # LA x0.05, 100 standing kNN, 20 ticks of 5 s, seed 0: the
        # channel cost of both engines repeats exactly, so the ~10.5x
        # broadcast-access reduction is pinned as two integers.
        params = scaled_parameters(LA_CITY, area_scale=0.05)
        packets = {}
        for flags in (True, False):
            sim = Simulation(
                params, seed=0, accept_approximate=False, overhear=False
            )
            monitor = sim.run_continuous(
                QueryKind.KNN,
                standing=100,
                ticks=20,
                tick_interval=5.0,
                naive=not flags,
                warmup_queries=150,
            )
            assert monitor.stats.evaluations == 2000
            packets[flags] = monitor.stats.tuning_packets
        assert packets == {True: 763, False: 8029}

    def test_run_continuous_validates_arguments(self):
        params = scaled_parameters(LA_CITY, area_scale=0.02)
        sim = Simulation(params, seed=0)
        with pytest.raises(ExperimentError):
            sim.run_continuous(QueryKind.KNN, standing=4, ticks=0)
        with pytest.raises(ExperimentError):
            sim.run_continuous(
                QueryKind.KNN, standing=4, ticks=2, tick_interval=0.0
            )


class TestContinuousCampaign:
    def test_clean_campaign(self):
        report = run_continuous_campaign(
            "la", seed=0, standing=8, ticks=4, area_scale=0.02,
            warmup_queries=30, contract_every=2,
        )
        assert report.ok
        assert report.evaluations_checked == 8 * 4
        assert report.contract_checks > 0
        assert report.monitored_tuning > 0
        assert report.broadcast_access_ratio >= 1.0

    def test_unknown_region_rejected(self):
        with pytest.raises(ReproError):
            run_continuous_campaign("narnia", standing=4, ticks=1)

    def test_tiny_campaign_rejected(self):
        with pytest.raises(ReproError):
            run_continuous_campaign("la", standing=1, ticks=1)
