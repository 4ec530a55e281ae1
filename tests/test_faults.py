"""Tests for the unreliable-wireless fault layer."""

import math

import numpy as np
import pytest

from repro.broadcast import BroadcastSchedule
from repro.cache import POICache
from repro.errors import FaultError
from repro.experiments import MobileHost, Simulation, scaled_parameters
from repro.experiments.world import P2P_LATENCY
from repro.faults import ChannelModel, FaultConfig
from repro.geometry import Point, Rect
from repro.model import POI
from repro.codec import encode
from repro.p2p import ShareRequest, ShareResponse
from repro.workloads import SYNTHETIC_SUBURBIA, QueryKind


def make_sim(seed=5, fault_config=None, **kwargs):
    params = scaled_parameters(SYNTHETIC_SUBURBIA, area_scale=0.02)
    return Simulation(params, seed=seed, fault_config=fault_config, **kwargs)


# ----------------------------------------------------------------------
# FaultConfig
# ----------------------------------------------------------------------
class TestFaultConfig:
    def test_defaults_are_disabled(self):
        cfg = FaultConfig()
        assert not cfg.enabled
        assert not cfg.p2p_enabled
        assert not cfg.broadcast_enabled

    def test_any_rate_enables(self):
        assert FaultConfig(loss_rate=0.1).enabled
        assert FaultConfig(churn_rate=0.1).p2p_enabled
        assert FaultConfig(peer_timeout=1.0).p2p_enabled
        assert FaultConfig(bucket_loss_rate=0.1).broadcast_enabled
        assert not FaultConfig(bucket_loss_rate=0.1).p2p_enabled

    def test_bucket_loss_defaults_to_loss_rate(self):
        assert FaultConfig(loss_rate=0.2).effective_bucket_loss_rate == 0.2
        cfg = FaultConfig(loss_rate=0.2, bucket_loss_rate=0.05)
        assert cfg.effective_bucket_loss_rate == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": -0.1},
            {"loss_rate": 1.5},
            {"churn_rate": 2.0},
            {"bucket_loss_rate": -1.0},
            {"peer_timeout": 0.0},
            {"delay_scale": 0.0},
            {"retries": -1},
            {"backoff": -0.5},
            {"max_retunes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(FaultError):
            FaultConfig(**kwargs)


# ----------------------------------------------------------------------
# ChannelModel
# ----------------------------------------------------------------------
class TestChannelModel:
    def test_seeded_determinism(self):
        cfg = FaultConfig(
            loss_rate=0.3, churn_rate=0.2, peer_timeout=0.05, seed=11
        )
        a = ChannelModel(cfg, tx_range=1.0)
        b = ChannelModel(cfg, tx_range=1.0)
        decisions_a = [
            (a.link_lost(0.5), a.peer_departed(), a.response_arrival(2.0))
            for _ in range(200)
        ]
        decisions_b = [
            (b.link_lost(0.5), b.peer_departed(), b.response_arrival(2.0))
            for _ in range(200)
        ]
        assert decisions_a == decisions_b

    def test_different_seeds_differ(self):
        cfg = FaultConfig(loss_rate=0.5)
        a = ChannelModel(cfg, tx_range=1.0)
        b = ChannelModel(FaultConfig(loss_rate=0.5, seed=99), tx_range=1.0)
        assert [a.link_lost(0.5) for _ in range(64)] != [
            b.link_lost(0.5) for _ in range(64)
        ]

    def test_zero_rates_never_fire_and_never_draw(self):
        model = ChannelModel(FaultConfig(), tx_range=1.0)
        before = model.rng.bit_generator.state
        assert not model.link_lost(0.5)
        assert not model.peer_departed()
        assert model.split_received([1, 2, 3]) == ([1, 2, 3], [])
        assert not model.has_deadline
        # No fault configured -> not a single RNG draw consumed.
        assert model.rng.bit_generator.state == before

    def test_distance_weighting_preserves_mean_and_orders_links(self):
        cfg = FaultConfig(loss_rate=0.2, distance_weighted=True)
        model = ChannelModel(cfg, tx_range=100.0)
        near = model.link_loss_probability(10.0)
        far = model.link_loss_probability(100.0)
        assert near < 0.2 < far <= 1.0
        # E[2 p (d/R)^2] over a uniform disc is exactly p.
        rng = np.random.default_rng(0)
        radii = 100.0 * np.sqrt(rng.random(20000))
        mean = np.mean([model.link_loss_probability(r) for r in radii])
        assert mean == pytest.approx(0.2, rel=0.05)

    def test_certain_loss(self):
        model = ChannelModel(FaultConfig(loss_rate=1.0), tx_range=1.0)
        assert all(model.link_lost(0.1) for _ in range(16))
        received, lost = model.split_received([4, 5])
        assert received == [] and lost == [4, 5]

    def test_backoff_doubles(self):
        model = ChannelModel(FaultConfig(backoff=0.1), tx_range=1.0)
        assert model.backoff_delay(1) == pytest.approx(0.1)
        assert model.backoff_delay(2) == pytest.approx(0.2)
        assert model.backoff_delay(3) == pytest.approx(0.4)
        with pytest.raises(FaultError):
            model.backoff_delay(0)

    def test_backoff_capped_at_peer_timeout(self):
        """Regression: the doubling used to run away past any
        configured deadline, so high-attempt retries waited longer
        than the timeout they were racing."""
        cfg = FaultConfig(backoff=0.1, peer_timeout=0.35, retries=8)
        model = ChannelModel(cfg, tx_range=1.0)
        assert model.backoff_delay(1) == pytest.approx(0.1)
        assert model.backoff_delay(2) == pytest.approx(0.2)
        assert model.backoff_delay(3) == pytest.approx(0.35)
        for attempt in range(3, 40):
            assert model.backoff_delay(attempt) <= cfg.peer_timeout

    def test_backoff_capped_at_explicit_max_backoff(self):
        # max_backoff wins over the peer_timeout default, and also
        # applies when no deadline is configured at all.
        with_deadline = ChannelModel(
            FaultConfig(backoff=0.1, peer_timeout=5.0, max_backoff=0.25),
            tx_range=1.0,
        )
        assert with_deadline.backoff_delay(4) == pytest.approx(0.25)
        without_deadline = ChannelModel(
            FaultConfig(backoff=0.1, max_backoff=0.15), tx_range=1.0
        )
        assert without_deadline.backoff_delay(1) == pytest.approx(0.1)
        assert without_deadline.backoff_delay(10) == pytest.approx(0.15)

    def test_max_backoff_validated(self):
        with pytest.raises(FaultError):
            FaultConfig(max_backoff=0.0)
        with pytest.raises(FaultError):
            FaultConfig(max_backoff=-1.0)

    def test_response_arrival_requires_deadline(self):
        """The docstring contract — the exponential delay is only
        drawn when a deadline is configured — is now enforced, and a
        refused draw consumes nothing from the decision stream."""
        cfg = FaultConfig(loss_rate=0.4, churn_rate=0.1, seed=7)
        model = ChannelModel(cfg, tx_range=1.0)
        reference = ChannelModel(cfg, tx_range=1.0)
        decisions = []
        for i in range(120):
            if i % 7 == 0:
                with pytest.raises(FaultError):
                    model.response_arrival(float(i))
            decisions.append((model.link_lost(0.3), model.peer_departed()))
        expected = [
            (reference.link_lost(0.3), reference.peer_departed())
            for _ in range(120)
        ]
        assert decisions == expected

    def test_tx_range_validated(self):
        with pytest.raises(FaultError):
            ChannelModel(FaultConfig(), tx_range=0.0)


# ----------------------------------------------------------------------
# ShareRequest deadline wiring
# ----------------------------------------------------------------------
class TestShareRequestDeadline:
    def test_deadline_anchored_at_issue_time(self):
        request = ShareRequest(requester_id=3, issued_at=10.0)
        assert request.deadline(0.5) == pytest.approx(10.5)

    def test_invalid_timeout(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            ShareRequest(requester_id=3).deadline(0.0)

    def test_category_mismatch_not_answered(self):
        host = MobileHost(0, POICache(capacity=4))
        host.cache.insert_result(
            [(Rect(0, 0, 1, 1), [POI(0, Point(0.5, 0.5))])], 0.0, Point(0, 0)
        )
        assert host.share_response() is not None
        other = ShareRequest(requester_id=1, category="hospital")
        assert host.share_response(other) is None


# ----------------------------------------------------------------------
# Strict opt-in: no faults => bit-identical record streams
# ----------------------------------------------------------------------
class TestOptIn:
    def test_disabled_config_is_bit_identical(self):
        baseline = make_sim(seed=9).run_workload(QueryKind.KNN, 50, 120)
        disabled = make_sim(seed=9, fault_config=FaultConfig()).run_workload(
            QueryKind.KNN, 50, 120
        )
        assert baseline.records == disabled.records

    def test_disabled_config_builds_no_channel(self):
        sim = make_sim(fault_config=FaultConfig())
        assert sim.faults is None
        assert sim.station.client.channel is None

    def test_faulty_run_is_deterministic(self):
        cfg = FaultConfig(
            loss_rate=0.25, churn_rate=0.1, peer_timeout=0.05, seed=3
        )
        a = make_sim(seed=9, fault_config=cfg).run_workload(
            QueryKind.KNN, 50, 120
        )
        b = make_sim(seed=9, fault_config=cfg).run_workload(
            QueryKind.KNN, 50, 120
        )
        assert a.records == b.records

    def test_no_deadline_run_never_draws_response_delay(self):
        """Determinism pin for the response_arrival contract: with no
        deadline configured the delay distribution must be irrelevant
        — and since response_arrival now raises on the no-deadline
        path, a single stray draw anywhere in the pipeline would crash
        this run rather than silently skew the fault stream."""
        records = []
        for delay_scale in (0.02, 50.0):
            cfg = FaultConfig(
                loss_rate=0.3, churn_rate=0.1, retries=2,
                delay_scale=delay_scale, seed=3,
            )
            records.append(
                make_sim(seed=9, fault_config=cfg)
                .run_workload(QueryKind.KNN, 50, 120)
                .records
            )
        assert records[0] == records[1]

    def test_faults_do_not_perturb_workload(self):
        """The fault RNG is independent: same queries, same hosts."""
        cfg = FaultConfig(loss_rate=0.25, seed=3)
        baseline = make_sim(seed=9).run_workload(QueryKind.KNN, 50, 120)
        faulty = make_sim(seed=9, fault_config=cfg).run_workload(
            QueryKind.KNN, 50, 120
        )
        assert [r.time for r in baseline.records] == [
            r.time for r in faulty.records
        ]
        assert [r.host_id for r in baseline.records] == [
            r.host_id for r in faulty.records
        ]

    def test_faulty_run_reports_counters_and_degrades(self):
        cfg = FaultConfig(loss_rate=0.3, churn_rate=0.15, seed=3)
        baseline = make_sim(seed=9).run_workload(QueryKind.KNN, 150, 250)
        faulty = make_sim(seed=9, fault_config=cfg).run_workload(
            QueryKind.KNN, 150, 250
        )
        assert faulty.total_drops() > 0
        assert faulty.total_retries() > 0
        assert faulty.total_retunes() > 0
        assert faulty.hit_ratio <= baseline.hit_ratio
        assert faulty.mean_latency() > baseline.mean_latency()


# ----------------------------------------------------------------------
# Retry / backoff arithmetic
# ----------------------------------------------------------------------
class ScriptedChannel:
    """A ChannelModel stand-in replaying scripted loss decisions."""

    def __init__(self, config, losses):
        self.config = config
        self._losses = iter(losses)
        self.has_deadline = False

    def peer_departed(self):
        return False

    def link_lost(self, distance):
        # Delivered exchanges draw twice (request leg, then response
        # leg); once the script runs out everything is delivered.
        return next(self._losses, False)

    def backoff_delay(self, attempt):
        return self.config.backoff * (2.0 ** (attempt - 1))

    def response_arrival(self, issued_at):  # pragma: no cover
        raise AssertionError("no deadline configured")


class TestRetryBackoff:
    def make_faulty_sim(self, losses, retries=2, backoff=0.1):
        cfg = FaultConfig(loss_rate=0.5, retries=retries, backoff=backoff)
        sim = make_sim(seed=9, fault_config=cfg)
        sim.faults = ScriptedChannel(cfg, losses)
        return sim

    def warm_peer(self, sim, host_id):
        """Give one host something to share."""
        sim.hosts[host_id].cache.insert_result(
            [(Rect(0, 0, 1, 1), [POI(0, Point(0.5, 0.5))])], 0.0, Point(0, 0)
        )

    def collect(self, sim, host_id=0):
        position = sim.host_position(host_id)
        ring = sim.network.peers_of(host_id, position)
        return sim._collect_responses(host_id, position, ring, now=100.0)

    def find_host_with_peers(self, sim, minimum=1):
        for host_id in range(sim.params.mh_number):
            position = sim.host_position(host_id)
            peers = sim.network.peers_of(host_id, position)
            if peers.size >= minimum:
                return host_id, [int(p) for p in peers]
        pytest.skip("no host with enough peers in this world")

    def test_retry_latency_arithmetic(self):
        sim = self.make_faulty_sim(losses=[True, False], backoff=0.1)
        host_id, peers = self.find_host_with_peers(sim)
        for pid in peers:
            self.warm_peer(sim, pid)
        # Script: every peer beyond the first succeeds instantly; the
        # first peer's request leg is lost once, then delivered.
        sim.faults = ScriptedChannel(
            sim.fault_config, [True] + [False] * 64
        )
        responses, stats = self.collect(sim, host_id)
        assert stats.retries == 1
        assert stats.drops == 1
        # One retry round: one extra round trip plus the first backoff.
        expected = P2P_LATENCY * sim.p2p_hops + 0.1
        assert stats.extra_latency == pytest.approx(expected)
        assert any(r.peer_id == peers[0] for r in responses)

    def test_retries_exhausted_drops_peer(self):
        sim = self.make_faulty_sim(losses=[], retries=1, backoff=0.1)
        host_id, peers = self.find_host_with_peers(sim)
        for pid in peers:
            self.warm_peer(sim, pid)
        sim.faults = ScriptedChannel(sim.fault_config, [True] * 256)
        responses, stats = self.collect(sim, host_id)
        # Own response only: every peer was lost in both rounds.
        assert all(r.peer_id == host_id for r in responses)
        assert stats.retries == 1
        assert stats.drops == 2 * len(peers)
        # Latency charged for the retry round even though nobody answered.
        assert stats.extra_latency == pytest.approx(
            P2P_LATENCY * sim.p2p_hops + 0.1
        )

    def test_second_retry_doubles_backoff(self):
        sim = self.make_faulty_sim(losses=[], retries=2, backoff=0.1)
        host_id, peers = self.find_host_with_peers(sim)
        self.warm_peer(sim, peers[0])
        # Round 0: the first peer's request leg is lost; every other
        # peer is delivered (two draws each: request + response leg).
        script = [True] + [False] * (2 * (len(peers) - 1))
        # Round 1 retries only the first peer: lost again.  Round 2
        # succeeds via the script's exhausted-default (delivered).
        script.append(True)
        sim.faults = ScriptedChannel(sim.fault_config, script)
        responses, stats = self.collect(sim, host_id)
        assert stats.retries == 2
        expected = 2 * P2P_LATENCY * sim.p2p_hops + 0.1 + 0.2
        assert stats.extra_latency == pytest.approx(expected)


# ----------------------------------------------------------------------
# Traffic accounting fixes
# ----------------------------------------------------------------------
class TestTrafficAccounting:
    def test_empty_caches_produce_no_responses(self):
        sim = make_sim(seed=9)
        position = sim.host_position(0)
        sim._collect_responses(
            0, position, sim.network.peers_of(0, position), 0.0
        )
        # Cold world: nobody has anything cached, nothing goes on air.
        assert sim.network.requests_sent == 1
        assert sim.network.responses_received == 0

    def test_multihop_relays_charged(self):
        from repro.p2p import PeerNetwork

        bounds = Rect(0, 0, 100, 100)
        net = PeerNetwork(bounds, tx_range=10.0)
        chain = [(i * 8.0, 0.0) for i in range(4)]
        xs = np.array([p[0] for p in chain])
        ys = np.array([p[1] for p in chain])
        net.update_positions(xs, ys)
        net.peers_within_hops(0, net.peers_of(0, Point(0, 0)), hops=3)
        # Initial broadcast + relays by hosts 1 (hop 2) and 2 (hop 3).
        assert net.requests_sent == 1 + 1 + 1
        assert net.responses_received == 0

    def test_single_hop_relay_free(self):
        from repro.p2p import PeerNetwork

        bounds = Rect(0, 0, 100, 100)
        net = PeerNetwork(bounds, tx_range=10.0)
        xs = np.array([0.0, 5.0, 9.0])
        ys = np.array([0.0, 0.0, 0.0])
        net.update_positions(xs, ys)
        net.peers_within_hops(0, net.peers_of(0, Point(0, 0)), hops=1)
        assert net.requests_sent == 1


# ----------------------------------------------------------------------
# Cache generation: one bump per mutating call
# ----------------------------------------------------------------------
class TestGenerationBump:
    def test_insert_with_pois_and_region_bumps_once(self):
        cache = POICache(capacity=10)
        before = cache.generation
        cache.insert_result(
            [(Rect(0, 0, 2, 2), [POI(i, Point(0.5 + i * 0.1, 0.5)) for i in range(3)])],
            0.0,
            Point(0, 0),
        )
        assert cache.generation == before + 1

    def test_insert_forcing_eviction_bumps_once(self):
        cache = POICache(capacity=2)
        cache.insert_result(
            [(Rect(0, 0, 1, 1), [POI(0, Point(0.2, 0.2)), POI(1, Point(0.8, 0.8))])],
            0.0,
            Point(0, 0),
        )
        before = cache.generation
        cache.insert_result(
            [(Rect(2, 2, 3, 3), [POI(2, Point(2.5, 2.5)), POI(3, Point(2.6, 2.6))])],
            1.0,
            Point(0, 0),
        )
        assert cache.generation == before + 1

    def test_noop_insert_does_not_bump(self):
        cache = POICache(capacity=10)
        poi = POI(0, Point(0.5, 0.5))
        cache.insert_result([(Rect(0, 0, 1, 1), [poi])], 0.0, Point(0, 0))
        before = cache.generation
        # Same POI, degenerate region: the share content cannot change.
        cache.insert_result([(Rect(0, 0, 0, 0), [poi])], 1.0, Point(0, 0))
        assert cache.generation == before

    def test_share_memo_survives_noop_insert(self):
        host = MobileHost(0, POICache(capacity=10))
        poi = POI(0, Point(0.5, 0.5))
        host.cache.insert_result([(Rect(0, 0, 1, 1), [poi])], 0.0, Point(0, 0))
        first = host.share_response()
        host.cache.insert_result([(Rect(0, 0, 0, 0), [poi])], 1.0, Point(0, 0))
        assert host.share_response() is first

    def test_generation_bump_drops_the_response(self):
        host = MobileHost(3, POICache(capacity=2))
        a, b, c = (POI(i, Point(0.2 * i + 0.1, 0.5)) for i in range(3))
        host.cache.insert_result([(Rect(0, 0, 1, 1), [a, b])], 0.0, Point(0, 0))
        first = host.share_response()
        assert host.cache.response is first
        # An evicting visit bumps the generation: the old response is
        # not kept, and the next request builds this generation's.
        host.cache.insert_result([(Rect(2, 0, 3, 1), [c])], 1.0, Point(0, 0))
        assert host.cache.generation == first.generation + 1
        assert host.cache.response is None
        rebuilt = host.share_response()
        assert host.cache.response is rebuilt
        assert host.share_response() is rebuilt
        # The response as a per-generation memo would build it: the
        # cache's snapshot, with columns equal to its POIs.
        generation, regions, pois = host.cache.frozen_snapshot()
        expected = ShareResponse(3, regions, pois, generation)
        assert rebuilt == expected
        assert encode(rebuilt) == encode(expected)
        for got, want in zip(rebuilt.poi_arrays(), expected.poi_arrays()):
            assert got.tolist() == want.tolist()

    def test_an_empty_cache_answers_nothing_and_keeps_nothing(self):
        host = MobileHost(0, POICache(capacity=2))
        assert host.share_response() is None
        assert host.cache.response is None


# ----------------------------------------------------------------------
# Broadcast bucket loss and index-segment recovery
# ----------------------------------------------------------------------
class BucketScript:
    """Channel stub scripting which buckets are lost per round."""

    def __init__(self, lost_rounds, max_retunes=4):
        self.config = FaultConfig(
            loss_rate=0.5, max_retunes=max_retunes
        )
        self._rounds = iter(lost_rounds)

    def split_received(self, bucket_ids):
        lost = set(next(self._rounds, set()))
        return (
            [b for b in bucket_ids if b not in lost],
            [b for b in bucket_ids if b in lost],
        )


class TestBroadcastRecovery:
    def make_schedule(self):
        return BroadcastSchedule(
            data_bucket_count=12, index_packet_count=3, m=3, packet_time=0.1
        )

    def test_no_channel_is_plain_retrieve(self):
        sched = self.make_schedule()
        plain = sched.retrieve(0.0, [2, 7], 2)
        recovered = sched.retrieve_with_recovery(0.0, [2, 7], 2, channel=None)
        assert recovered == plain
        assert recovered.retunes == 0
        assert recovered.buckets_lost == 0

    def test_lossless_channel_is_plain_retrieve(self):
        sched = self.make_schedule()
        plain = sched.retrieve(0.0, [2, 7], 2)
        recovered = sched.retrieve_with_recovery(
            0.0, [2, 7], 2, channel=BucketScript([set()])
        )
        assert recovered == plain

    def test_single_loss_recovers_at_next_index_segment(self):
        sched = self.make_schedule()
        plain = sched.retrieve(0.0, [2, 7], 2)
        channel = BucketScript([{7}, set()])
        cost = sched.retrieve_with_recovery(
            0.0, [2, 7], 2, channel=channel, recovery_index_packets=2
        )
        assert cost.retunes == 1
        assert cost.buckets_lost == 1
        # The re-tune reads two index packets and re-downloads bucket 7.
        assert cost.tuning_packets == plain.tuning_packets + 2 + 1
        assert cost.buckets_downloaded == plain.buckets_downloaded + 1
        # Recovery starts at the next index segment after the first
        # finish and ends when bucket 7 comes around again.
        index_start = sched.next_index_start(plain.finish_time)
        index_end = index_start + 2 * sched.packet_time
        expected_finish = sched.next_bucket_end(7, index_end)
        assert cost.finish_time == pytest.approx(expected_finish)
        assert cost.access_latency == pytest.approx(expected_finish)
        assert cost.access_latency > plain.access_latency

    def test_max_retunes_bounds_recovery(self):
        sched = self.make_schedule()
        channel = BucketScript([{2}] * 50, max_retunes=3)
        cost = sched.retrieve_with_recovery(0.0, [2], 2, channel=channel)
        assert cost.retunes == 3
        assert cost.buckets_lost == 3

    def test_recovery_index_packets_validated(self):
        from repro.errors import BroadcastError

        sched = self.make_schedule()
        with pytest.raises(BroadcastError):
            sched.retrieve_with_recovery(
                0.0, [2], 2, channel=BucketScript([{2}]),
                recovery_index_packets=99,
            )

    def test_empty_bucket_list_needs_no_recovery(self):
        sched = self.make_schedule()
        cost = sched.retrieve_with_recovery(
            0.0, [], 2, channel=BucketScript([{1}])
        )
        assert cost.retunes == 0

    def test_records_carry_recovery_counters(self):
        cfg = FaultConfig(bucket_loss_rate=0.5, seed=2)
        sim = make_sim(seed=9, fault_config=cfg)
        collector = sim.run_workload(QueryKind.KNN, 0, 150)
        assert collector.total_retunes() > 0
        assert collector.total_buckets_lost() > 0
        # P2P faults are off: the peer exchange stayed perfect.
        assert collector.total_drops() == 0
        assert collector.total_retries() == 0
