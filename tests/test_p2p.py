"""Tests for the peer-to-peer layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.geometry import Point, Rect
from repro.model import POI
from repro.p2p import PeerNetwork, ShareRequest, ShareResponse

BOUNDS = Rect(0, 0, 100, 100)


class TestProtocol:
    def test_request_defaults(self):
        req = ShareRequest(requester_id=7)
        assert req.category == "gas_station"
        assert req.issued_at == 0.0

    def test_response_rejects_degenerate_regions(self):
        with pytest.raises(ProtocolError):
            ShareResponse(0, (Rect(0, 0, 0, 5),), ())

    def test_response_emptiness(self):
        assert ShareResponse(0, (), ()).is_empty
        full = ShareResponse(
            0, (Rect(0, 0, 1, 1),), (POI(0, Point(0.5, 0.5)),)
        )
        assert not full.is_empty


class TestPeerNetwork:
    def make(self, positions, tx_range=10.0):
        net = PeerNetwork(BOUNDS, tx_range)
        xs = np.array([p[0] for p in positions], dtype=float)
        ys = np.array([p[1] for p in positions], dtype=float)
        net.update_positions(xs, ys)
        return net

    def test_validation(self):
        with pytest.raises(ProtocolError):
            PeerNetwork(BOUNDS, 0)

    def test_query_before_update_raises(self):
        net = PeerNetwork(BOUNDS, 5)
        with pytest.raises(ProtocolError):
            net.peers_of(0, Point(1, 1))

    def test_peers_within_range(self):
        net = self.make([(0, 0), (5, 0), (9, 0), (20, 0)], tx_range=10)
        peers = set(net.peers_of(0, Point(0, 0)).tolist())
        assert peers == {1, 2}

    def test_self_excluded(self):
        net = self.make([(0, 0), (1, 1)], tx_range=10)
        assert 0 not in net.peers_of(0, Point(0, 0)).tolist()

    def test_boundary_distance_included(self):
        net = self.make([(0, 0), (10, 0)], tx_range=10)
        assert net.peers_of(0, Point(0, 0)).tolist() == [1]

    def test_traffic_accounting(self):
        net = self.make([(0, 0), (1, 0), (2, 0)], tx_range=10)
        for host, position in ((0, Point(0, 0)), (1, Point(1, 0))):
            net.peers_within_hops(host, net.peers_of(host, position), 1)
        assert net.requests_sent == 2
        # Peers merely in range only *heard* the request; nobody has
        # responded yet — responses are recorded by the harness once
        # actually collected.
        assert net.peers_heard == 4
        assert net.responses_received == 0
        net.record_responses(3)
        net.record_requests(2)
        assert net.responses_received == 3
        assert net.requests_sent == 4

    def test_record_counts_validated(self):
        net = self.make([(0, 0), (1, 0)])
        with pytest.raises(ProtocolError):
            net.record_responses(-1)
        with pytest.raises(ProtocolError):
            net.record_requests(-1)

    def test_passive_lookup_counts_nothing(self):
        # A neighbourhood lookup puts nothing on the air; only the
        # share request sent to the ring it returns is charged.
        net = self.make([(0, 0), (1, 0), (2, 0)], tx_range=10)
        ring = net.peers_of(0, Point(0, 0))
        assert net.requests_sent == 0
        assert net.peers_heard == 0
        assert net.peers_within_hops(0, ring, 1) is ring
        assert (net.requests_sent, net.peers_heard) == (1, 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 100, (300, 2))
        net = self.make([tuple(p) for p in pts], tx_range=7.5)
        for host in (0, 10, 299):
            center = Point(*pts[host])
            got = set(net.peers_of(host, center).tolist())
            d = np.hypot(pts[:, 0] - center.x, pts[:, 1] - center.y)
            expected = set(np.nonzero(d <= 7.5)[0].tolist()) - {host}
            assert got == expected


class TestSnapshotIds:
    """Row ``i`` of a network's snapshot is host ``ids[i]``."""

    def test_unsorted_ids_rejected(self):
        net = PeerNetwork(BOUNDS, 5.0)
        xs = np.zeros(3)
        for ids in ([5, 2, 9], [1, 1, 2]):
            with pytest.raises(ProtocolError, match="ascending"):
                net.update_positions(xs, xs, ids=np.array(ids))

    def test_ids_not_parallel_to_positions_rejected(self):
        net = PeerNetwork(BOUNDS, 5.0)
        xs = np.zeros(3)
        for ids in ([1, 2], [1, 2, 3, 4], [[1, 2, 3]]):
            with pytest.raises(ProtocolError, match="parallel"):
                net.update_positions(xs, xs, ids=np.array(ids))
        with pytest.raises(ProtocolError, match="parallel"):
            net.update_positions(xs, np.zeros(4), ids=np.arange(3))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        keep=st.floats(0.0, 1.0),
        hops=st.sampled_from([1, 2]),
    )
    def test_subset_answers_are_the_full_answers_restricted(
        self, seed, n, keep, hops
    ):
        # A shard's network holds an ascending-id subset: every host
        # within hops * tx of the querier (its halo) plus any others.
        # Its neighbours are then the full network's restricted to the
        # subset, in the same order.
        tx = 9.0
        rng = np.random.default_rng(seed)
        xs, ys = rng.uniform(0, 100, (2, n))
        querier = int(rng.integers(n))
        origin = Point(xs[querier], ys[querier])
        near = np.hypot(xs - origin.x, ys - origin.y) <= hops * tx
        subset = np.nonzero(near | (rng.random(n) < keep))[0]
        full = PeerNetwork(BOUNDS, tx)
        full.update_positions(xs, ys)
        sub = PeerNetwork(BOUNDS, tx)
        sub.update_positions(xs[subset], ys[subset], ids=subset)
        kept = set(subset.tolist())
        reference = [
            gid
            for gid in full.peers_within_hops(
                querier, full.peers_of(querier, origin), hops
            ).tolist()
            if gid in kept
        ]
        got = sub.peers_within_hops(querier, sub.peers_of(querier, origin), hops)
        assert got.tolist() == reference


class TestOneNeighbourhoodLookup:
    """A query looks its one-hop ring up once: the share request goes to
    that ring, a multi-hop flood starts from it, and the same ring
    overhears the result — with the traffic tallies unchanged."""

    # traffic_totals() after 60 warm-up queries and one more, as charged
    # when the overhearing neighbourhood was still looked up again.
    PINNED = {
        (1, False): (61, 660, 38),
        (1, True): (178, 660, 29),
        (2, False): (721, 8731, 130),
        (2, True): (843, 8731, 109),
    }

    @pytest.mark.parametrize("faults", [False, True])
    @pytest.mark.parametrize("hops", [1, 2])
    def test_one_query_one_ring(self, hops, faults, monkeypatch):
        from repro.experiments import Simulation, scaled_parameters
        from repro.faults import FaultConfig
        from repro.workloads import LA_CITY, QueryEvent, QueryKind

        config = (
            FaultConfig(loss_rate=0.3, churn_rate=0.1, retries=2)
            if faults
            else None
        )
        sim = Simulation(
            scaled_parameters(LA_CITY, area_scale=0.05),
            seed=11,
            p2p_hops=hops,
            fault_config=config,
        )
        sim.run_workload(QueryKind.KNN, 0, 60)
        event = QueryEvent(
            time=sim.env.now + 1.0, host_id=7, kind=QueryKind.KNN, k=5
        )
        sim._maybe_refresh(event.time)
        network = sim.network
        discs, floods, overheard = [], [], []
        query_disc = network._grid.query_disc
        flood = network.peers_within_hops
        spread = sim._spread_overheard

        def disc_spy(position, radius):
            discs.append(position)
            return query_disc(position, radius)

        def flood_spy(host_id, ring, hops):
            floods.append(ring)
            return flood(host_id, ring, hops)

        def spread_spy(ring, shared, now):
            overheard.append(ring)
            return spread(ring, shared, now)

        monkeypatch.setattr(network._grid, "query_disc", disc_spy)
        monkeypatch.setattr(network, "peers_within_hops", flood_spy)
        monkeypatch.setattr(sim, "_spread_overheard", spread_spy)
        sim.execute_query(event)

        [ring] = floods
        assert overheard == [ring] and overheard[0] is ring
        assert discs[0] == sim.host_position(7)
        # Hop 2 relays are the ring's hosts, in ring order; nothing
        # else looks a neighbourhood up.
        relays = [sim.host_position(gid) for gid in ring.tolist()]
        assert discs[1:] == (relays if hops == 2 else [])
        assert sim.traffic_totals() == self.PINNED[hops, faults]
