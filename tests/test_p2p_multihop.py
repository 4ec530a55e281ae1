"""Tests for the multi-hop peer-discovery extension."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.geometry import Point, Rect
from repro.p2p import PeerNetwork

BOUNDS = Rect(0, 0, 100, 100)


def flood(net, host_id, position, hops):
    """The share request's reach from ``host_id`` at ``position``."""
    return net.peers_within_hops(host_id, net.peers_of(host_id, position), hops)


def make(positions, tx_range=10.0):
    net = PeerNetwork(BOUNDS, tx_range)
    xs = np.array([p[0] for p in positions], dtype=float)
    ys = np.array([p[1] for p in positions], dtype=float)
    net.update_positions(xs, ys)
    return net


class TestMultiHop:
    def test_hop_validation(self):
        net = make([(0, 0), (5, 0)])
        with pytest.raises(ProtocolError):
            flood(net, 0, Point(0, 0), 0)

    def test_one_hop_equals_peers_of(self):
        net = make([(0, 0), (5, 0), (9, 0), (25, 0)])
        direct = set(net.peers_of(0, Point(0, 0)).tolist())
        one_hop = set(flood(net, 0, Point(0, 0), 1).tolist())
        assert direct == one_hop

    def test_chain_reachability(self):
        # A chain spaced at 8 with range 10: each extra hop adds one.
        chain = [(i * 8.0, 0.0) for i in range(6)]
        net = make(chain, tx_range=10.0)
        reach1 = set(flood(net, 0, Point(0, 0), 1).tolist())
        reach2 = set(flood(net, 0, Point(0, 0), 2).tolist())
        reach5 = set(flood(net, 0, Point(0, 0), 5).tolist())
        assert reach1 == {1}
        assert reach2 == {1, 2}
        assert reach5 == {1, 2, 3, 4, 5}

    def test_disconnected_component_unreachable(self):
        net = make([(0, 0), (5, 0), (60, 60)], tx_range=10.0)
        reach = set(flood(net, 0, Point(0, 0), 10).tolist())
        assert reach == {1}

    def test_querier_never_included(self):
        net = make([(0, 0), (5, 0), (10, 0)], tx_range=10.0)
        for hops in (1, 2, 3):
            assert 0 not in flood(net, 0, Point(0, 0), hops)

    def test_multi_hop_superset_of_single(self):
        rng = np.random.default_rng(0)
        pts = [tuple(p) for p in rng.uniform(0, 50, (80, 2))]
        net = make(pts, tx_range=6.0)
        for host in (0, 17, 42):
            p = Point(*pts[host])
            one = set(flood(net, host, p, 1).tolist())
            two = set(flood(net, host, p, 2).tolist())
            assert one <= two


class TestMultiHopSimulation:
    def test_two_hops_resolve_at_least_as_much(self):
        from repro.experiments import Simulation, scaled_parameters
        from repro.workloads import RIVERSIDE_COUNTY, QueryKind

        # Sparse Riverside benefits most from extra hops.
        params = scaled_parameters(RIVERSIDE_COUNTY, area_scale=0.05)
        single = Simulation(params, seed=21, p2p_hops=1).run_workload(
            QueryKind.KNN, 300, 200
        )
        double = Simulation(params, seed=21, p2p_hops=2).run_workload(
            QueryKind.KNN, 300, 200
        )
        assert double.pct_broadcast <= single.pct_broadcast + 3.0

    def test_invalid_hops_rejected(self):
        from repro.experiments import Simulation, scaled_parameters
        from repro.workloads import LA_CITY
        from repro.errors import ExperimentError

        params = scaled_parameters(LA_CITY, area_scale=0.02)
        with pytest.raises(ExperimentError):
            Simulation(params, p2p_hops=0)


class TestFrontierDeduplication:
    """PR 9 audit pins: no duplicates across BFS hop frontiers.

    ``peers_within_hops`` explores hop frontiers whose radio discs
    overlap heavily; the audit concluded the result set is
    duplicate-free by construction (each node lives in exactly one
    grid cell, and the visited set dedups re-heard nodes) while the
    ``peers_heard`` tally deliberately double-counts overlap — it
    meters physical on-air receptions, not unique peers.  These tests
    pin both halves so a regression in either direction is loud.
    """

    def test_result_has_no_duplicates_dense_overlap(self):
        # A dense clique: every relay disc covers every node, the
        # worst case for frontier overlap.
        rng = np.random.default_rng(7)
        pts = [tuple(p) for p in rng.uniform(40, 60, (40, 2))]
        net = make(pts, tx_range=50.0)
        for hops in (1, 2, 3):
            reach = flood(net, 0, Point(*pts[0]), hops)
            assert len(reach) == len(set(reach.tolist()))

    def test_result_unique_across_cell_straddling_frontiers(self):
        # Nodes placed around grid-cell corners so each disc straddles
        # four cells — the concatenated cell scans must still yield
        # each node once.
        pts = [(9.9, 9.9), (10.1, 9.9), (9.9, 10.1), (10.1, 10.1),
               (19.9, 10.0), (20.1, 10.0), (30.0, 10.0)]
        net = make(pts, tx_range=10.5)
        reach = flood(net, 0, Point(*pts[0]), 3)
        assert len(reach) == len(set(reach.tolist()))
        assert set(reach.tolist()) == {1, 2, 3, 4, 5, 6}

    def test_peers_heard_double_counts_overlap_on_purpose(self):
        # Two relays both hear node 3: on-air receptions exceed unique
        # peers.  This is the metered broadcast cost, not a bug.
        pts = [(0.0, 0.0), (8.0, 3.0), (8.0, -3.0), (14.0, 0.0)]
        net = make(pts, tx_range=10.0)
        net.requests_sent = 0
        net.peers_heard = 0
        reach = flood(net, 0, Point(0, 0), 2)
        assert set(reach.tolist()) == {1, 2, 3}
        # One probe from the querier + one from each first-hop relay.
        assert net.requests_sent == 3
        # Querier hears {1,2}; relay 1 hears {0,2,3}; relay 2 hears
        # {0,1,3}: 8 receptions for 3 unique peers.
        assert net.peers_heard == 8


class TestIdMappedSubset:
    """The shard-local peer network: global ids over a subset of rows.

    A shard's network holds only its owned + halo hosts, addressed by
    global id.  Against the same world bounds and tx range, its answers
    must equal the full-fleet network's answers restricted to the
    subset — including order, which P2P response merging depends on.
    """

    def _nets(self, n=60, tx=8.0, seed=3):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 100, (n, 2))
        full = PeerNetwork(BOUNDS, tx)
        full.update_positions(pts[:, 0].copy(), pts[:, 1].copy())
        keep = np.sort(rng.choice(n, size=n // 2, replace=False))
        sub = PeerNetwork(BOUNDS, tx)
        sub.update_positions(
            pts[keep, 0].copy(), pts[keep, 1].copy(),
            ids=keep.astype(np.int64),
        )
        return full, sub, keep, pts

    def test_subset_order_matches_full_restriction(self):
        full, sub, keep, pts = self._nets()
        kept = set(keep.tolist())
        for gid in keep.tolist():
            p = Point(*pts[gid])
            reference = [
                g for g in full.peers_of(gid, p).tolist() if g in kept
            ]
            assert sub.peers_of(gid, p).tolist() == reference

    def test_subset_multihop_matches_full_when_closed(self):
        # Restricting to a subset can break relay chains, so exact
        # equality is only guaranteed when the reachable set is closed
        # under the subset.  Build that case: the subset is everything.
        full, _, _, pts = self._nets()
        allids = np.arange(60, dtype=np.int64)
        mapped = PeerNetwork(BOUNDS, 8.0)
        mapped.update_positions(
            pts[:, 0].copy(), pts[:, 1].copy(), ids=allids
        )
        for gid in (0, 17, 42):
            p = Point(*pts[gid])
            assert (
                flood(mapped, gid, p, 2).tolist()
                == flood(full, gid, p, 2).tolist()
            )

    def test_unsorted_ids_rejected(self):
        net = PeerNetwork(BOUNDS, 5.0)
        xs = np.zeros(3)
        with pytest.raises(ProtocolError):
            net.update_positions(
                xs, xs, ids=np.array([5, 2, 9], dtype=np.int64)
            )
