"""Tests for the mobility substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MobilityError
from repro.geometry import Point, Rect
from repro.mobility import (
    GridRoadNetwork,
    RoadTrajectory,
    WaypointFleet,
)

BOUNDS = Rect(0, 0, 100, 100)


class TestWaypointFleet:
    def make(self, n=50, seed=0, **kwargs):
        return WaypointFleet(n, BOUNDS, np.random.default_rng(seed), **kwargs)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MobilityError):
            WaypointFleet(-1, BOUNDS, rng)
        with pytest.raises(MobilityError):
            WaypointFleet(5, BOUNDS, rng, speed_range=(3, 1))

    def test_empty_fleet(self):
        fleet = self.make(n=0)
        fleet.advance_to(100.0)
        xs, ys = fleet.positions()
        assert xs.size == 0 and ys.size == 0

    def test_positions_stay_in_bounds(self):
        fleet = self.make(n=200, seed=1)
        for t in np.linspace(0, 3000, 60):
            xs, ys = fleet.positions(float(t))
            assert (xs >= BOUNDS.x1 - 1e-9).all() and (xs <= BOUNDS.x2 + 1e-9).all()
            assert (ys >= BOUNDS.y1 - 1e-9).all() and (ys <= BOUNDS.y2 + 1e-9).all()

    def test_time_cannot_run_backwards(self):
        fleet = self.make()
        fleet.advance_to(10)
        with pytest.raises(MobilityError):
            fleet.advance_to(5)

    def test_fleet_speed_bound(self):
        fleet = self.make(n=100, seed=2, speed_range=(5, 15), pause_range=(0, 0))
        x0, y0 = fleet.positions(0.0)
        x0, y0 = x0.copy(), y0.copy()
        x1, y1 = fleet.positions(1.0)
        step = np.hypot(x1 - x0, y1 - y0)
        assert (step <= 15.0 + 1e-9).all()

    def test_hosts_actually_move(self):
        fleet = self.make(n=100, seed=3, pause_range=(0, 1))
        x0, y0 = fleet.positions(0.0)
        x0, y0 = x0.copy(), y0.copy()
        x1, y1 = fleet.positions(60.0)
        moved = np.hypot(x1 - x0, y1 - y0)
        assert (moved > 0).mean() > 0.9

    def test_headings_unit_or_zero(self):
        fleet = self.make(n=100, seed=4)
        ux, uy = fleet.headings(50.0)
        norms = np.hypot(ux, uy)
        assert np.all(
            (np.abs(norms - 1.0) < 1e-9) | (np.abs(norms) < 1e-9)
        )

    def test_long_advance_is_safe(self):
        # Advancing far ahead must regenerate many legs without error.
        fleet = self.make(n=20, seed=6, pause_range=(0, 0.1))
        fleet.advance_to(100_000.0)
        xs, ys = fleet.positions()
        assert np.isfinite(xs).all() and np.isfinite(ys).all()

    def test_spatial_distribution_centre_biased(self):
        # Random waypoint's stationary distribution concentrates mass
        # in the centre — a well-known property worth pinning down.
        fleet = self.make(n=2000, seed=7, pause_range=(0, 0))
        fleet.advance_to(5000.0)
        xs, ys = fleet.positions()
        centre = (
            (xs > 25) & (xs < 75) & (ys > 25) & (ys < 75)
        ).mean()
        assert centre > 0.25  # uniform would give exactly 0.25


class TestRoadNetwork:
    def make_net(self, seed=0, spacing=10.0):
        return GridRoadNetwork(BOUNDS, spacing, np.random.default_rng(seed))

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MobilityError):
            GridRoadNetwork(BOUNDS, 0, rng)
        with pytest.raises(MobilityError):
            GridRoadNetwork(BOUNDS, 10, rng, jitter=0.7)
        with pytest.raises(MobilityError):
            GridRoadNetwork(Rect(0, 0, 5, 5), 10, rng)

    def test_grid_structure(self):
        net = self.make_net()
        assert net.node_count == 11 * 11
        assert nx_connected(net)

    def test_nodes_inside_bounds(self):
        net = self.make_net(seed=1)
        assert net.nodes == [(i, j) for i in range(11) for j in range(11)]
        for node in net.nodes:
            assert BOUNDS.contains_point(net.position_of(node))

    def test_unknown_node_raises(self):
        net = self.make_net()
        with pytest.raises(MobilityError):
            net.position_of((99, 99))
        with pytest.raises(MobilityError, match="unknown road node"):
            net.shortest_path((0, 0), (99, 99))

    def test_shortest_path_endpoints(self):
        net = self.make_net(seed=2)
        path = net.shortest_path((0, 0), (10, 10))
        assert path[0] == net.position_of((0, 0))
        assert path[-1] == net.position_of((10, 10))
        assert net.path_length(path) >= net.position_of((0, 0)).distance_to(
            net.position_of((10, 10))
        )

    @pytest.mark.parametrize(
        "seed, spacing, jitter",
        [(0, 10.0, 0.2), (1, 12.5, 0.45), (2, 25.0, 0.0), (3, 7.0, 0.0),
         (4, 20.0, 0.1)],
    )
    def test_shortest_paths_match_the_networkx_oracle(
        self, seed, spacing, jitter
    ):
        import networkx as nx

        # jitter=0 is a plain lattice: many equally short paths tie.
        net = GridRoadNetwork(
            BOUNDS, spacing, np.random.default_rng(seed), jitter=jitter
        )
        graph = nx_graph(net)
        node_at = {net.position_of(node): node for node in net.nodes}
        rng = np.random.default_rng(100 + seed)
        pairs = [(net.nodes[0], net.nodes[-1])] + [
            (net.random_node(rng), net.random_node(rng)) for _ in range(25)
        ]
        for a, b in pairs:
            path = net.shortest_path(a, b)
            nodes = [node_at[p] for p in path]
            assert nodes[0] == a and nodes[-1] == b
            for u, v in zip(nodes, nodes[1:]):
                assert v in net.adjacency[u]
            assert net.path_length(path) == pytest.approx(
                nx.shortest_path_length(graph, a, b, weight="weight"),
                rel=1e-12,
            )

    def test_nearest_node(self):
        net = self.make_net(seed=3)
        node = net.nearest_node(Point(0, 0))
        assert node == (0, 0)


class TestRoadTrajectory:
    def make(self, seed=0, **kwargs):
        net = GridRoadNetwork(BOUNDS, 20.0, np.random.default_rng(seed))
        return net, RoadTrajectory(
            net, np.random.default_rng(seed + 1), **kwargs
        )

    def test_positions_on_or_near_roads(self):
        net, traj = self.make(seed=4)
        for t in np.linspace(0, 2000, 100):
            p = traj.position_at(float(t))
            assert BOUNDS.contains_point(p)

    def test_starts_at_start_node(self):
        net = GridRoadNetwork(BOUNDS, 20.0, np.random.default_rng(5))
        traj = RoadTrajectory(
            net, np.random.default_rng(6), start_node=(2, 2)
        )
        assert traj.position_at(0.0) == net.position_of((2, 2))

    def test_speed_respected(self):
        net, traj = self.make(seed=7, speed_range=(5, 15), pause_range=(0, 0))
        prev = traj.position_at(0.0)
        for t in np.arange(1.0, 400.0, 1.0):
            cur = traj.position_at(float(t))
            assert prev.distance_to(cur) <= 15.0 + 1e-9
            prev = cur

    def test_time_monotonicity_enforced(self):
        _, traj = self.make(seed=8)
        traj.position_at(10.0)
        with pytest.raises(MobilityError):
            traj.position_at(5.0)

    def test_heading_unit_or_zero(self):
        _, traj = self.make(seed=9)
        for t in np.linspace(0, 1000, 60):
            hx, hy = traj.heading_at(float(t))
            norm = math.hypot(hx, hy)
            assert norm == pytest.approx(0.0) or norm == pytest.approx(1.0)

    def test_travel_follows_current_path(self):
        _, traj = self.make(seed=10, pause_range=(0, 0))
        path = traj.current_path
        mid_t = (traj._depart + traj._arrive) / 2
        p = traj.position_at(mid_t)
        # Mid-trip position must lie within the path's bounding box.
        bbox = Rect(
            min(v.x for v in path),
            min(v.y for v in path),
            max(v.x for v in path),
            max(v.y for v in path),
        )
        assert bbox.expanded(1e-6).contains_point(p)


def nx_graph(net):
    """The road network as a networkx graph: the test oracle."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(net.nodes)
    graph.add_weighted_edges_from(
        (a, b, length)
        for a, streets in net.adjacency.items()
        for b, length in streets.items()
    )
    return graph


def nx_connected(net):
    import networkx as nx

    return nx.is_connected(nx_graph(net))
