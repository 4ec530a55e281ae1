"""A synthetic road network and path-constrained trajectories.

The paper maps its random-waypoint trajectories onto an underlying
road network of Southern California.  We substitute a perturbed grid
network (a reasonable stand-in for urban street grids): nodes sit on a
jittered lattice, edges connect lattice neighbours, and a host travels
along shortest paths between randomly chosen nodes.  The graph is an
adjacency dict searched by a binary-heap Dijkstra: a lattice needs
nothing more, and the package needs nothing beyond numpy.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Sequence

import numpy as np

from ..errors import MobilityError
from ..geometry import Point, Rect


class GridRoadNetwork:
    """A jittered-lattice road graph inside ``bounds``."""

    def __init__(
        self,
        bounds: Rect,
        spacing: float,
        rng: np.random.Generator,
        jitter: float = 0.2,
    ):
        if spacing <= 0:
            raise MobilityError(f"spacing must be positive, got {spacing}")
        if not (0 <= jitter < 0.5):
            raise MobilityError("jitter must be in [0, 0.5)")
        if bounds.width < spacing or bounds.height < spacing:
            raise MobilityError("bounds too small for the requested spacing")
        self.bounds = bounds
        cols = int(bounds.width / spacing) + 1
        rows = int(bounds.height / spacing) + 1
        # ``nodes`` is lattice-column-major (``i`` outer), the order
        # ``random_node`` indexes; ``adjacency[a][b]`` is the length of
        # the street between lattice neighbours ``a`` and ``b``.
        self._positions: dict[tuple[int, int], Point] = {}
        for i in range(cols):
            for j in range(rows):
                x = bounds.x1 + i * spacing + float(
                    rng.uniform(-jitter, jitter) * spacing
                )
                y = bounds.y1 + j * spacing + float(
                    rng.uniform(-jitter, jitter) * spacing
                )
                x = min(max(x, bounds.x1), bounds.x2)
                y = min(max(y, bounds.y1), bounds.y2)
                self._positions[(i, j)] = Point(x, y)
        self.nodes = list(self._positions)
        self.adjacency: dict[tuple[int, int], dict[tuple[int, int], float]] = {
            node: {} for node in self.nodes
        }
        for i in range(cols):
            for j in range(rows):
                for ni, nj in ((i + 1, j), (i, j + 1)):
                    if (ni, nj) in self._positions:
                        length = self._positions[(i, j)].distance_to(
                            self._positions[(ni, nj)]
                        )
                        self.adjacency[(i, j)][(ni, nj)] = length
                        self.adjacency[(ni, nj)][(i, j)] = length

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def position_of(self, node: tuple[int, int]) -> Point:
        if node not in self._positions:
            raise MobilityError(f"unknown road node {node}")
        return self._positions[node]

    def random_node(self, rng: np.random.Generator) -> tuple[int, int]:
        return self.nodes[int(rng.integers(len(self.nodes)))]

    def nearest_node(self, p: Point) -> tuple[int, int]:
        """The road node closest to an arbitrary point (linear scan)."""
        return min(
            self.nodes,
            key=lambda node: self._positions[node].distance_to(p),
        )

    def shortest_path(
        self, a: tuple[int, int], b: tuple[int, int]
    ) -> list[Point]:
        """The polyline of the weighted shortest path from ``a`` to ``b``.

        Dijkstra with lazy deletion: a node's stale heap entries (a
        longer distance than its best) are skipped when popped, and the
        search stops when ``b`` is settled.
        """
        for node in (a, b):
            if node not in self.adjacency:
                raise MobilityError(f"unknown road node {node}")
        best = {a: 0.0}
        previous: dict[tuple[int, int], tuple[int, int]] = {}
        pushed = count()
        heap = [(0.0, next(pushed), a)]
        while heap:
            dist, _, node = heapq.heappop(heap)
            if node == b:
                break
            if dist > best[node]:
                continue
            for neighbour, length in self.adjacency[node].items():
                through = dist + length
                if through < best.get(neighbour, math.inf):
                    best[neighbour] = through
                    previous[neighbour] = node
                    heapq.heappush(heap, (through, next(pushed), neighbour))
        path = [b]
        while path[-1] != a:
            path.append(previous[path[-1]])
        return [self._positions[n] for n in reversed(path)]

    def path_length(self, polyline: Sequence[Point]) -> float:
        return sum(
            polyline[i].distance_to(polyline[i + 1])
            for i in range(len(polyline) - 1)
        )


class RoadTrajectory:
    """Random-waypoint movement constrained to a road network.

    The host repeatedly picks a random road node, drives the shortest
    path to it at a uniformly drawn speed, pauses, and repeats — the
    paper's "trajectories mapped to an underlying road network".
    Time must be queried monotonically.
    """

    def __init__(
        self,
        network: GridRoadNetwork,
        rng: np.random.Generator,
        speed_range: tuple[float, float] = (5.0, 15.0),
        pause_range: tuple[float, float] = (0.0, 30.0),
        start_node: tuple[int, int] | None = None,
        start_time: float = 0.0,
    ):
        if not (0 < speed_range[0] <= speed_range[1]):
            raise MobilityError(f"invalid speed range {speed_range}")
        if not (0 <= pause_range[0] <= pause_range[1]):
            raise MobilityError(f"invalid pause range {pause_range}")
        self.network = network
        self.rng = rng
        self.speed_range = speed_range
        self.pause_range = pause_range
        self._node = (
            start_node if start_node is not None else network.random_node(rng)
        )
        self._last_t = start_time
        self._begin_trip(start_time)

    def _begin_trip(self, depart_time: float) -> None:
        destination = self.network.random_node(self.rng)
        while destination == self._node and self.network.node_count > 1:
            destination = self.network.random_node(self.rng)
        self._polyline = self.network.shortest_path(self._node, destination)
        self._cum: list[float] = [0.0]
        for i in range(len(self._polyline) - 1):
            self._cum.append(
                self._cum[-1]
                + self._polyline[i].distance_to(self._polyline[i + 1])
            )
        self._speed = float(self.rng.uniform(*self.speed_range))
        self._depart = depart_time
        self._arrive = depart_time + self._cum[-1] / self._speed
        self._next_depart = self._arrive + float(
            self.rng.uniform(*self.pause_range)
        )
        self._dest_node = destination

    def _advance_to(self, t: float) -> None:
        if t < self._last_t:
            raise MobilityError(f"time ran backwards: {t} < {self._last_t}")
        self._last_t = t
        while t >= self._next_depart:
            self._node = self._dest_node
            self._begin_trip(self._next_depart)

    def position_at(self, t: float) -> Point:
        """Exact position along the current path at time ``t``."""
        self._advance_to(t)
        if t <= self._depart:
            return self._polyline[0]
        if t >= self._arrive:
            return self._polyline[-1]
        travelled = (t - self._depart) * self._speed
        # Locate the polyline segment containing the travelled distance.
        for i in range(len(self._cum) - 1):
            if travelled <= self._cum[i + 1]:
                seg_len = self._cum[i + 1] - self._cum[i]
                frac = 0.0 if seg_len == 0 else (travelled - self._cum[i]) / seg_len
                a, b = self._polyline[i], self._polyline[i + 1]
                return Point(a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))
        return self._polyline[-1]

    def heading_at(self, t: float) -> tuple[float, float]:
        """Unit travel direction at ``t``; zero while pausing."""
        self._advance_to(t)
        if not (self._depart <= t < self._arrive):
            return (0.0, 0.0)
        travelled = (t - self._depart) * self._speed
        for i in range(len(self._cum) - 1):
            if travelled <= self._cum[i + 1]:
                a, b = self._polyline[i], self._polyline[i + 1]
                dx, dy = b.x - a.x, b.y - a.y
                norm = math.hypot(dx, dy)
                if norm == 0:
                    return (0.0, 0.0)
                return (dx / norm, dy / norm)
        return (0.0, 0.0)

    @property
    def current_path(self) -> list[Point]:
        return list(self._polyline)
