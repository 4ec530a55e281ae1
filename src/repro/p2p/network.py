"""Single-hop ad-hoc peer discovery.

The radio model is the paper's: two hosts can exchange data iff their
Euclidean distance is at most the transmission range (the 10–200 m
sweep of the experiments).  Host positions are owned by the mobility
fleet; this class wraps a uniform grid over them and answers
"who can q reach right now" plus simple traffic accounting.
"""

from __future__ import annotations

import numpy as np

from ..errors import ProtocolError
from ..geometry import Point, Rect
from ..index import UniformGrid


class PeerNetwork:
    """Range-disc connectivity over a population of hosts."""

    def __init__(self, bounds: Rect, tx_range: float):
        if tx_range <= 0:
            raise ProtocolError(f"tx_range must be positive, got {tx_range}")
        self.bounds = bounds
        self.tx_range = tx_range
        self._grid = UniformGrid(bounds, cell_size=tx_range)
        # Traffic accounting.  ``requests_sent`` counts every share
        # request put on the air (initial broadcasts, multi-hop relay
        # floods, retries); ``peers_heard`` counts the in-range peers a
        # request reached; ``responses_received`` counts only actual
        # responses collected — a peer with nothing cached sends
        # nothing, so the harness reports it via
        # :meth:`record_responses` after filtering.
        self.requests_sent = 0
        self.responses_received = 0
        self.peers_heard = 0
        # Optional repro.obs counters mirroring the three tallies, so
        # the observability registry is the single sink for traffic
        # accounting too.  None (the default) costs one comparison.
        self._counters = None
        # Row ``i`` of the snapshot is host ``ids[i]``: the whole fleet
        # (``arange``) single-process, a shard's owned + halo hosts in a
        # shard.  Ascending ids plus identical world ``bounds`` /
        # ``cell_size`` make a subset's neighbour *order* (cell-scan
        # order, ascending id within a cell) match the full-population
        # grid restricted to the subset, which the sharded simulator's
        # determinism contract depends on.
        self.ids = np.empty(0, dtype=np.int64)

    def attach_registry(self, registry) -> None:
        """Mirror the traffic counters into a repro.obs registry."""
        self._counters = (
            registry.counter("p2p.requests_sent"),
            registry.counter("p2p.peers_heard"),
            registry.counter("p2p.responses_received"),
        )

    def update_positions(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> None:
        """Refresh the connectivity snapshot from the mobility fleet.

        ``ids[i]`` names row ``i``'s global host id (strictly
        ascending, see ``__init__``); omitted, row ``i`` is host ``i``.
        """
        if ids is None:
            ids = np.arange(xs.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != xs.shape or ids.shape != ys.shape:
                raise ProtocolError("ids must parallel the position arrays")
            if ids.size > 1 and not bool(np.all(ids[1:] > ids[:-1])):
                raise ProtocolError("host ids must be strictly ascending")
        self.ids = ids
        self._grid.rebuild(xs, ys)

    def peers_of(self, host_id: int, position: Point) -> np.ndarray:
        """Host ids within range of ``position``, excluding the asker.

        A lookup, not a transmission: it charges no traffic.  A query
        looks its one-hop ring up once; the share request it puts on
        the air is charged by :meth:`peers_within_hops`, and the
        overhearing neighbourhood is the same ring.
        """
        if self._grid.size == 0:
            raise ProtocolError("network queried before update_positions()")
        neighbours = self.ids[self._grid.query_disc(position, self.tx_range)]
        return neighbours[neighbours != host_id]

    def _broadcast(self, heard: int) -> None:
        """Charge one request on the air, heard by ``heard`` peers."""
        self.requests_sent += 1
        self.peers_heard += heard
        if self._counters is not None:
            self._counters[0].inc()
            self._counters[1].inc(heard)

    def record_requests(self, count: int) -> None:
        """Charge ``count`` extra share requests (e.g. retry rounds)."""
        if count < 0:
            raise ProtocolError(f"request count must be >= 0, got {count}")
        self.requests_sent += count
        if self._counters is not None:
            self._counters[0].inc(count)

    def record_responses(self, count: int) -> None:
        """Charge ``count`` share responses actually collected."""
        if count < 0:
            raise ProtocolError(f"response count must be >= 0, got {count}")
        self.responses_received += count
        if self._counters is not None:
            self._counters[2].inc(count)

    def peers_within_hops(
        self, host_id: int, ring: np.ndarray, hops: int
    ) -> np.ndarray:
        """Hosts a share request from ``host_id`` reaches through at most
        ``hops`` relays; ``ring`` is the querier's one-hop neighbourhood
        (:meth:`peers_of`), and the flood starts from it.

        The querier's broadcast is one request on the air, heard by the
        ring.  The paper's system is single-hop (``hops=1``: the ring
        itself); the multi-hop variant is its stated future-work
        direction — each additional hop floods the share request one
        radio range further.  Every relaying node re-broadcasts the
        request once, so each relay is charged to ``requests_sent`` and
        its audience to ``peers_heard``.

        Duplicate audit (PR 9): a node sitting in the overlap of two
        relays' discs is *discovered* twice but can never be counted
        twice — every node is binned into exactly one grid cell
        (``UniformGrid.rebuild`` assigns one cell id per point, clamped
        at the world edge) and the ``visited`` set admits each id once
        across all hop frontiers, so the returned id array is
        duplicate-free and each node relays at most once.  What IS
        double-counted, deliberately, is ``peers_heard``: a host inside
        two rebroadcast discs hears both transmissions, which is the
        physical on-air cost the tally measures.  The regression suite
        pins both properties (``tests/test_p2p_multihop.py``).
        """
        if hops < 1:
            raise ProtocolError(f"hops must be >= 1, got {hops}")
        self._broadcast(int(ring.size))
        if hops == 1:
            return ring
        xs, ys = self._grid.positions()
        # The BFS runs in row space and maps back to ids at the end;
        # frontier order — hence the relay traffic-charging order —
        # follows discovery order.
        ids = self.ids
        origin = int(ids.searchsorted(host_id))
        if origin == ids.size or ids[origin] != host_id:
            origin = -1
        frontier = ids.searchsorted(ring).tolist()
        visited: set[int] = {origin, *frontier}
        for _ in range(hops - 1):
            next_frontier: list[int] = []
            for node in frontier:
                node_pos = Point(float(xs[node]), float(ys[node]))
                neighbours = self._grid.query_disc(node_pos, self.tx_range)
                # The relay itself is inside its own disc; everyone
                # else within range hears the rebroadcast.
                self._broadcast(int(neighbours.size) - 1)
                for neighbour in neighbours:
                    neighbour = int(neighbour)
                    if neighbour not in visited:
                        visited.add(neighbour)
                        next_frontier.append(neighbour)
            if not next_frontier:
                break
            frontier = next_frontier
        visited.discard(origin)
        return ids[np.array(sorted(visited), dtype=np.int64)]
