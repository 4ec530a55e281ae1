"""The query pipeline every simulated world runs, defined once.

What happens when a query event fires — collect share responses, run
SBNN / SBWQ through the host, settle the cache, let the neighbourhood
overhear — is the same in the single-process :class:`~repro.
experiments.simulator.Simulation` and inside one spatial shard
(:class:`~repro.shard.worker.ShardWorld`).  :class:`QueryWorld` holds
that pipeline (:meth:`QueryWorld._execute`), the RNG-free settings it
reads and the refresh-epoch position snapshot — rows ascending by
global host id, the whole fleet or one shard's owned + halo hosts,
installed by :meth:`QueryWorld._install_snapshot`.  A subclass says
only where its hosts live:

* ``_responder(gid)`` — whatever answers share requests for ``gid``
  (a host, a halo mirror, or ``None`` for a peer with nothing synced);
* ``_owned(gid)`` — the :class:`MobileHost` if this world may mutate
  its cache, else ``None``;
* ``_owned_hosts()`` — every such host.

Everything random is drawn by :func:`draw_world`, in one fixed order,
so the single-process run and the sharded coordinator consume the
world RNG identically by construction.
"""

from __future__ import annotations

import gc
from typing import Callable, Sequence

import numpy as np

from ..cache import POICache, ReplacementPolicy
from ..check import invariants
from ..errors import ExperimentError
from ..faults import P2PFaultStats
from ..geometry import Point
from ..mobility import WaypointFleet
from ..model import POI
from ..obs import NO_TRACER
from ..p2p import PeerNetwork, ShareResponse
from ..workloads import ParameterSet, QueryEvent, QueryKind, generate_pois
from .host import HostQueryResult, MobileHost, SharedRegion
from .metrics import QueryRecord
from .station import BaseStation

SECONDS_PER_HOUR = 3600.0

# Section 4.1's system model, fixed: the paper varies TxRange, CSize, k
# and the window size (all :class:`ParameterSet` fields), never these.
P2P_LATENCY = 0.05  # seconds per hop of one share-exchange round trip
SPEED_RANGE_MPH = (20.0, 60.0)
PAUSE_RANGE_S = (0.0, 30.0)


def draw_world(
    params: ParameterSet, seed: int, pois: Sequence[POI] | None
) -> tuple[np.random.Generator, list[POI], WaypointFleet]:
    """The world RNG and what is drawn from it before any query.

    One ``default_rng(seed)``, consumed in this order: the POI field
    (unless the caller supplies one), then the fleet's initial legs.
    The returned generator goes on to feed the workload and the fleet
    refreshes, interleaved by :func:`~repro.experiments.simulator.
    refresh_due`.
    """
    rng = np.random.default_rng(seed)
    field = (
        list(pois)
        if pois is not None
        else generate_pois(params.bounds, params.poi_number, rng)
    )
    fleet = WaypointFleet(
        params.mh_number,
        params.bounds,
        rng,
        speed_range=(
            SPEED_RANGE_MPH[0] / SECONDS_PER_HOUR,
            SPEED_RANGE_MPH[1] / SECONDS_PER_HOUR,
        ),
        pause_range=PAUSE_RANGE_S,
    )
    return rng, field, fleet


class QueryWorld:
    """Settings, base station, radio and the one query pipeline."""

    def __init__(
        self,
        params: ParameterSet,
        pois: Sequence[POI],
        accept_approximate: bool = True,
        min_correctness: float = 0.5,
        overhear: bool = True,
        p2p_hops: int = 1,
        enable_sharing: bool = True,
        policy_factory: Callable[[], ReplacementPolicy] | None = None,
    ):
        if p2p_hops < 1:
            raise ExperimentError(f"p2p_hops must be >= 1, got {p2p_hops}")
        self.params = params
        self.pois = list(pois)
        # The station is a pure function of the POI field (no RNG, no
        # knobs), so every shard builds an identical replica.
        self.station = BaseStation(self.pois, params.bounds)
        self.accept_approximate = accept_approximate
        self.min_correctness = min_correctness
        self.overhear = overhear
        self.p2p_hops = p2p_hops
        # With sharing disabled the world degrades to the pure on-air
        # system of Zheng et al. — the paper's baseline.
        self.enable_sharing = enable_sharing
        self.policy_factory = policy_factory
        # Section 4.1: a host "stores all the verified POIs and their
        # minimum bounding boxes" — the number of retained regions is
        # bounded by the POI capacity itself, not by a separate knob.
        self.region_cap = max(4, params.cache_size)
        self.network = PeerNetwork(params.bounds, params.tx_range_mi)
        # The refresh-epoch snapshot: row ``i`` is host ``network.ids[i]``.
        self._xs = self._ys = self._hx = self._hy = np.empty(0)
        # The world's one span sink (repro.obs); a traced Simulation
        # replaces it, and every layer below is handed it per call.
        self.tracer = NO_TRACER

    def _make_host(self, gid: int) -> MobileHost:
        return MobileHost(
            gid,
            POICache(
                self.params.cache_size,
                self.policy_factory() if self.policy_factory is not None else None,
                max_regions=self.region_cap,
            ),
        )

    def _tenure(self) -> None:
        """Hand the constructed world to the collector as permanent.

        A subclass calls this once, when its construction ends.  The
        POI field, the station's index and the fleet live as long as
        the world does: moved to the permanent generation they are
        never scanned again.  The thresholds then make collections
        rare — a query allocates thousands of short-lived geometry
        objects and almost no cycles, and every full pass re-reads the
        whole warmed heap to find none.  Nothing in the package has a
        finaliser or a weak reference, so when the collector runs is
        unobservable: records and cache states do not move.
        """
        gc.collect()
        gc.freeze()
        gc.set_threshold(50_000, 50, 50)

    # ------------------------------------------------------------------
    # The refresh-epoch snapshot
    # ------------------------------------------------------------------
    def _install_snapshot(self, xs, ys, hx, hy, ids=None) -> None:
        """Install one epoch's positions and headings, rows ``ids``.

        ``ids`` are strictly ascending global host ids (omitted: row
        ``i`` is host ``i``); the peer network gets the same rows and
        validates them.
        """
        self.network.update_positions(xs, ys, ids)
        self._xs, self._ys, self._hx, self._hy = xs, ys, hx, hy

    def _row(self, gid: int) -> int:
        ids = self.network.ids
        row = int(ids.searchsorted(gid))
        if row == ids.size or ids[row] != gid:
            raise ExperimentError(f"unknown host {gid}")
        return row

    def host_position(self, gid: int) -> Point:
        """Position of a host in the current snapshot."""
        row = self._row(gid)
        return Point(float(self._xs[row]), float(self._ys[row]))

    def host_heading(self, gid: int) -> tuple[float, float]:
        row = self._row(gid)
        return (float(self._hx[row]), float(self._hy[row]))

    def _snapshot_rows(self, gids: np.ndarray):
        """``(xs, ys, hxs, hys)`` of the snapshot rows of ``gids``."""
        rows = self.network.ids.searchsorted(gids)
        return self._xs[rows], self._ys[rows], self._hx[rows], self._hy[rows]

    # ------------------------------------------------------------------
    # Query pipeline
    # ------------------------------------------------------------------
    def _peer_ids(self, host_id: int, ring: np.ndarray) -> np.ndarray:
        """Who hears the share request (charged as p2p traffic): the
        querier's one-hop ``ring``, flooded ``p2p_hops`` deep."""
        return self.network.peers_within_hops(host_id, ring, self.p2p_hops)

    def _gather(self, host_id: int, peer_ids: np.ndarray) -> list[ShareResponse]:
        """One share exchange over a perfect channel.

        The querier's own cache counts as a response; of the peers,
        only those that actually answer (something cached or mirrored)
        are charged to ``responses_received`` — peers merely in range
        are ``peers_heard``.
        """
        responses: list[ShareResponse] = []
        own = self._responder(host_id).share_response()
        if own is not None:
            responses.append(own)
        received = 0
        for pid in peer_ids.tolist():
            responder = self._responder(pid)
            if responder is None:
                continue
            response = responder.share_response()
            if response is not None:
                responses.append(response)
                received += 1
        self.network.record_responses(received)
        return responses

    def _collect_responses(
        self, host_id: int, position: Point, ring: np.ndarray, now: float
    ) -> tuple[list[ShareResponse], P2PFaultStats]:
        """The share exchange step from ``position``, whose one-hop
        neighbourhood is ``ring``: the responses plus what faults did
        to it (nothing, over this perfect channel)."""
        del position, now
        if not self.enable_sharing:
            return [], P2PFaultStats()
        peer_ids = self._peer_ids(host_id, ring)
        return self._gather(host_id, peer_ids), P2PFaultStats()

    def _run_query(
        self,
        host: MobileHost,
        event: QueryEvent,
        position: Point,
        heading: tuple[float, float],
        responses: Sequence[ShareResponse],
        fault_stats: P2PFaultStats | None = None,
        tracer=None,
    ) -> HostQueryResult:
        """Hand one event to the host pipeline with this world's knobs."""
        p2p_latency = P2P_LATENCY * self.p2p_hops
        if event.kind is QueryKind.KNN:
            return host.execute_knn(
                position,
                heading,
                event.k,
                responses,
                self.station.client,
                self.params.poi_density,
                event.time,
                p2p_latency=p2p_latency,
                accept_approximate=self.accept_approximate,
                min_correctness=self.min_correctness,
                fault_stats=fault_stats,
                tracer=tracer,
            )
        return host.execute_window(
            position,
            heading,
            event.window_for(position, self.params.bounds),
            responses,
            self.station.client,
            event.time,
            p2p_latency=p2p_latency,
            fault_stats=fault_stats,
            tracer=tracer,
        )

    def _spread_overheard(
        self,
        ring: np.ndarray,
        shared: Sequence[SharedRegion],
        now: float,
    ) -> tuple[list[int], list[tuple[int, tuple[float, float], tuple[float, float]]]]:
        """Cooperative caching of result sets (after Chow et al. [5]).

        The exchange between the querier and the channel/peers happens
        on a shared radio medium; single-hop neighbours overhear the
        certified result and adopt the regions into their own caches,
        subject to their own capacity and replacement policy.

        ``ring`` is the querier's one-hop neighbourhood, the one its
        share request went to.  Owned neighbours adopt here, in ring
        order; returns their ids plus ``(gid, (x, y), heading)`` for
        every neighbour this world does not own, for the caller to
        route to its owner (caches are disjoint, so splitting owned
        from foreign cannot reorder anything observable).
        """
        adopted: list[int] = []
        foreign: list = []
        if not (self.overhear and shared):
            return adopted, foreign
        # One gather against the snapshot for the whole neighbourhood;
        # every peer adopts the same shared result in one call (which
        # never mutates it, and builds its adoption columns once for
        # all of them).
        columns = (ring, *self._snapshot_rows(ring))
        tracer = self.tracer if self.tracer.enabled else None
        for pid, x, y, hx, hy in zip(*(c.tolist() for c in columns)):
            host = self._owned(pid)
            if host is None:
                foreign.append((pid, (x, y), (hx, hy)))
                continue
            host.cache.insert_result(shared, now, Point(x, y), (hx, hy), tracer)
            adopted.append(pid)
        return adopted, foreign

    def _execute(self, event: QueryEvent):
        """Run one query event: ``(result, adopted, foreign)``.

        ``adopted`` / ``foreign`` are :meth:`_spread_overheard`'s.
        Under tracing every query becomes one span tree rooted at
        ``query``: the share exchange (``p2p.collect``), the core
        decision (``core.nnv``/``core.annotate`` or ``core.sbwq``),
        any broadcast fall-back (``broadcast.index_scan`` /
        ``broadcast.data_scan`` / ``broadcast.recovery``), and the
        cache updates (``cache.insert``).
        """
        gid = event.host_id
        host = self._owned(gid)
        if host is None:
            raise ExperimentError(
                f"event for host {gid} routed to a world that does not own it"
            )
        position = self.host_position(gid)
        heading = self.host_heading(gid)
        tracer = self.tracer
        with tracer.span("query") as query_span:
            with tracer.span("p2p.collect") as p2p_span:
                # The one neighbourhood lookup: the share request goes
                # to this ring and the same ring overhears the result.
                ring = self.network.peers_of(gid, position)
                responses, fault_stats = self._collect_responses(
                    gid, position, ring, event.time
                )
                if p2p_span.enabled:
                    peers_responded = sum(
                        1 for r in responses if r.peer_id != gid
                    )
                    # The same share-exchange latency the host charges
                    # to the record: one round trip when any peer
                    # answered, plus whatever faults added.
                    sim_s = (
                        P2P_LATENCY * self.p2p_hops
                        if peers_responded
                        else 0.0
                    ) + fault_stats.extra_latency
                    p2p_span.set(
                        peers_responded=peers_responded,
                        drops=fault_stats.drops,
                        retries=fault_stats.retries,
                        deadline_misses=fault_stats.deadline_misses,
                        sim_s=sim_s,
                    )
            result = self._run_query(
                host,
                event,
                position,
                heading,
                responses,
                fault_stats,
                tracer if tracer.enabled else None,
            )
            adopted, foreign = self._spread_overheard(
                ring, result.shared, event.time
            )
            if query_span.enabled:
                record = result.record
                query_span.set(
                    time=record.time,
                    host_id=record.host_id,
                    kind=record.kind.value,
                    resolution=record.resolution.value,
                    access_latency=record.access_latency,
                    tuning_packets=record.tuning_packets,
                    peer_count=record.peer_count,
                    result_size=record.result_size,
                )
                if record.kind is QueryKind.KNN:
                    query_span.set(k=record.k)
                else:
                    query_span.set(
                        window_area=record.window_area,
                        covered_fraction_missing=(
                            record.covered_fraction_missing
                        ),
                    )
        self._check(result.record)
        return result, adopted, foreign

    def _check(self, record: QueryRecord) -> None:
        if invariants.check_enabled():
            invariants.check_record(record)
            invariants.check_traffic(self.network)

    # ------------------------------------------------------------------
    # Introspection / merging
    # ------------------------------------------------------------------
    def traffic_totals(self) -> tuple[int, int, int]:
        """``(requests_sent, peers_heard, responses_received)`` so far."""
        network = self.network
        return (
            network.requests_sent,
            network.peers_heard,
            network.responses_received,
        )

    def share_states(self) -> dict[int, tuple[int, tuple, tuple]]:
        """Final observable cache state of every owned host.

        ``{gid: (generation, region tuples, (poi_id, x, y) triples)}``
        — the referee fingerprint the differential suite compares.
        """
        out = {}
        for host in self._owned_hosts():
            generation, regions, pois = host.cache.frozen_snapshot()
            out[host.host_id] = (
                generation,
                tuple(r.as_tuple() for r in regions),
                tuple((p.poi_id, p.x, p.y) for p in pois),
            )
        return out
