"""One spatial shard's world: owned hosts, halo mirrors, local radio.

A :class:`ShardWorld` owns the :class:`~repro.experiments.host.
MobileHost` objects (caches included) of every host inside its tile,
plus read-only :class:`~repro.experiments.host.HaloHost` mirrors of
the foreign hosts inside its halo band.  It executes query events with
the *same* host pipeline as the single-process simulator — the only
differences are mechanical:

* peer discovery runs on a shard-local :class:`~repro.p2p.PeerNetwork`
  in id-mapped mode over the owned + halo rows (identical world bounds
  and cell size, rows sorted by global id, so neighbour sets AND their
  enumeration order match the full-fleet grid restricted to the local
  subset);
* share responses of halo peers come from their mirrored payloads;
* overheard results destined for halo peers become
  :class:`OverhearOp` messages routed to the owner shard instead of
  direct cache inserts.

The worker never touches an RNG — every random draw in the system
(POIs, mobility, workload) happens on the coordinator — so shard
execution is a pure function of the messages it receives.

``shard_worker_main`` is the subprocess entry point: a blocking RPC
loop over a :mod:`multiprocessing` pipe, one ``(method, args)`` tuple
per request.  The in-process backend calls the same methods directly.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ExperimentError
from ..cache import POICache
from ..check import invariants
from ..geometry import Point
from ..model import POI
from ..p2p import PeerNetwork, SharePayload, ShareResponse
from ..mobility import ShardFleetSoA
from ..workloads import ParameterSet, QueryEvent, QueryKind
from ..experiments.host import HaloHost, MobileHost
from ..experiments.station import BaseStation
from .messages import EventOutcome, OverhearOp, SharedRegions

__all__ = [
    "EventOutcome",
    "OverhearOp",
    "SharedRegions",
    "ShardWorld",
    "shard_worker_main",
]


class ShardWorld:
    """The executable state of one spatial shard."""

    def __init__(
        self,
        shard_id: int,
        params: ParameterSet,
        pois: Sequence[POI],
        station_kwargs: dict,
        accept_approximate: bool = True,
        min_correctness: float = 0.5,
        p2p_latency: float = 0.05,
        cache_gossip: bool = True,
        overhear: bool = True,
        max_regions: int | None = None,
        p2p_hops: int = 1,
        enable_sharing: bool = True,
        policy_factory=None,
    ):
        self.shard_id = shard_id
        self.params = params
        self.pois = list(pois)
        # Every shard builds an identical base-station replica: the
        # station is a pure function of the POI field and its knobs
        # (no RNG), so replication costs memory, not determinism.
        self.station = BaseStation(self.pois, params.bounds, **station_kwargs)
        self.accept_approximate = accept_approximate
        self.min_correctness = min_correctness
        self.p2p_latency = p2p_latency
        self.cache_gossip = cache_gossip
        self.overhear = overhear
        self.p2p_hops = p2p_hops
        self.enable_sharing = enable_sharing
        self.policy_factory = policy_factory
        self.region_cap = (
            max_regions if max_regions is not None else max(4, params.cache_size)
        )
        self.network = PeerNetwork(params.bounds, params.tx_range_mi)
        self.hosts: dict[int, MobileHost] = {}
        self.mirrors: dict[int, HaloHost] = {}
        self.soa: ShardFleetSoA | None = None
        self._epoch = -1

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def _make_host(self, gid: int) -> MobileHost:
        return MobileHost(
            gid,
            POICache(
                self.params.cache_size,
                self.policy_factory() if self.policy_factory is not None else None,
                max_regions=self.region_cap,
            ),
        )

    def take_hosts(self, gids: Sequence[int]) -> list[MobileHost]:
        """Release hosts migrating out (their tile is now foreign)."""
        out = []
        for gid in gids:
            host = self.hosts.pop(int(gid), None)
            if host is None:
                raise ExperimentError(
                    f"shard {self.shard_id} asked to release unowned host {gid}"
                )
            out.append(host)
        return out

    def give_hosts(self, hosts: Sequence[MobileHost]) -> None:
        """Adopt hosts migrating in (cache state travels with them)."""
        for host in hosts:
            if host.host_id in self.hosts:
                raise ExperimentError(
                    f"shard {self.shard_id} already owns host {host.host_id}"
                )
            self.hosts[host.host_id] = host

    def begin_epoch(self, t, ids, xs, ys, hx, hy, owned_mask) -> None:
        """Install the coordinator's refresh-epoch snapshot.

        ``ids`` (ascending global ids) cover owned + halo hosts;
        migrations must have been settled (take/give) first.  On the
        first epoch the worker creates its owned hosts' fresh caches —
        afterwards a missing owned host means a lost migration, which
        is a hard error, not something to paper over.
        """
        del t
        soa = ShardFleetSoA(ids, xs, ys, hx, hy, owned_mask)
        if self.soa is not None:
            soa.carry_generations_from(self.soa)
        owned = set(soa.owned_ids.tolist())
        if self._epoch < 0:
            for gid in sorted(owned):
                self.hosts[gid] = self._make_host(gid)
        if self.hosts.keys() != owned:
            missing = sorted(owned - self.hosts.keys())[:5]
            extra = sorted(self.hosts.keys() - owned)[:5]
            raise ExperimentError(
                f"shard {self.shard_id} ownership out of sync"
                f" (missing={missing}, extra={extra})"
            )
        for gid, host in self.hosts.items():
            soa.record_generation(gid, host.cache.generation)
        halo = set(soa.halo_ids.tolist())
        self.mirrors = {
            gid: mirror for gid, mirror in self.mirrors.items() if gid in halo
        }
        for gid, mirror in self.mirrors.items():
            soa.record_generation(gid, mirror.payload.generation)
        self.soa = soa
        self.network.update_positions(soa.xs, soa.ys, ids=soa.ids)
        self._epoch += 1

    def set_halo_payloads(self, payloads: Sequence[SharePayload]) -> None:
        """Install/refresh halo mirrors from owner-exported payloads."""
        soa = self.soa
        for payload in payloads:
            mirror = self.mirrors.get(payload.host_id)
            if mirror is None:
                self.mirrors[payload.host_id] = HaloHost(payload)
            else:
                mirror.update(payload)
            if soa is not None and payload.host_id in soa:
                soa.record_generation(payload.host_id, payload.generation)

    def export_payloads(
        self, gids: Sequence[int], known: Sequence[int]
    ) -> list[SharePayload]:
        """Payloads of owned hosts whose generation moved past ``known``.

        ``known[i]`` is the caller's last seen generation for
        ``gids[i]`` (-1 for never); unchanged hosts are skipped, and a
        re-export of an unchanged host costs nothing anyway — the
        payload is memoised per generation inside the cache
        (``POICache.frozen_snapshot``).
        """
        out = []
        for gid, known_generation in zip(gids, known):
            host = self.hosts.get(int(gid))
            if host is None:
                raise ExperimentError(
                    f"shard {self.shard_id} asked to export foreign host {gid}"
                )
            if host.cache.generation != known_generation:
                out.append(host.share_payload())
        return out

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _responder(self, gid: int):
        host = self.hosts.get(gid)
        if host is not None:
            return host
        mirror = self.mirrors.get(gid)
        if mirror is not None:
            return mirror
        # A peer inside the radio disc of an owned host is inside the
        # halo band by construction; an unsynced mirror is an empty
        # cache (nothing exported yet), which answers nothing — the
        # same as a real host that has cached nothing.
        return None

    def _collect_responses(
        self, host_id: int, position: Point
    ) -> list[ShareResponse]:
        if not self.enable_sharing:
            return []
        if self.p2p_hops == 1:
            peer_ids = self.network.peers_of(host_id, position)
        else:
            peer_ids = self.network.peers_within_hops(
                host_id, position, self.p2p_hops
            )
        responses: list[ShareResponse] = []
        own = self.hosts[host_id].share_response()
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

    def _spread_overheard(
        self, querier: int, shared: SharedRegions, now: float, event_index: int
    ) -> tuple[list[OverhearOp], list[int]]:
        """Adopt overheard results locally; emit ops for halo peers.

        Owned neighbours adopt immediately (the single-process order —
        caches are disjoint, so splitting owned/remote cannot reorder
        anything observable); foreign neighbours get one op each,
        replayed by their owner before the next event (lockstep mode)
        or at the next cycle boundary.
        """
        soa = self.soa
        position = soa.position_of(querier)
        peer_ids = self.network.peers_of(querier, position, count_traffic=False)
        remote_ops: list[OverhearOp] = []
        touched: list[int] = []
        if peer_ids.size == 0:
            return remote_ops, touched
        hosts = self.hosts
        # Every peer is handed the same shared POI tuples:
        # insert_result never mutates its input.
        for pid in peer_ids.tolist():
            local = soa.local_of(pid)
            x = float(soa.xs[local])
            y = float(soa.ys[local])
            heading = (float(soa.hx[local]), float(soa.hy[local]))
            host = hosts.get(pid)
            if host is not None:
                peer_position = Point(x, y)
                cache = host.cache
                for region, pois in shared:
                    cache.insert_result(
                        region, pois, now, peer_position, heading
                    )
                touched.append(pid)
            else:
                remote_ops.append(
                    OverhearOp(event_index, pid, now, (x, y), heading, shared)
                )
        return remote_ops, touched

    def _stamp_dirty(
        self, touched: Sequence[int]
    ) -> tuple[tuple[int, int], ...]:
        """(gid, generation) for touched owned hosts that truly changed."""
        soa = self.soa
        dirty: list[tuple[int, int]] = []
        seen: set[int] = set()
        for gid in touched:
            if gid in seen:
                continue
            seen.add(gid)
            generation = self.hosts[gid].cache.generation
            if generation != soa.generation_of(gid):
                soa.record_generation(gid, generation)
                dirty.append((gid, generation))
        return tuple(dirty)

    def execute_event(self, event: QueryEvent, event_index: int) -> EventOutcome:
        """Run one query event; mirrors ``Simulation.execute_query``."""
        host = self.hosts.get(event.host_id)
        if host is None:
            raise ExperimentError(
                f"event for host {event.host_id} routed to shard"
                f" {self.shard_id}, which does not own it"
            )
        soa = self.soa
        position = soa.position_of(event.host_id)
        heading = soa.heading_of(event.host_id)
        responses = self._collect_responses(event.host_id, position)
        if event.kind is QueryKind.KNN:
            result = host.execute_knn(
                position,
                heading,
                event.k,
                responses,
                self.station.client,
                self.params.poi_density,
                event.time,
                p2p_latency=self.p2p_latency * self.p2p_hops,
                accept_approximate=self.accept_approximate,
                min_correctness=self.min_correctness,
                cache_gossip=self.cache_gossip,
            )
        else:
            window = event.window_for(position, self.params.bounds)
            result = host.execute_window(
                position,
                heading,
                window,
                responses,
                self.station.client,
                event.time,
                p2p_latency=self.p2p_latency * self.p2p_hops,
            )
        remote_ops: list[OverhearOp] = []
        touched: list[int] = [event.host_id]
        if self.overhear and result.shared:
            shared = tuple(
                (region, tuple(pois)) for region, pois in result.shared
            )
            remote_ops, overheard = self._spread_overheard(
                event.host_id, shared, event.time, event_index
            )
            touched.extend(overheard)
        if invariants.check_enabled():
            invariants.check_record(result.record)
            invariants.check_traffic(self.network)
        return EventOutcome(
            event_index=event_index,
            record=result.record,
            remote_ops=tuple(remote_ops),
            dirty=self._stamp_dirty(touched),
        )

    def execute_batch(
        self, events: Sequence[tuple[int, QueryEvent]]
    ) -> list[EventOutcome]:
        """Run one refresh epoch's events (cycle mode), in time order."""
        return [self.execute_event(event, index) for index, event in events]

    def apply_ops(
        self, ops: Sequence[OverhearOp]
    ) -> tuple[tuple[int, int], ...]:
        """Replay overhear ops onto owned hosts, in global event order."""
        touched: list[int] = []
        for op in ops:
            host = self.hosts.get(op.target)
            if host is None:
                raise ExperimentError(
                    f"overhear op for host {op.target} routed to shard"
                    f" {self.shard_id}, which does not own it"
                )
            peer_position = Point(*op.position)
            cache = host.cache
            for region, pois in op.shared:
                cache.insert_result(
                    region, list(pois), op.now, peer_position, op.heading
                )
            touched.append(op.target)
        return self._stamp_dirty(touched)

    # ------------------------------------------------------------------
    # Introspection / merging
    # ------------------------------------------------------------------
    def traffic_totals(self) -> tuple[int, int, int]:
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
        for gid in sorted(self.hosts):
            cache = self.hosts[gid].cache
            regions, pois = cache.share()
            out[gid] = (
                cache.generation,
                tuple(r.as_tuple() for r in regions),
                tuple((p.poi_id, p.x, p.y) for p in pois),
            )
        return out

    def owned_count(self) -> int:
        return len(self.hosts)


def shard_worker_main(conn, config: dict) -> None:
    """Subprocess entry point: serve binary RPCs until the pipe closes.

    Protocol (see :mod:`repro.shard.rpc`): each request is one codec
    buffer over ``recv_bytes``; each reply is a status-prefixed buffer
    over ``send_bytes``.  An ``OP_SHUTDOWN`` request (or pipe EOF)
    ends the loop.
    """
    import gc
    import traceback

    from . import rpc

    try:
        world = ShardWorld(**config)
        # The station replica (full POI field + spatial index) is
        # immortal for this worker's lifetime; move it into the
        # permanent generation so the collector stops rescanning it,
        # and collect far less often — query execution allocates
        # millions of short-lived geometry objects whose cycles are
        # rare, so the default thresholds spend real wall time on
        # generational scans that find nothing.  GC timing has no
        # observable effect on the simulation, so lockstep
        # bit-identity with the single-process referee is preserved.
        gc.collect()
        gc.freeze()
        gc.set_threshold(50_000, 50, 50)
        conn.send_bytes(rpc.construction_ack(world.shard_id))
    except BaseException:
        conn.send_bytes(rpc.err_frame(traceback.format_exc()))
        return
    while True:
        try:
            data = conn.recv_bytes()
        except EOFError:
            return
        response = rpc.handle_request(world, data)
        if response is None:
            return
        conn.send_bytes(response)
