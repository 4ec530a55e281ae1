"""One spatial shard's world: owned hosts, halo mirrors, local radio.

A :class:`ShardWorld` owns every host inside its tile, plus read-only
:class:`~repro.experiments.host.HaloHost` mirrors of the foreign hosts
inside its halo band.  An owned host is a :class:`~repro.experiments.
host.MobileHost` (cache included) only once it first needs a cache —
it issues a query, overhears a result or is sent an overhear op;
until then it is absent, which means generation 0: an empty cache,
exactly like an unsynced halo mirror.  It executes query events with
the *same* pipeline object as the single-process simulator
(:class:`~repro.experiments.world.QueryWorld`) — the only differences
are mechanical:

* the epoch snapshot, and so the :class:`~repro.p2p.PeerNetwork`,
  holds only the owned + halo rows (identical world bounds and cell
  size, rows sorted by global id, so neighbour sets AND their
  enumeration order match the full-fleet grid restricted to the local
  subset);
* share responses of halo peers are the owner's exported
  :class:`~repro.p2p.ShareResponse`, held by the mirror;
* overheard results destined for halo peers become
  :class:`OverhearOp` messages routed to the owner shard instead of
  direct cache inserts.

The worker never touches an RNG — every random draw in the system
(POIs, mobility, workload) happens on the coordinator — so shard
execution is a pure function of the messages it receives.

``shard_worker_main`` is the subprocess entry point: a blocking RPC
loop over a :mod:`multiprocessing` pipe, one binary request buffer per
call.  The in-process backend calls the same methods directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ExperimentError
from ..geometry import Point
from ..p2p import ShareResponse
from ..workloads import QueryEvent
from ..experiments.host import HaloHost, MobileHost
from ..experiments.world import QueryWorld
from .messages import EventOutcome, OverhearOp

__all__ = [
    "EventOutcome",
    "OverhearOp",
    "ShardWorld",
    "shard_worker_main",
]


class ShardWorld(QueryWorld):
    """The executable state of one spatial shard."""

    def __init__(self, shard_id: int, **settings):
        super().__init__(**settings)
        self.shard_id = shard_id
        # The owned hosts built so far; the owned ids are the snapshot's.
        self.hosts: dict[int, MobileHost] = {}
        self.mirrors: dict[int, HaloHost] = {}
        # Which snapshot rows (``network.ids``) this shard owns; the
        # rest are its halo.
        self._owned_mask = np.zeros(0, dtype=bool)
        # Cache generation last reported to the coordinator, per built
        # host: a touched host is dirty when its cache has moved past it.
        self._reported: dict[int, int] = {}
        # Hosts are built on demand, mid-run: a factory that cannot
        # build a policy fails here, while the worker is constructed.
        if self.policy_factory is not None:
            self.policy_factory()
        self._tenure()

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def take_hosts(self, gids: Sequence[int]) -> list[MobileHost]:
        """Release hosts migrating out (their tile is now foreign).

        Only hosts whose cache generation is nonzero travel: an absent
        or generation-0 host is indistinguishable from a fresh one, so
        it migrates as nothing and its new owner builds it on demand.
        """
        self._require_owned(gids, "release unowned")
        out = []
        for gid in gids:
            gid = int(gid)
            host = self.hosts.pop(gid, None)
            if host is None:
                continue
            del self._reported[gid]
            if host.cache.generation:
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
            self._reported[host.host_id] = host.cache.generation

    def begin_epoch(self, t, ids, xs, ys, hx, hy, owned_mask) -> None:
        """Install the coordinator's refresh-epoch snapshot.

        ``ids`` (ascending global ids) cover owned + halo hosts;
        migrations must have been settled (take/give) first.  Owned
        hosts not built yet stay absent; a built host the snapshot does
        not give this shard is a hard error.  (A lost migration is the
        coordinator's check: only it knows which hosts must arrive.)
        """
        del t
        owned_mask = np.asarray(owned_mask, dtype=bool)
        if not all(np.shape(a) == np.shape(ids) for a in (hx, hy, owned_mask)):
            raise ExperimentError("epoch snapshot arrays must be parallel 1-D")
        self._install_snapshot(xs, ys, hx, hy, ids)
        self._owned_mask = owned_mask
        built = np.fromiter(self.hosts, np.int64, len(self.hosts))
        _, owned = self._ownership(built)
        if not owned.all():
            raise ExperimentError(
                f"shard {self.shard_id} ownership out of sync"
                f" (extra={sorted(built[~owned].tolist())[:5]})"
            )
        mirrored = np.fromiter(self.mirrors, np.int64, len(self.mirrors))
        known, owned = self._ownership(mirrored)
        self.mirrors = {
            gid: self.mirrors[gid] for gid in mirrored[known & ~owned].tolist()
        }

    def _ownership(self, gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per gid of ``gids``: in the snapshot, and owned by this shard."""
        ids = self.network.ids
        if not ids.size:
            none = np.zeros(gids.shape, dtype=bool)
            return none, none
        rows = np.minimum(ids.searchsorted(gids), ids.size - 1)
        known = ids[rows] == gids
        return known, known & self._owned_mask[rows]

    def _owns(self, gid: int) -> bool:
        """Whether the snapshot gives ``gid`` to this shard."""
        ids = self.network.ids
        row = ids.searchsorted(gid)
        return row < ids.size and ids[row] == gid and self._owned_mask[row]

    def _require_owned(self, gids: Sequence[int], asked: str) -> None:
        gids = np.asarray(gids, dtype=np.int64)
        _, owned = self._ownership(gids)
        if not owned.all():
            raise ExperimentError(
                f"shard {self.shard_id} asked to {asked} host"
                f" {int(gids[~owned][0])}"
            )

    def set_halo_payloads(self, payloads: Sequence[ShareResponse]) -> None:
        """Install/refresh halo mirrors from owner-exported responses."""
        for response in payloads:
            self.mirrors[response.peer_id] = HaloHost(response)

    def export_payloads(self, gids: Sequence[int]) -> list[ShareResponse]:
        """Share responses of the owned hosts ``gids``.

        The coordinator asks only for hosts whose mirrored response is
        stale.  What crosses the seam is exactly what the owner would
        answer a peer with (memoised per generation inside the host); a
        host with nothing to share — an absent one included — exports an
        empty response so the caller still learns its generation stamp.
        """
        self._require_owned(gids, "export foreign")
        out = []
        for gid in gids:
            gid = int(gid)
            host = self.hosts.get(gid)
            if host is None:
                response = ShareResponse(gid, (), (), 0)
            else:
                response = host.share_response()
                if response is None:
                    response = ShareResponse(gid, (), (), host.cache.generation)
            out.append(response)
        return out

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _responder(self, gid: int):
        # A peer inside the radio disc of an owned host is inside the
        # halo band by construction; an absent owned host and an
        # unsynced mirror are empty caches, which answer nothing — the
        # same as a real host that has cached nothing.
        return self.hosts.get(gid) or self.mirrors.get(gid)

    def _owned(self, gid: int) -> MobileHost | None:
        """The owned host ``gid``, built on first need; ``None`` if foreign."""
        host = self.hosts.get(gid)
        if host is None and self._owns(gid):
            host = self.hosts[gid] = self._make_host(gid)
            self._reported[gid] = 0
        return host

    def _owned_hosts(self):
        return self.hosts.values()

    def _stamp_dirty(
        self, touched: Sequence[int]
    ) -> tuple[tuple[int, int], ...]:
        """(gid, generation) for touched owned hosts that truly changed."""
        reported = self._reported
        dirty: list[tuple[int, int]] = []
        for gid in dict.fromkeys(touched):  # each host once, first-touch order
            generation = self.hosts[gid].cache.generation
            if generation != reported[gid]:
                reported[gid] = generation
                dirty.append((gid, generation))
        return tuple(dirty)

    def execute_event(self, event: QueryEvent, event_index: int) -> EventOutcome:
        """Run one query event through the shared pipeline.

        Owned neighbours adopt an overheard result immediately (the
        single-process order); foreign neighbours get one
        :class:`OverhearOp` each, replayed by their owner before the
        next event (lockstep mode) or at the next cycle boundary.
        """
        result, adopted, foreign = self._execute(event)
        shared, now = result.shared, event.time
        return EventOutcome(
            event_index=event_index,
            record=result.record,
            remote_ops=tuple(
                OverhearOp(event_index, pid, now, xy, heading, shared)
                for pid, xy, heading in foreign
            ),
            dirty=self._stamp_dirty([event.host_id, *adopted]),
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
            host = self._owned(op.target)
            if host is None:
                raise ExperimentError(
                    f"overhear op for host {op.target} routed to shard"
                    f" {self.shard_id}, which does not own it"
                )
            host.cache.insert_result(
                op.shared, op.now, Point(*op.position), op.heading
            )
            touched.append(op.target)
        return self._stamp_dirty(touched)

    def share_states(self) -> dict[int, tuple[int, tuple, tuple]]:
        """Every owned host's fingerprint; an absent one is ``(0, (), ())``."""
        built = super().share_states()
        empty = (0, (), ())
        owned = self.network.ids[self._owned_mask].tolist()
        return {gid: built.get(gid, empty) for gid in owned}


def shard_worker_main(conn, config: dict) -> None:
    """Subprocess entry point: serve binary RPCs until the pipe closes.

    Protocol (see :mod:`repro.shard.rpc`): each request is one codec
    buffer over ``recv_bytes``; each reply is a status-prefixed buffer
    over ``send_bytes``.  An ``OP_SHUTDOWN`` request (or pipe EOF)
    ends the loop.
    """
    import traceback

    from . import rpc

    try:
        world = ShardWorld(**config)
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
