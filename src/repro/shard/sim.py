"""The sharded simulation coordinator.

:class:`ShardedSimulation` is a drop-in for
:class:`~repro.experiments.Simulation.run_workload` at full Table-3
scale.  The coordinator owns everything random and shares the
single-process RNG discipline by construction — the same
:func:`~repro.experiments.world.draw_world` (one ``default_rng(seed)``:
POI field, then fleet), then workload event draws interleaved with
fleet-refresh draws at the boundaries the shared ``refresh_due``
names.  Query execution itself
never touches the world RNG (fault injection, the one thing that
draws mid-query, is rejected in sharded mode), so the shard workers
are RNG-free and the whole run is a deterministic function of
``(seed, shards, exchange)``.

Two halo-exchange cadences:

* ``exchange="event"`` — lockstep: after every event, overhear ops are
  replayed on their owner shards and dirty share payloads re-mirrored
  before the next event.  Bit-identical to the single-process
  simulator (records, traffic tallies, final cache states) — the
  differential suite pins this.  Runs in-process; an explicit
  ``backend="process"`` is an :class:`~repro.errors.ExperimentError`.
* ``exchange="cycle"`` — scalable: events are batched per position-
  refresh epoch and executed by all shards concurrently; cross-shard
  cache effects (overheard adoptions, halo payload refreshes) land at
  epoch boundaries.  Deterministic in (seed, shards), but halo cache
  mirrors within an epoch are one epoch stale, so runs are *not*
  bit-identical to single-process — the edge-effect benchmark
  quantifies how little the recorded curves move.

Backends: ``"process"`` runs each shard in its own worker process
(persistent pipe RPC; a worker that cannot be started is an
:class:`~repro.errors.ExperimentError`, never a silent change of
backend, and one that dies, or stays silent past a bounded wait,
mid-run is a :class:`~repro.errors.ShardError` after every worker has
been reaped);
``"inprocess"`` keeps every shard in the calling process and is the
lockstep referee.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import select
import struct
import time
from collections import defaultdict, deque
from typing import Sequence

import numpy as np

from ..cache import POICache
from ..codec.core import encode
from ..errors import CodecError, ExperimentError, ShardError
from ..model import POI
from ..p2p import ShareResponse
from ..workloads import ParameterSet, QueryKind, QueryWorkload
from ..experiments.host import MobileHost
from ..experiments.metrics import MetricsCollector
from ..experiments.simulator import POSITION_REFRESH_INTERVAL, refresh_due
from ..experiments.world import draw_world
from . import rpc
from .grid import ShardGrid
from .worker import EventOutcome, OverhearOp, ShardWorld, shard_worker_main

# How often a coordinator waiting on a worker's reply checks that the
# worker still lives (a reply that arrives ends the wait at once).
WORKER_POLL_S = 0.05
# How long it waits for one reply at most.  The slowest reply, a
# full-LA epoch batch or a shard's construction, takes seconds; a
# worker silent for this long is stopped or wedged, and the run is a
# ShardError rather than a hang.
WORKER_REPLY_TIMEOUT_S = 300.0
# How long a terminated worker gets to exit before it is killed (a
# stopped process never acts on SIGTERM).
WORKER_TERMINATE_S = 1.0


class _InprocessShard:
    """Direct-call backend: the shard world lives in this process."""

    def __init__(self, config: dict):
        self.world = ShardWorld(**config)
        self._pending = None

    def call(self, method: str, *args):
        return getattr(self.world, method)(*args)

    def send(self, method: str, *args) -> None:
        self._pending = self.call(method, *args)

    def recv(self):
        pending, self._pending = self._pending, None
        return pending

    def ready(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ProcessShard:
    """Pipe-RPC backend: the shard world lives in a worker process.

    Requests and responses are flat codec buffers (see
    :mod:`repro.shard.rpc`) moved with ``send_bytes``/``recv_bytes``;
    domain objects relayed between shards stay encoded end-to-end.
    The pending-method queue pairs each deferred ``recv`` with the
    request whose response schema it must parse.

    A reply is awaited with ``poll`` while the worker lives, for at
    most ``WORKER_REPLY_TIMEOUT_S``, and so is room in the pipe for a
    request: a worker that dies, whose pipe closes, or that stays
    silent that long (stopped or wedged) is a :class:`ShardError`
    naming the shard, the opcode and the epoch, never a hang.

    Construction only starts the worker; :meth:`ready` reads its
    construction ack, so the coordinator starts every worker before
    it waits on any.
    """

    def __init__(self, config: dict, ctx):
        self.shard_id = config["shard_id"]
        self._epoch = -1
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=shard_worker_main, args=(child, config), daemon=True
        )
        # The construction ack is the first pending reply.
        self._pending: deque[str | None] = deque([None])
        try:
            self._proc.start()
        except BaseException:
            self.close()
            raise
        finally:
            child.close()

    def ready(self) -> None:
        """Wait for the construction ack (an error frame raises)."""
        rpc.read_ack(self._receive(None))
        self._pending.popleft()

    def send(self, method: str, *args) -> None:
        request = rpc.encode_request(method, args)
        if method == "begin_epoch":
            self._epoch += 1
        # Pending from its first byte: a request cut short leaves the
        # worker mid-request, which close() terminates.
        self._pending.append(method)
        self._write(request, rpc.opcode_of(method))

    def _write(self, data: bytes, opcode: int) -> None:
        """``send_bytes(data)``, waited on while the worker lives, and
        for at most ``WORKER_REPLY_TIMEOUT_S``.

        A request larger than the pipe's buffer (a full-LA epoch
        snapshot is ~2 MB) goes out as the worker reads it, so one the
        worker never reads would block a plain ``send_bytes`` forever.
        The same frame — the length prefix ``recv_bytes`` reads, then
        the payload — is written to the descriptor in non-blocking
        mode instead, waiting for room between writes.
        """
        deadline = time.monotonic() + WORKER_REPLY_TIMEOUT_S
        frame = memoryview(struct.pack("!i", len(data)) + data)
        try:
            fd = self._conn.fileno()
            room = select.poll()
            room.register(fd, select.POLLOUT)
            os.set_blocking(fd, False)
            try:
                while frame:
                    try:
                        frame = frame[os.write(fd, frame):]
                    except BlockingIOError:
                        if not self._proc.is_alive() or time.monotonic() > deadline:
                            raise ShardError(self.shard_id, opcode, self._epoch)
                        room.poll(WORKER_POLL_S * 1000)
            finally:
                os.set_blocking(fd, True)
        except OSError as exc:
            raise ShardError(self.shard_id, opcode, self._epoch) from exc

    def recv(self):
        # The request stays pending until its reply arrives: a worker
        # that never answers is mid-request, which close() terminates.
        method = self._pending[0]
        reply = self._receive(rpc.opcode_of(method))
        self._pending.popleft()
        return rpc.decode_response(method, reply)

    def _receive(self, opcode: int | None) -> bytes:
        """The next reply, waited for while the worker lives, and for
        at most ``WORKER_REPLY_TIMEOUT_S``."""
        conn = self._conn
        deadline = time.monotonic() + WORKER_REPLY_TIMEOUT_S
        try:
            while not conn.poll(WORKER_POLL_S):
                if not self._proc.is_alive() or time.monotonic() > deadline:
                    raise ShardError(self.shard_id, opcode, self._epoch)
            return conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ShardError(self.shard_id, opcode, self._epoch) from exc

    def close(self) -> None:
        """Stop the worker: asked to when idle, terminated when it is
        mid-request (a reply nobody will read) or gone, killed when it
        outlives the terminate (stopped); always joined."""
        proc = self._proc
        try:
            if proc.is_alive() and not self._pending:
                self._conn.send_bytes(rpc.shutdown_request())
                proc.join(timeout=5.0)
        except OSError:
            pass
        finally:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=WORKER_TERMINATE_S)
            if proc.is_alive():
                proc.kill()
            if proc.pid is not None:
                proc.join(timeout=5.0)
            self._conn.close()


class ShardedSimulation:
    """A spatially sharded simulated world for one parameter set."""

    def __init__(
        self,
        params: ParameterSet,
        seed: int = 0,
        shards: int = 4,
        exchange: str = "cycle",
        backend: str = "auto",
        policy_factory=None,
        accept_approximate: bool = True,
        min_correctness: float = 0.5,
        overhear: bool = True,
        p2p_hops: int = 1,
        enable_sharing: bool = True,
        pois: Sequence[POI] | None = None,
        fault_config=None,
        tracer=None,
        registry=None,
    ):
        if shards < 1:
            raise ExperimentError(f"shard count must be >= 1, got {shards}")
        if exchange not in ("event", "cycle"):
            raise ExperimentError(
                f"exchange must be 'event' or 'cycle', got {exchange!r}"
            )
        if backend not in ("auto", "process", "inprocess"):
            raise ExperimentError(f"unknown shard backend {backend!r}")
        if p2p_hops < 1:
            raise ExperimentError(f"p2p_hops must be >= 1, got {p2p_hops}")
        # Honest limitations, not silent degradations.  Faults draw
        # from the channel RNG *during* query execution, in an order
        # that depends on which shard runs which query — no shard
        # decomposition can replay the single-process stream.
        if fault_config is not None and getattr(fault_config, "enabled", False):
            raise ExperimentError(
                "sharded mode does not support fault injection: the"
                " channel RNG draw order cannot be replicated across"
                " shards (run single-process for fault studies)"
            )
        if tracer is not None and getattr(tracer, "enabled", False):
            raise ExperimentError(
                "sharded mode does not support tracing: span trees"
                " cannot cross shard worker processes"
            )

        self.params = params
        self.shards = shards
        self.exchange = exchange
        self.p2p_hops = p2p_hops
        self.registry = registry

        self.backend = self._resolve_backend(backend)
        # One more up-front limitation: process shards migrate hosts as
        # codec frames, which only carry the stock policies.
        if self.backend == "process" and policy_factory is not None:
            self._require_wire_policy(policy_factory)

        self.rng, self.pois, self.fleet = draw_world(params, seed, pois)

        self.grid = ShardGrid(
            params.bounds, shards, halo_width=p2p_hops * params.tx_range_mi
        )
        worker_config = dict(
            params=params,
            pois=self.pois,
            accept_approximate=accept_approximate,
            min_correctness=min_correctness,
            overhear=overhear,
            p2p_hops=p2p_hops,
            enable_sharing=enable_sharing,
            policy_factory=policy_factory,
        )

        # Coordinator-side exchange bookkeeping.
        self._owner: np.ndarray | None = None
        self._halo: list[set[int]] = [set() for _ in range(self.grid.n)]
        self._halo_pushed: list[dict[int, int]] = [
            {} for _ in range(self.grid.n)
        ]
        self._payloads: dict[int, ShareResponse] = {}
        self._gen: dict[int, int] = {}
        self._traffic_mirrored = (0, 0, 0)
        self._now = 0.0
        self._last_refresh = -math.inf

        # A caller cannot close() an object whose constructor raised,
        # so any failure from here on reaps the workers already started.
        self._workers: list = []
        try:
            self._spawn_workers(worker_config)
            self._refresh_epoch(0.0)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    def _resolve_backend(self, backend: str) -> str:
        if self.exchange == "event":
            # Lockstep exchange round-trips the coordinator after every
            # event; process workers would serialise the whole object
            # graph per event for no parallel gain.  Event mode exists
            # for exactness (differential referee), so it runs
            # in-process, and asking for process workers is an error.
            if backend == "process":
                raise ExperimentError(
                    "exchange='event' runs in-process: lockstep has no"
                    " process backend (use exchange='cycle', or"
                    " backend='auto' / 'inprocess')"
                )
            return "inprocess"
        if backend == "auto":
            return "process" if self.shards > 1 else "inprocess"
        return backend

    @staticmethod
    def _require_wire_policy(policy_factory) -> None:
        """Refuse, before any worker exists, a policy that cannot migrate.

        Process shards move hosts as codec frames, and only the stock
        replacement policies have a wire form; the probe is the codec
        itself, so there is no second list of what it accepts.
        """
        try:
            encode(MobileHost(0, POICache(1, policy_factory())))
        except CodecError as exc:
            raise ExperimentError(
                f"the process shard backend cannot run this policy_factory:"
                f" {exc} (use backend='inprocess' or a single process)"
            ) from exc

    def _spawn_workers(self, config: dict) -> None:
        """Fill ``self._workers`` in place (a partial list stays closable).

        Every worker is started before any construction ack is read,
        so the workers build their worlds side by side.
        """
        ctx = multiprocessing.get_context()
        for shard_id in range(self.grid.n):
            shard_config = dict(config, shard_id=shard_id)
            if self.backend == "inprocess":
                self._workers.append(_InprocessShard(shard_config))
                continue
            try:
                self._workers.append(_ProcessShard(shard_config, ctx))
            except OSError as exc:
                # The constructor reaps the workers already started
                # before this reaches the caller.
                raise ExperimentError(
                    f"the process shard backend could not start worker"
                    f" {shard_id} of {self.grid.n}: {exc}"
                    " (backend='inprocess' needs no worker processes)"
                ) from exc
        for worker in self._workers:
            worker.ready()

    def close(self) -> None:
        """Shut down worker processes (idempotent)."""
        for worker in self._workers:
            worker.close()

    def _reaping(self, step, *args):
        """Run one coordinator step; a failure reaps every worker first.

        A run that failed midway — a :class:`ShardError`, a worker's
        error frame, an interrupt — has left replies unread and shard
        states out of step, so it is not resumed: no worker outlives it.
        """
        try:
            return step(*args)
        except BaseException:
            self.close()
            raise

    def _fan_out(self, method: str, args: dict[int, tuple]) -> list:
        """Send ``method`` to every shard ``args`` names, then read the
        replies, both in shard order (the shards work side by side)."""
        shard_ids = sorted(args)
        for shard_id in shard_ids:
            self._workers[shard_id].send(method, *args[shard_id])
        return [self._workers[shard_id].recv() for shard_id in shard_ids]

    def _ask_all(self, method: str) -> list:
        """One introspection call per worker, replies in shard order."""
        return self._reaping(
            self._fan_out, method, dict.fromkeys(range(len(self._workers)), ())
        )

    def __enter__(self) -> "ShardedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def _refresh_epoch(self, t: float) -> None:
        """Advance the fleet and re-partition the world at time ``t``.

        Mirrors ``Simulation._refresh_positions``: the fleet advance is
        the only RNG consumer, then the position/heading snapshot is
        broadcast — here sliced per shard (owned + halo rows) instead
        of handed to one global grid.  Hosts whose tile changed migrate
        (cache state travels with the MobileHost object; see
        :meth:`_migrate`).
        """
        self.fleet.advance_to(t)
        xs, ys = self.fleet.positions()
        hx, hy = self.fleet.headings()
        owner = self.grid.owner_of(xs, ys)
        workers = self._workers
        if self._owner is not None:
            self._migrate(np.nonzero(owner != self._owner)[0].tolist(), owner)
        new_halos: list[set[int]] = []
        for shard_id, worker in enumerate(workers):
            if self.grid.n == 1:
                ids = np.arange(owner.size, dtype=np.int64)
            else:
                mask = self.grid.member_mask(shard_id, xs, ys)
                ids = np.nonzero(mask)[0].astype(np.int64)
            owned_mask = owner[ids] == shard_id
            worker.send(
                "begin_epoch",
                t,
                ids,
                xs[ids],
                ys[ids],
                hx[ids],
                hy[ids],
                owned_mask,
            )
            new_halos.append(set(ids[~owned_mask].tolist()))
        for worker in workers:
            worker.recv()
        self._owner = owner
        for shard_id, pushed in enumerate(self._halo_pushed):
            halo = new_halos[shard_id]
            for gid in [g for g in pushed if g not in halo]:
                del pushed[gid]
        self._halo = new_halos
        self._last_refresh = t
        self._push_payloads()

    def _migrate(self, moved: list[int], owner: np.ndarray) -> None:
        """Move the hosts whose tile changed to their new owners.

        Only a host with a nonzero cache generation travels (a
        generation-0 host is a fresh one, built on demand where it
        lands); every such host must leave its old owner, or the
        migration was lost — a hard error, not a silently fresh cache.
        """
        by_src: dict[int, list[int]] = defaultdict(list)
        for gid in moved:
            by_src[int(self._owner[gid])].append(gid)
        taken = self._fan_out(
            "take_hosts", {src: (gids,) for src, gids in by_src.items()}
        )
        in_flight = [host for hosts in taken for host in hosts]
        arrived = {host.host_id for host in in_flight}
        lost = [
            gid for gid in moved if self._gen.get(gid, 0) and gid not in arrived
        ]
        if lost:
            raise ExperimentError(
                f"lost migration: {len(lost)} host(s) with cached state"
                f" did not leave their old shard (first {lost[:5]})"
            )
        by_dst: dict[int, list] = defaultdict(list)
        for host in in_flight:
            by_dst[int(owner[host.host_id])].append(host)
        self._fan_out(
            "give_hosts", {dst: (hosts,) for dst, hosts in by_dst.items()}
        )

    def _note_dirty(self, dirty: Sequence[tuple[int, int]]) -> None:
        for gid, generation in dirty:
            self._gen[gid] = generation

    def _push_payloads(self) -> None:
        """Re-mirror every stale halo payload (pull from owners, push).

        A host whose cache generation is still 0 has never cached
        anything observable; its mirror is represented by absence
        (an absent mirror answers share requests with silence, exactly
        like an empty cache).
        """
        owner = self._owner
        plan: list[tuple[int, int, int]] = []  # (shard, gid, generation)
        need: dict[int, set[int]] = defaultdict(set)
        for shard_id, halo in enumerate(self._halo):
            pushed = self._halo_pushed[shard_id]
            for gid in halo:
                generation = self._gen.get(gid, 0)
                if generation == 0 or pushed.get(gid) == generation:
                    continue
                plan.append((shard_id, gid, generation))
                payload = self._payloads.get(gid)
                if payload is None or payload.generation != generation:
                    need[int(owner[gid])].add(gid)
        exported = self._fan_out(
            "export_payloads", {src: (sorted(gids),) for src, gids in need.items()}
        )
        for payloads in exported:
            for payload in payloads:
                self._payloads[payload.peer_id] = payload
                self._gen[payload.peer_id] = payload.generation
        by_shard: dict[int, list[ShareResponse]] = defaultdict(list)
        for shard_id, gid, generation in plan:
            by_shard[shard_id].append(self._payloads[gid])
            self._halo_pushed[shard_id][gid] = generation
        self._fan_out(
            "set_halo_payloads",
            {shard_id: (payloads,) for shard_id, payloads in by_shard.items()},
        )

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _apply_remote_ops(self, ops: Sequence[OverhearOp]) -> None:
        if not ops:
            return
        owner = self._owner
        by_dst: dict[int, list[OverhearOp]] = defaultdict(list)
        for op in ops:
            by_dst[int(owner[op.target])].append(op)
        dirty = self._fan_out("apply_ops", {
            dst: (sorted(batch, key=lambda op: (op.event_index, op.target)),)
            for dst, batch in by_dst.items()
        })
        for stamps in dirty:
            self._note_dirty(stamps)

    def _execute_lockstep(self, event, index: int) -> EventOutcome:
        shard_id = int(self._owner[event.host_id])
        outcome = self._workers[shard_id].call("execute_event", event, index)
        self._note_dirty(outcome.dirty)
        self._apply_remote_ops(outcome.remote_ops)
        self._push_payloads()
        return outcome

    def _flush_batches(
        self, buffered: list[tuple[int, int, object]]
    ) -> list[tuple[int, object]]:
        """Run one epoch's buffered events on all shards concurrently."""
        if not buffered:
            return []
        by_shard: dict[int, list[tuple[int, object]]] = defaultdict(list)
        for shard_id, index, event in buffered:
            by_shard[shard_id].append((index, event))
        batches = self._fan_out(
            "execute_batch",
            {shard_id: (events,) for shard_id, events in by_shard.items()},
        )
        outcomes: list[EventOutcome] = [
            outcome for batch in batches for outcome in batch
        ]
        for outcome in outcomes:
            self._note_dirty(outcome.dirty)
        self._apply_remote_ops(
            [op for outcome in outcomes for op in outcome.remote_ops]
        )
        return [(o.event_index, o.record) for o in outcomes]

    # ------------------------------------------------------------------
    # Workload runs
    # ------------------------------------------------------------------
    def run_workload(
        self,
        kind: QueryKind,
        warmup_queries: int,
        measure_queries: int,
    ) -> MetricsCollector:
        """Run a Poisson query stream; record after the warm-up.

        Same contract as ``Simulation.run_workload``; in ``event``
        exchange mode the returned collector's records are bit-equal.
        """
        if warmup_queries < 0 or measure_queries < 1:
            raise ExperimentError("invalid warmup/measure query counts")
        return self._reaping(
            self._run_workload, kind, warmup_queries, measure_queries
        )

    def _run_workload(
        self, kind: QueryKind, warmup_queries: int, measure_queries: int
    ) -> MetricsCollector:
        workload = QueryWorkload(
            self.params, kind, self.rng, start_time=self._now
        )
        collector = MetricsCollector(registry=self.registry)
        total = warmup_queries + measure_queries
        lockstep = self.exchange == "event"
        records: list[tuple[int, object]] = []
        buffered: list[tuple[int, int, object]] = []
        for index, event in enumerate(
            event for _, event in zip(range(total), workload)
        ):
            if refresh_due(
                event.time, self._last_refresh, POSITION_REFRESH_INTERVAL
            ):
                records.extend(self._flush_batches(buffered))
                buffered = []
                self._refresh_epoch(event.time)
            if lockstep:
                outcome = self._execute_lockstep(event, index)
                records.append((index, outcome.record))
            else:
                buffered.append(
                    (int(self._owner[event.host_id]), index, event)
                )
            self._now = event.time
        records.extend(self._flush_batches(buffered))
        records.sort(key=lambda pair: pair[0])
        if len(records) != total:
            raise ExperimentError(
                f"lost records: expected {total}, got {len(records)}"
            )
        for index, record in records:
            if index >= warmup_queries:
                collector.add(record)
        self._mirror_traffic()
        return collector

    # ------------------------------------------------------------------
    # Introspection / merging
    # ------------------------------------------------------------------
    def traffic_totals(self) -> tuple[int, int, int]:
        """Fleet-wide (requests_sent, peers_heard, responses_received)."""
        return tuple(map(sum, zip(*self._ask_all("traffic_totals"))))

    def _mirror_traffic(self) -> None:
        if self.registry is None:
            return
        totals = self.traffic_totals()
        previous = self._traffic_mirrored
        names = ("p2p.requests_sent", "p2p.peers_heard", "p2p.responses_received")
        for name, now, before in zip(names, totals, previous):
            self.registry.counter(name).inc(now - before)
        self._traffic_mirrored = totals

    def share_states(self) -> dict[int, tuple[int, tuple, tuple]]:
        """Final cache fingerprint of every host (differential referee)."""
        merged: dict[int, tuple[int, tuple, tuple]] = {}
        for states in self._ask_all("share_states"):
            merged.update(states)
        return merged

    def owned_counts(self) -> list[int]:
        """Hosts per shard (diagnostics for balance checks)."""
        return np.bincount(self._owner, minlength=self.grid.n).tolist()
