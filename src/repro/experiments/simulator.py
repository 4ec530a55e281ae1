"""The end-to-end simulation harness (Section 4.1's system model).

One :class:`Simulation` wires together the whole stack for a single
parameter set: POI field, base station (broadcast server + schedule),
mobility fleet, peer network, and one cooperative cache per host.
Queries arrive as one time-ordered Poisson stream; the world clock is
the time of the last event, and each query runs the host pipeline of
:mod:`repro.experiments.host`.

Positions are refreshed in vectorised batches every
``POSITION_REFRESH_INTERVAL`` simulated seconds: random-waypoint legs
last minutes, so a ≤10 s-stale snapshot changes nothing measurable and
keeps 10^4–10^5 hosts affordable.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from ..cache import ReplacementPolicy
from ..errors import ExperimentError
from ..faults import ChannelModel, FaultConfig, P2PFaultStats
from ..geometry import Point
from ..model import POI
from ..p2p import ShareRequest, ShareResponse
from ..workloads import ParameterSet, QueryEvent, QueryKind, QueryWorkload
from .host import HostQueryResult
from .metrics import MetricsCollector
from .world import P2P_LATENCY, QueryWorld, draw_world

POSITION_REFRESH_INTERVAL = 10.0

# Position refreshes quantise simulated time into epochs of
# ``POSITION_REFRESH_INTERVAL``.  Event times are accumulated float
# sums, so an event nominally *on* an epoch boundary can arrive a few
# ulps early; without an explicit epsilon the staleness test
# ``t - last >= interval`` would then defer the refresh and two
# observers of the "same" boundary instant could see positions from
# different refresh epochs.  The epsilon makes the boundary rule
# explicit: anything within REFRESH_EPSILON of the interval is due.
REFRESH_EPSILON = 1e-9


def refresh_due(t: float, last_refresh: float, interval: float) -> bool:
    """True when a snapshot taken at ``last_refresh`` is stale at ``t``.

    Shared by :class:`Simulation` and the sharded coordinator
    (:mod:`repro.shard`) so both quantise time into the *identical*
    refresh epochs — the determinism contract requires shard ticks and
    single-process refreshes to agree on every boundary.
    """
    return t - last_refresh >= interval - REFRESH_EPSILON


class Clock:
    """The world clock: ``now`` is the simulated time of the last event."""

    now = 0.0


class Simulation(QueryWorld):
    """A fully wired simulated world for one parameter set."""

    def __init__(
        self,
        params: ParameterSet,
        seed: int = 0,
        policy_factory: Callable[[], ReplacementPolicy] | None = None,
        accept_approximate: bool = True,
        min_correctness: float = 0.5,
        overhear: bool = True,
        p2p_hops: int = 1,
        enable_sharing: bool = True,
        pois: Sequence[POI] | None = None,
        fault_config: FaultConfig | None = None,
        tracer=None,
        registry=None,
    ):
        self.rng, pois, self.fleet = draw_world(params, seed, pois)
        super().__init__(
            params,
            pois,
            accept_approximate=accept_approximate,
            min_correctness=min_correctness,
            overhear=overhear,
            p2p_hops=p2p_hops,
            enable_sharing=enable_sharing,
            policy_factory=policy_factory,
        )
        # Observability is strictly opt-in too: without a tracer the
        # shared no-op tracer is used (no spans, no allocations) and
        # without a registry no metrics are mirrored — tracing never
        # touches an RNG, so traced and untraced runs stay
        # bit-identical in every recorded metric.
        if tracer is not None:
            self.tracer = tracer
        self.registry = registry
        # The fault layer is strictly opt-in: without an enabled
        # config no ChannelModel exists, no fault RNG is ever drawn,
        # and every run is bit-identical to a perfect-channel one.
        self.fault_config = fault_config
        self.faults = (
            ChannelModel(fault_config, tx_range=params.tx_range_mi)
            if fault_config is not None and fault_config.enabled
            else None
        )
        if self.faults is not None and fault_config.broadcast_enabled:
            self.station.client.channel = self.faults
        if registry is not None:
            self.network.attach_registry(registry)
        self.hosts = [self._make_host(i) for i in range(params.mh_number)]
        self.env = Clock()
        self._last_refresh = -math.inf
        self._refresh_positions(0.0)
        self._tenure()

    # ------------------------------------------------------------------
    # World state
    # ------------------------------------------------------------------
    def _refresh_positions(self, t: float) -> None:
        self.fleet.advance_to(t)
        self._install_snapshot(*self.fleet.positions(), *self.fleet.headings())
        self._last_refresh = t

    def _maybe_refresh(self, t: float) -> None:
        if refresh_due(t, self._last_refresh, POSITION_REFRESH_INTERVAL):
            self._refresh_positions(t)

    @property
    def poi_density(self) -> float:
        return self.params.poi_density

    def _responder(self, gid: int):
        return self.hosts[gid]

    _owned = _responder

    def _owned_hosts(self):
        return self.hosts

    # ------------------------------------------------------------------
    # Query pipeline
    # ------------------------------------------------------------------
    def _collect_responses(
        self, host_id: int, position: Point, ring: np.ndarray, now: float
    ) -> tuple[list[ShareResponse], P2PFaultStats]:
        """One share exchange: the responses plus what faults did to it.

        Over an unreliable channel, with retry/backoff: per peer and
        attempt, the request leg and the response leg can each be lost
        (distance-dependent when configured), a churned peer never
        answers at all, and a response sampled past the deadline is
        discarded.  Unheard peers are retried — every retry round is
        one more request on the air, one more round trip of latency,
        and one backoff wait.  Only peers that actually answer count
        as responses.  Without p2p faults this is the perfect-channel
        exchange, which draws from no RNG.
        """
        if not (
            self.enable_sharing
            and self.faults is not None
            and self.fault_config.p2p_enabled
        ):
            return super()._collect_responses(host_id, position, ring, now)
        peer_ids = self._peer_ids(host_id, ring)
        channel = self.faults
        cfg = self.fault_config
        request = ShareRequest(requester_id=host_id, issued_at=now)
        own = self.hosts[host_id].share_response()
        responses = [own] if own is not None else []
        drops = retries = misses = 0
        extra_latency = 0.0
        pending: list[int] = []
        for pid in peer_ids:
            if channel.peer_departed():
                drops += 1
            else:
                pending.append(int(pid))
        received = 0
        attempt = 0
        while pending:
            if attempt > 0:
                retries += 1
                self.network.record_requests(1)
                extra_latency += (
                    P2P_LATENCY * self.p2p_hops
                    + channel.backoff_delay(attempt)
                )
            still_pending: list[int] = []
            for pid in pending:
                peer = self.host_position(pid)
                distance = math.hypot(peer.x - position.x, peer.y - position.y)
                # Request and response legs fail independently; a lost
                # request means the peer never transmits a reply.
                if channel.link_lost(distance) or channel.link_lost(distance):
                    drops += 1
                    still_pending.append(pid)
                    continue
                if channel.has_deadline and (
                    channel.response_arrival(request.issued_at)
                    > request.deadline(cfg.peer_timeout)
                ):
                    misses += 1
                    still_pending.append(pid)
                    continue
                response = self.hosts[pid].share_response(request)
                if response is not None:
                    responses.append(response)
                    received += 1
            pending = still_pending
            attempt += 1
            if attempt > cfg.retries:
                break
        self.network.record_responses(received)
        return responses, P2PFaultStats(
            drops=drops,
            retries=retries,
            deadline_misses=misses,
            extra_latency=extra_latency,
        )

    def execute_query(self, event: QueryEvent) -> HostQueryResult:
        """Run one query event through the full pipeline
        (:meth:`~repro.experiments.world.QueryWorld._execute`)."""
        self._maybe_refresh(event.time)
        return self._execute(event)[0]

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

        The warm-up fills the fleet's caches toward steady state
        (Section 4.1: "all simulation results were recorded after the
        system model reached steady state").
        """
        if warmup_queries < 0 or measure_queries < 1:
            raise ExperimentError("invalid warmup/measure query counts")
        workload = QueryWorkload(
            self.params, kind, self.rng, start_time=self.env.now
        )
        collector = MetricsCollector(registry=self.registry)
        total = warmup_queries + measure_queries
        for done, event in enumerate(islice(workload, total)):
            self.env.now = event.time
            result = self.execute_query(event)
            if done >= warmup_queries:
                collector.add(result.record)
        return collector

    def run_continuous(
        self,
        kind: QueryKind,
        standing: int = 100,
        ticks: int = 30,
        tick_interval: float = 5.0,
        naive: bool = False,
        warmup_queries: int = 0,
        workload_seed: int = 0,
    ):
        """Run a continuous-monitoring workload; returns the monitor.

        ``standing`` queries (templates drawn from the Table 3
        distributions with a *dedicated* RNG, so two simulations with
        the same seeds monitor the identical query set without
        perturbing the world stream) are re-evaluated every
        ``tick_interval`` simulated seconds for ``ticks`` ticks.
        ``naive`` runs the recompute-per-tick referee (no safe regions,
        one scan per query) the A/B benchmark compares against; an
        optional one-shot ``warmup_queries`` stream primes the fleet's
        caches first.
        """
        from ..continuous import ContinuousMonitor, standing_queries

        if ticks < 1 or tick_interval <= 0:
            raise ExperimentError("invalid ticks/tick_interval")
        if warmup_queries:
            self.run_workload(kind, 0, warmup_queries)
        workload_rng = np.random.default_rng((workload_seed, 0xC017))
        queries = standing_queries(self.params, kind, workload_rng, standing)
        monitor = ContinuousMonitor(
            self,
            queries,
            naive=naive,
            registry=self.registry,
        )
        start = self.env.now
        for i in range(ticks):
            monitor.tick(start + (i + 1) * tick_interval)
        return monitor

    # ------------------------------------------------------------------
    # One-shot public API (used by the examples and quick_world)
    # ------------------------------------------------------------------
    def run_knn_query(
        self, host_id: int | None = None, k: int | None = None, now: float | None = None
    ) -> HostQueryResult:
        """Fire a single kNN query from a (random) host right now."""
        if host_id is None:
            host_id = int(self.rng.integers(self.params.mh_number))
        event = QueryEvent(
            time=self.env.now if now is None else now,
            host_id=host_id,
            kind=QueryKind.KNN,
            k=k if k is not None else self.params.knn_k,
        )
        return self.execute_query(event)

    def run_window_query(
        self,
        host_id: int | None = None,
        window_area: float | None = None,
        now: float | None = None,
    ) -> HostQueryResult:
        """Fire a single window query from a (random) host right now."""
        if host_id is None:
            host_id = int(self.rng.integers(self.params.mh_number))
        event = QueryEvent(
            time=self.env.now if now is None else now,
            host_id=host_id,
            kind=QueryKind.WINDOW,
            window_area=(
                window_area
                if window_area is not None
                else self.params.window_area_mi2
            ),
            center_offset=(0.0, 0.0),
        )
        return self.execute_query(event)
