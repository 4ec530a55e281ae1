"""The continuous-monitoring engine: standing queries over ticks.

A *standing query* is a kNN or window query a host keeps alive while
it moves; the engine re-evaluates every standing query once per tick.
Two cost levers turn a per-tick recompute-from-scratch into the
incremental scheme this module exists for:

* **safe regions** (:mod:`repro.continuous.safe_region`) — after each
  full re-evaluation the host freezes a :class:`SafeRegion` from its
  cache's verified regions; while the safe test holds on later ticks
  the answer is recomputed *locally* from the frozen snapshot, with no
  share exchange and no channel time, and is provably identical to a
  full re-evaluation;
* **batch scans** (:mod:`repro.broadcast.batch`) — the re-evaluations
  a tick does push to the channel land in the same broadcast cycle, so
  their second-scan segments are merged into one shared retrieval;
  each member's answer is assembled from its own plan's buckets and is
  bit-identical to a solo scan.

A full re-evaluation is the one-shot query pipeline itself — the
world's share exchange, then the host's ``knn_steps`` /
``window_steps`` generator — with the tick supplying the scan: a
one-shot query scans alone, a tick's waiting members share one.
Re-evaluations run with ``accept_approximate=False``: a standing query
only ever resolves VERIFIED (peers prove the answer) or BROADCAST
(the channel completes it) — both exact — so monitored and naive modes
return the same answers tick for tick, which the oracle harness
(:mod:`repro.check.continuous`) referees bit-for-bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..broadcast import (
    BatchMember,
    answer_knn,
    answer_window,
    batch_scan,
    plan_knn,
    plan_window,
)
from ..core import Resolution
from ..errors import ExperimentError
from ..experiments.world import P2P_LATENCY
from ..geometry import Point
from ..model import POI
from ..obs import BATCH_WIDTH_BUCKETS
from ..workloads import ParameterSet, QueryEvent, QueryKind, QueryWorkload
from .safe_region import SafeRegion, derive_safe_region


@dataclass(slots=True)
class StandingQuery:
    """One continuous query: an immutable template plus live state.

    ``template`` fixes who asks what (host, kind, ``k`` or window
    geometry); ``safe`` is the current safe-region certificate (``None``
    forces a full re-evaluation) and ``answer`` the latest result.
    """

    query_id: int
    template: QueryEvent
    safe: SafeRegion | None = None
    answer: tuple[POI, ...] = ()

    @property
    def host_id(self) -> int:
        return self.template.host_id

    @property
    def kind(self) -> QueryKind:
        return self.template.kind


def standing_queries(
    params: ParameterSet,
    kind: QueryKind,
    rng: np.random.Generator,
    count: int,
) -> list[StandingQuery]:
    """Draw ``count`` standing queries from the Table 3 distributions.

    The templates reuse :class:`QueryWorkload`'s per-query draws (host
    choice, ``k``, window area and centre offset); the Poisson arrival
    times are irrelevant for standing queries and ignored.
    """
    if count < 1:
        raise ExperimentError(f"need at least one standing query, got {count}")
    workload = QueryWorkload(params, kind, rng)
    return [
        StandingQuery(query_id=i, template=event)
        for i, event in enumerate(itertools.islice(workload, count))
    ]


@dataclass(slots=True)
class ContinuousStats:
    """Tick-loop accounting for one monitored run."""

    ticks: int = 0
    evaluations: int = 0
    safe_hits: int = 0
    safe_misses: int = 0
    reeval_verified: int = 0
    reeval_broadcast: int = 0
    scans: int = 0
    tuning_packets: int = 0
    buckets_downloaded: int = 0
    access_latency: float = 0.0
    batch_widths: list[int] = field(default_factory=list)

    @property
    def safe_hit_rate(self) -> float:
        return self.safe_hits / self.evaluations if self.evaluations else 0.0

    @property
    def mean_batch_width(self) -> float:
        widths = self.batch_widths
        return sum(widths) / len(widths) if widths else 0.0


class ContinuousMonitor:
    """Drives a set of standing queries over a simulation's world.

    ``naive`` is the A/B referee: no safe regions and a solo scan per
    broadcast-bound query, the per-tick recompute-from-scratch
    baseline of the full incremental scheme.  Either way the per-tick
    answers are exact, so the two configurations are bit-identical in
    their answers and differ only in channel cost.
    """

    def __init__(
        self,
        sim,
        queries: list[StandingQuery],
        naive: bool = False,
        registry=None,
    ):
        if not queries:
            raise ExperimentError("continuous monitor needs standing queries")
        ids = [q.query_id for q in queries]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"duplicate standing query ids: {sorted(ids)}")
        self.sim = sim
        self.queries = list(queries)
        self.naive = naive
        self.registry = registry if registry is not None else sim.registry
        self.stats = ContinuousStats()

    # ------------------------------------------------------------------
    def add_query(self, query: StandingQuery) -> None:
        """Register a standing query on a live monitor.

        The serving layer registers queries as sessions arrive instead
        of handing the monitor a fixed set up front; the query joins
        the next tick.
        """
        if any(q.query_id == query.query_id for q in self.queries):
            raise ExperimentError(
                f"duplicate standing query id {query.query_id}"
            )
        self.queries.append(query)

    def remove_query(self, query_id: int) -> StandingQuery:
        """Deregister a standing query (e.g. its session disconnected)."""
        for i, query in enumerate(self.queries):
            if query.query_id == query_id:
                return self.queries.pop(i)
        raise ExperimentError(f"unknown standing query id {query_id}")

    # ------------------------------------------------------------------
    def tick(self, t: float) -> dict[int, tuple[POI, ...]]:
        """Re-evaluate every standing query at time ``t``.

        Returns ``{query_id: answer POIs}`` for the tick.  Positions
        are force-refreshed first so every configuration of the engine
        sees the identical fleet snapshot at ``t``.
        """
        sim = self.sim
        stats = self.stats
        sim._refresh_positions(t)
        stats.ticks += 1
        answers: dict[int, tuple[POI, ...]] = {}
        pending: list[tuple] = []
        hits_before = stats.safe_hits
        with sim.tracer.span("continuous.tick") as span:
            for query in self.queries:
                stats.evaluations += 1
                position = sim.host_position(query.host_id)
                if self._try_safe(query, position, answers):
                    stats.safe_hits += 1
                    self._count("continuous.safe_hit")
                    continue
                stats.safe_misses += 1
                self._count("continuous.safe_miss")
                self._reevaluate(query, position, t, answers, pending)
            channel_s = self._run_scans(t, pending, answers)
            span.set(
                time=t,
                queries=len(self.queries),
                safe_hits=stats.safe_hits - hits_before,
                broadcast_members=len(pending),
                access_latency=channel_s,
            )
        for query in self.queries:
            query.answer = answers[query.query_id]
        return answers

    # ------------------------------------------------------------------
    def _try_safe(
        self,
        query: StandingQuery,
        position: Point,
        answers: dict[int, tuple[POI, ...]],
    ) -> bool:
        """Answer locally from the safe-region snapshot when provably safe."""
        if self.naive or query.safe is None:
            return False
        safe = query.safe
        if query.kind is QueryKind.KNN:
            if not safe.knn_safe(position):
                return False
            entries = safe.knn_answer(position, query.template.k)
            answers[query.query_id] = tuple(e.poi for e in entries)
            return True
        window = query.template.window_for(position, self.sim.params.bounds)
        if not safe.window_safe(window):
            return False
        answers[query.query_id] = safe.window_answer(window)
        return True

    def _reevaluate(
        self,
        query: StandingQuery,
        position: Point,
        t: float,
        answers: dict[int, tuple[POI, ...]],
        pending: list[tuple],
    ) -> None:
        """Start the world's query pipeline for one standing query.

        The share exchange and the host pipeline are the ones a
        one-shot query at ``position`` and ``t`` runs, exact answers
        only.  A pipeline the peers finish settles here; one that
        needs the channel is left suspended, with its plan and the
        answer step its download will go through, for the tick's scan.
        """
        sim = self.sim
        host = sim.hosts[query.host_id]
        heading = sim.host_heading(query.host_id)
        k = query.template.k
        responses, fault_stats = sim._collect_responses(
            query.host_id,
            position,
            sim.network.peers_of(query.host_id, position),
            t,
        )
        knobs = dict(
            p2p_latency=P2P_LATENCY * sim.p2p_hops,
            fault_stats=fault_stats,
            tracer=sim.tracer,
        )
        if query.kind is QueryKind.KNN:
            steps = host.knn_steps(
                position,
                heading,
                k,
                responses,
                sim.poi_density,
                t,
                accept_approximate=False,
                min_correctness=sim.min_correctness,
                **knobs,
            )
        else:
            window = query.template.window_for(position, sim.params.bounds)
            steps = host.window_steps(
                position, heading, window, responses, t, **knobs
            )
        try:
            outcome = next(steps)
        except StopIteration as done:
            self._settle(query, position, done.value, answers)
            return
        server = sim.station.server
        if query.kind is QueryKind.KNN:
            plan = plan_knn(
                server, position, k, outcome.bounds.upper, outcome.bounds.lower
            )
            bucket_ids, index_read = plan.bucket_ids, plan.index_read_packets
            answer = partial(
                answer_knn, plan, position, k, outcome.verified_pois
            )
        else:
            windows = outcome.remainder_windows
            bucket_ids, bonus_regions = plan_window(server, windows)
            index_read = server.index.tree_probe_packets
            answer = partial(answer_window, windows, bucket_ids, bonus_regions)
        member = BatchMember(query.query_id, bucket_ids, index_read)
        pending.append((member, answer, steps, query, position))

    def _run_scans(
        self,
        t: float,
        pending: list[tuple],
        answers: dict[int, tuple[POI, ...]],
    ) -> float:
        """Serve the tick's broadcast-bound pipelines, batched or solo.

        In batched mode the whole tick is one shared scan; in naive
        mode each member pays its own.  Each pipeline resumes with the
        answer made from its own slice of the download, so its result
        is the same either way.  Returns the tick's channel time.
        """
        if not pending:
            return 0.0
        client = self.sim.station.client
        stats = self.stats
        channel_s = 0.0
        groups = [[p] for p in pending] if self.naive else [pending]
        for group in groups:
            scan = batch_scan(
                client.server,
                client.schedule,
                [member for member, *_ in group],
                t,
                channel=client.channel,
                tracer=self.sim.tracer,
            )
            cost = scan.cost
            channel_s += cost.access_latency
            stats.scans += 1
            stats.tuning_packets += cost.tuning_packets
            stats.buckets_downloaded += cost.buckets_downloaded
            stats.access_latency += cost.access_latency
            stats.batch_widths.append(scan.width)
            self._count("continuous.scans")
            self._count("continuous.tuning_packets", cost.tuning_packets)
            self._observe("continuous.batch_width", scan.width)
            for member, answer, steps, query, position in group:
                try:
                    steps.send(answer(scan.downloads[member.member_id], cost))
                except StopIteration as done:
                    self._settle(query, position, done.value, answers)
        return channel_s

    def _settle(
        self,
        query: StandingQuery,
        position: Point,
        result,
        answers: dict[int, tuple[POI, ...]],
    ) -> None:
        """Book a finished pipeline: its answer, then a new safe region."""
        answers[query.query_id] = result.answers
        if result.record.resolution is Resolution.BROADCAST:
            self.stats.reeval_broadcast += 1
            self._count("continuous.reeval_broadcast")
        else:
            self.stats.reeval_verified += 1
            self._count("continuous.reeval_verified")
        query.safe = None
        if not self.naive:
            query.safe = derive_safe_region(
                self.sim.hosts[query.host_id].cache,
                position,
                k=query.template.k if query.kind is QueryKind.KNN else None,
            )

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.histogram(
                name, bounds=BATCH_WIDTH_BUCKETS
            ).observe(value)
