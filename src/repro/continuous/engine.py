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

Re-evaluations run with ``accept_approximate=False``: a standing query
only ever resolves VERIFIED (peers prove the answer) or BROADCAST
(the channel completes it) — both exact — so monitored and naive modes
return the same answers tick for tick, which the oracle harness
(:mod:`repro.check.continuous`) referees bit-for-bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..broadcast import BatchMember, batch_scan, plan_knn, plan_window
from ..core import Resolution
from ..errors import ExperimentError
from ..geometry import Point, Rect
from ..index import brute_force_knn, brute_force_window
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


@dataclass(slots=True)
class _Pending:
    """A re-evaluation that must go to the channel this tick."""

    query: StandingQuery
    position: Point
    heading: tuple[float, float]
    outcome: object
    responses: list
    bucket_ids: tuple[int, ...]
    index_read_packets: int
    plan: object = None  # KnnPlan for kNN members
    window: Rect | None = None  # materialised window for window members
    bonus_regions: tuple[Rect, ...] = ()


class ContinuousMonitor:
    """Drives a set of standing queries over a simulation's world.

    ``use_safe_regions`` and ``batch_scans`` are the two levers the
    A/B benchmark toggles: both off is the naive per-tick
    recompute-from-scratch baseline, both on is the full incremental
    scheme.  Either way the per-tick answers are exact, so the two
    configurations are bit-identical in their answers and differ only
    in channel cost.
    """

    def __init__(
        self,
        sim,
        queries: list[StandingQuery],
        use_safe_regions: bool = True,
        batch_scans: bool = True,
        registry=None,
    ):
        if not queries:
            raise ExperimentError("continuous monitor needs standing queries")
        ids = [q.query_id for q in queries]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"duplicate standing query ids: {sorted(ids)}")
        self.sim = sim
        self.queries = list(queries)
        self.use_safe_regions = use_safe_regions
        self.batch_scans = batch_scans
        self.registry = registry if registry is not None else sim.registry
        self.stats = ContinuousStats()
        for query in self.queries:
            sim.hosts[query.host_id].standing[query.query_id] = query

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
        self.sim.hosts[query.host_id].standing[query.query_id] = query

    def remove_query(self, query_id: int) -> StandingQuery:
        """Deregister a standing query (e.g. its session disconnected)."""
        for i, query in enumerate(self.queries):
            if query.query_id == query_id:
                del self.queries[i]
                self.sim.hosts[query.host_id].standing.pop(query_id, None)
                return query
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
        pending: list[_Pending] = []
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
            self._run_scans(t, pending, answers)
            span.set(
                time=t,
                queries=len(self.queries),
                safe_hits=stats.safe_hits - hits_before,
                broadcast_members=len(pending),
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
        if not self.use_safe_regions or query.safe is None:
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
        pending: list[_Pending],
    ) -> None:
        """Full re-evaluation: share exchange, SBNN/SBWQ, maybe channel."""
        sim = self.sim
        host = sim.hosts[query.host_id]
        heading = sim.host_heading(query.host_id)
        responses, _ = sim._collect_responses(query.host_id, position, t)
        server = sim.station.server
        if query.kind is QueryKind.KNN:
            outcome = host.resolve_knn(
                position,
                query.template.k,
                responses,
                sim.poi_density,
                accept_approximate=False,
                min_correctness=sim.min_correctness,
            )
            if outcome.resolution is not Resolution.BROADCAST:
                entries, _ = host.settle_knn_peer(
                    position,
                    heading,
                    query.template.k,
                    outcome,
                    responses,
                    t,
                )
                answers[query.query_id] = tuple(e.poi for e in entries)
                self.stats.reeval_verified += 1
                self._count("continuous.reeval_verified")
                self._refresh_safe(query, host, position)
                return
            plan = plan_knn(
                server,
                position,
                query.template.k,
                upper_bound=outcome.bounds.upper,
                lower_bound=outcome.bounds.lower,
            )
            pending.append(
                _Pending(
                    query=query,
                    position=position,
                    heading=heading,
                    outcome=outcome,
                    responses=responses,
                    bucket_ids=plan.bucket_ids,
                    index_read_packets=plan.index_read_packets,
                    plan=plan,
                )
            )
        else:
            window = query.template.window_for(position, sim.params.bounds)
            outcome = host.resolve_window(window, responses)
            if outcome.resolution is Resolution.VERIFIED:
                verified = host.settle_window_peer(
                    position, heading, window, outcome, t
                )
                answers[query.query_id] = verified
                self.stats.reeval_verified += 1
                self._count("continuous.reeval_verified")
                self._refresh_safe(query, host, position)
                return
            bucket_ids, bonus_regions = plan_window(
                server, outcome.remainder_windows
            )
            pending.append(
                _Pending(
                    query=query,
                    position=position,
                    heading=heading,
                    outcome=outcome,
                    responses=responses,
                    bucket_ids=bucket_ids,
                    index_read_packets=server.index.tree_probe_packets,
                    window=window,
                    bonus_regions=bonus_regions,
                )
            )
        self.stats.reeval_broadcast += 1
        self._count("continuous.reeval_broadcast")

    # ------------------------------------------------------------------
    def _run_scans(
        self,
        t: float,
        pending: list[_Pending],
        answers: dict[int, tuple[POI, ...]],
    ) -> None:
        """Serve the tick's broadcast-bound members, batched or solo.

        In batched mode the whole tick is one shared scan; in naive
        mode each member pays its own — single-member batches reproduce
        the solo scan's bucket list, index read, and downloads exactly,
        so the member answers are identical either way.
        """
        if not pending:
            return
        sim = self.sim
        client = sim.station.client
        groups = [pending] if self.batch_scans else [[p] for p in pending]
        stats = self.stats
        for group in groups:
            members = [
                BatchMember(
                    member_id=p.query.query_id,
                    bucket_ids=p.bucket_ids,
                    index_read_packets=p.index_read_packets,
                )
                for p in group
            ]
            result = batch_scan(
                sim.station.server,
                sim.station.schedule,
                members,
                t,
                channel=client.channel,
                tracer=client.tracer,
            )
            stats.scans += 1
            stats.tuning_packets += result.cost.tuning_packets
            stats.buckets_downloaded += result.cost.buckets_downloaded
            stats.access_latency += result.cost.access_latency
            stats.batch_widths.append(result.width)
            self._count("continuous.scans")
            self._count(
                "continuous.tuning_packets", result.cost.tuning_packets
            )
            self._observe("continuous.batch_width", result.width)
            for p in group:
                self._finalize_member(
                    p, result.downloads[p.query.query_id], t, answers
                )

    def _finalize_member(
        self,
        p: _Pending,
        downloaded: tuple[POI, ...],
        t: float,
        answers: dict[int, tuple[POI, ...]],
    ) -> None:
        """Assemble one member's exact answer and settle its cache.

        Replays the tail of :func:`repro.broadcast.onair_knn` /
        :func:`onair_window` over the member's own download slice, then
        the corresponding cache-adoption branch of the one-shot host
        pipeline.
        """
        query = p.query
        host = self.sim.hosts[query.host_id]
        if query.kind is QueryKind.KNN:
            by_id = {poi.poi_id: poi for poi in downloaded}
            for poi in p.outcome.verified_pois:
                by_id.setdefault(poi.poi_id, poi)
            entries = brute_force_knn(
                by_id.values(), p.position, query.template.k
            )
            answers[query.query_id] = tuple(e.poi for e in entries)
            host.adopt_knn_download(
                p.position,
                p.heading,
                p.outcome,
                p.plan,
                downloaded,
                p.responses,
                t,
            )
        else:
            merged: dict[int, POI] = {
                poi.poi_id: poi for poi in p.outcome.verified_pois
            }
            hits: dict[int, POI] = {}
            for window in p.outcome.remainder_windows:
                for poi in brute_force_window(downloaded, window):
                    hits[poi.poi_id] = poi
            merged.update(
                (poi.poi_id, poi)
                for poi in sorted(hits.values(), key=lambda x: x.poi_id)
            )
            answers[query.query_id] = tuple(
                sorted(merged.values(), key=lambda x: x.poi_id)
            )
            host.adopt_window_download(
                p.position,
                p.heading,
                p.window,
                merged,
                p.bonus_regions,
                downloaded,
                t,
            )
        self._refresh_safe(query, host, p.position)

    # ------------------------------------------------------------------
    def _refresh_safe(self, query: StandingQuery, host, anchor: Point) -> None:
        """Re-derive the safe region after a full re-evaluation."""
        if not self.use_safe_regions:
            query.safe = None
            return
        k = query.template.k if query.kind is QueryKind.KNN else None
        query.safe = derive_safe_region(host.cache, anchor, k=k)

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.histogram(
                name, bounds=BATCH_WIDTH_BUCKETS
            ).observe(value)
