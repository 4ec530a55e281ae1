"""The mobile-host module: per-query pipeline of Sections 3.3 and 3.4.

A :class:`MobileHost` owns a cooperative cache and executes queries:

1. collect share responses (its own cache counts as a response — a
   host always consults what it already holds);
2. run SBNN / SBWQ over them;
3. fall back to the (filtered) on-air algorithms when peers cannot
   finish the job;
4. update the cache — including *gossip* caching: a peer-resolved kNN
   still certifies a disc around the query point, and the host keeps
   the inscribed square as a new verified region, which is how shared
   knowledge propagates through the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..broadcast import OnAirClient, OnAirWindowResult, RetrievalCost
from ..cache import POICache, SharedResult
from ..check import invariants
from ..core import MVRMemo, Resolution, sbnn, sbwq
from ..core.heap import HeapEntry
from ..core.nnv import PeerRead
from ..faults import P2PFaultStats
from ..geometry import Circle, Point, Rect
from ..model import DEFAULT_CATEGORY, POI
from ..obs import NO_TRACER
from ..p2p import ShareRequest, ShareResponse
from ..workloads import QueryKind
from .metrics import QueryRecord

NO_FAULTS = P2PFaultStats()
# What a query the peers resolved took from the channel: nothing, free.
NO_SCAN = OnAirWindowResult(
    pois=(),
    cost=RetrievalCost(
        access_latency=0.0, tuning_packets=0, finish_time=0.0, buckets_downloaded=0
    ),
    bucket_ids=(),
    downloaded=(),
)

# Every host merges through this one stateless instance: the merged
# MVR belongs to the query that asked for it, not to the host.
MVR = MVRMemo()


SharedRegion = tuple[Rect, tuple[POI, ...]]


@dataclass(frozen=True, slots=True)
class HostQueryResult:
    """What a host hands back to the harness after one query.

    ``shared`` lists the certified (region, POIs) pairs the querier
    cached; neighbours that overheard the exchange can adopt the same
    regions (cooperative caching of result sets, after [5]).
    """

    record: QueryRecord
    answers: tuple[POI, ...]
    heap_entries: tuple[HeapEntry, ...] = ()
    shared: tuple[SharedRegion, ...] = ()


class HaloHost:
    """A read-only mirror of a host owned by a neighbouring shard.

    Holds the owner's exported :class:`~repro.p2p.ShareResponse` — the
    very thing the owner would answer a share request with — so a
    query on this shard collects the mirrored host's contribution
    exactly as the single-process simulator would collect the real
    host's.  Mirrors never mutate: overheard results destined for the
    real host are routed to its owner shard instead.
    """

    __slots__ = ("response",)

    def __init__(self, response: ShareResponse):
        self.response = response

    def share_response(self) -> ShareResponse | None:
        """Answer exactly as the mirrored host would (``None`` if empty)."""
        response = self.response
        return None if response.is_empty else response


class MobileHost:
    """One vehicle: an id plus its cooperative cache."""

    __slots__ = ("host_id", "cache")

    def __init__(self, host_id: int, cache: POICache):
        self.host_id = host_id
        self.cache = cache

    # ------------------------------------------------------------------
    def share_response(
        self, request: ShareRequest | None = None
    ) -> ShareResponse | None:
        """Answer a peer's share request; ``None`` when nothing cached.

        A host only answers requests for the category it caches (this
        deployment is single-category).  The response is immutable and
        stamped with the cache's content generation, so it is built
        once per generation and kept in ``cache.response``, which the
        cache clears when its generation next moves; its POI columns
        are copied from the cache's mirror.
        """
        if request is not None and request.category != DEFAULT_CATEGORY:
            return None
        cache = self.cache
        response = cache.response
        if response is None:
            generation, regions, pois = cache.frozen_snapshot()
            if not regions and not pois:
                return None
            response = cache.response = ShareResponse(
                self.host_id,
                regions,
                pois,
                generation,
                _poi_arrays=cache.poi_columns(),
            )
        return response

    # -- the two query pipelines, each written once ---------------------
    # A pipeline is a generator: peers first (Algorithms 2-3); if they
    # cannot finish the job it yields the outcome that says what is
    # missing and is sent the channel's result for it.  *How* the scan
    # runs is the driver's business: execute_knn / execute_window scan
    # alone and at once, a ContinuousMonitor tick shares one scan among
    # every pipeline it has waiting.  Either way the cache ends up
    # bit-identical for the same query at the same place and time.

    def knn_steps(
        self,
        position: Point,
        heading: tuple[float, float],
        k: int,
        responses: Sequence[ShareResponse],
        poi_density: float,
        now: float,
        p2p_latency: float = 0.05,
        accept_approximate: bool = True,
        min_correctness: float = 0.5,
        fault_stats: P2PFaultStats | None = None,
        tracer=None,
    ):
        """The SBNN pipeline for one kNN query (Algorithm 2).

        Yields the :class:`~repro.core.SBNNOutcome` when the query must
        go on air — its bounds and verified POIs filter the retrieval —
        and is sent the :class:`~repro.broadcast.OnAirKnnResult`;
        returns the :class:`HostQueryResult`.  ``fault_stats`` is what
        the unreliable channel did to the share exchange (drops,
        retries, deadline misses); its extra latency is charged to the
        query and its counters stamped on the record.  ``tracer`` (a
        :class:`repro.obs.Tracer`) adds the core spans, and with them
        the Lemma 3.2 annotations that explain the peers' answer.
        """
        outcome = sbnn(
            position,
            responses,
            k,
            poi_density,
            accept_approximate=accept_approximate,
            min_correctness=min_correctness,
            mvr=MVR.merged(responses),
            tracer=tracer if tracer is not None and tracer.enabled else None,
        )
        if outcome.resolution is not Resolution.BROADCAST:
            # Gossip the verified disc first, then touch the answers.
            gossiped = self._gossip_cache(
                position, heading, outcome.read, now, tracer
            )
            entries = tuple(outcome.heap.results()[:k])
            self.cache.touch((e.poi.poi_id for e in entries), now)
            return self._result(
                QueryKind.KNN,
                outcome.resolution,
                now,
                responses,
                p2p_latency,
                fault_stats,
                tuple(e.poi for e in entries),
                gossiped,
                heap_entries=entries,
                k=k,
            )
        scan = yield outcome
        covered = scan.plan.search_mbr
        complete = {poi.poi_id: poi for poi in scan.downloaded}
        complete.update(
            {poi.poi_id: poi for poi in outcome.read.pois_within(covered)}
        )
        cx1, cy1, cx2, cy2 = covered.x1, covered.y1, covered.x2, covered.y2
        cached_pois = tuple(
            [
                poi
                for poi in complete.values()
                if cx1 <= poi.location.x <= cx2
                and cy1 <= poi.location.y <= cy2
            ]
        )
        return self._result(
            QueryKind.KNN,
            Resolution.BROADCAST,
            now,
            responses,
            p2p_latency,
            fault_stats,
            tuple(e.poi for e in scan.results),
            self._adopt(
                (covered, cached_pois),
                scan.plan.bonus_regions,
                scan.downloaded,
                now,
                position,
                heading,
                tracer,
            ),
            scan.cost,
            k=k,
        )

    def window_steps(
        self,
        position: Point,
        heading: tuple[float, float],
        window: Rect,
        responses: Sequence[ShareResponse],
        now: float,
        p2p_latency: float = 0.05,
        fault_stats: P2PFaultStats | None = None,
        tracer=None,
    ):
        """The SBWQ pipeline for one window query (Algorithm 3).

        Yields the :class:`~repro.core.SBWQOutcome` when part of the
        window is left for the channel and is sent the
        :class:`~repro.broadcast.OnAirWindowResult` for its remainder
        windows; returns the :class:`HostQueryResult`.
        """
        with (tracer or NO_TRACER).span("core.sbwq") as span:
            outcome = self.resolve_window(window, responses)
            span.set(
                responses=len(responses),
                verified_pois=len(outcome.verified_pois),
                remainder_windows=len(outcome.remainder_windows),
                covered_fraction_missing=outcome.covered_fraction_missing,
            )
        answers = outcome.verified_pois
        scan = NO_SCAN
        if outcome.resolution is Resolution.VERIFIED:
            self.cache.touch((p.poi_id for p in answers), now)
        else:
            # Verified peers cover w ∩ MVR, the channel covered w − MVR:
            # together the whole window is certified.
            scan = yield outcome
            merged = {poi.poi_id: poi for poi in answers}
            merged.update({poi.poi_id: poi for poi in scan.pois})
            answers = tuple(sorted(merged.values(), key=lambda p: p.poi_id))
        return self._result(
            QueryKind.WINDOW,
            outcome.resolution,
            now,
            responses,
            p2p_latency,
            fault_stats,
            answers,
            self._adopt(
                (window, answers),
                scan.bonus_regions,
                scan.downloaded,
                now,
                position,
                heading,
                tracer,
            ),
            scan.cost,
            window_area=window.area,
            covered_fraction_missing=outcome.covered_fraction_missing,
        )

    # -- the one-shot driver: a solo scan, at once -----------------------
    def execute_knn(
        self,
        position: Point,
        heading: tuple[float, float],
        k: int,
        responses: Sequence[ShareResponse],
        onair: OnAirClient,
        poi_density: float,
        now: float,
        tracer=None,
        **knobs,
    ) -> HostQueryResult:
        """One kNN query start to finish (``knobs`` as :meth:`knn_steps`)."""
        steps = self.knn_steps(
            position, heading, k, responses, poi_density, now,
            tracer=tracer, **knobs,
        )
        try:
            outcome = next(steps)
            steps.send(
                onair.knn(
                    position,
                    k,
                    t_query=now,
                    upper_bound=outcome.bounds.upper,
                    lower_bound=outcome.bounds.lower,
                    known_pois=outcome.verified_pois,
                    tracer=tracer,
                )
            )
        except StopIteration as done:
            return done.value

    def execute_window(
        self,
        position: Point,
        heading: tuple[float, float],
        window: Rect,
        responses: Sequence[ShareResponse],
        onair: OnAirClient,
        now: float,
        tracer=None,
        **knobs,
    ) -> HostQueryResult:
        """One window query start to finish (``knobs`` as :meth:`window_steps`)."""
        steps = self.window_steps(
            position, heading, window, responses, now, tracer=tracer, **knobs
        )
        try:
            outcome = next(steps)
            steps.send(onair.window(outcome.remainder_windows, now, tracer))
        except StopIteration as done:
            return done.value

    # -- steps both pipelines share --------------------------------------
    def resolve_window(self, window: Rect, responses: Sequence[ShareResponse]):
        """Run SBWQ over the merged verified region of ``responses``."""
        mvr = MVR.merged(responses)
        if invariants.check_enabled():
            invariants.check_union(mvr, window.center, window)
        return sbwq(window, responses, mvr=mvr)

    def _gossip_cache(
        self,
        position: Point,
        heading: tuple[float, float],
        read: PeerRead,
        now: float,
        tracer,
    ) -> SharedResult | tuple[()]:
        """Keep the verified disc around a peer-resolved query.

        The largest inscribed axis-aligned square of the verified disc
        ``C(q, ||q, e_s||)`` lies inside the MVR, where the responses
        are collectively complete, so it is a sound verified region.
        Its radius is the ``d*`` NNV already read (``-inf`` outside the
        MVR) and its POIs come from NNV's masked columns.  Returns what
        was cached (a one-pair result, or nothing) so neighbours can
        adopt it.
        """
        radius = read.boundary_distance
        if invariants.check_enabled():
            invariants.check_boundary_distance(read.mvr, position, radius)
        if radius <= 0.0:
            return ()
        region = Circle(position, radius).inscribed_rect()
        pois = tuple(read.pois_within(region))
        return self._adopt(
            (region, pois), (), (), now, position, heading, tracer
        )

    def _adopt(
        self,
        certified: SharedRegion,
        bonus_regions: Sequence[SharedRegion],
        downloaded: Sequence[POI],
        now: float,
        position: Point,
        heading: tuple[float, float],
        tracer,
    ) -> SharedResult:
        """Cache what a query certified; returns it for the neighbours.

        Everything a segment download certifies beyond the query itself
        (the server's aligned-block pairs in ``bonus_regions``) is
        cacheable too — "store as many received POIs as the cache
        capacity allows".  The whole result enters the cache in one
        call.
        """
        if invariants.check_enabled():
            invariants.check_served_blocks(bonus_regions, downloaded)
        shared = SharedResult((certified, *bonus_regions))
        self.cache.insert_result(shared, now, position, heading, tracer)
        return shared

    def _result(
        self,
        kind: QueryKind,
        resolution: Resolution,
        now: float,
        responses: Sequence[ShareResponse],
        p2p_latency: float,
        fault_stats: P2PFaultStats | None,
        answers: tuple[POI, ...],
        shared: tuple[SharedRegion, ...],
        cost: RetrievalCost = NO_SCAN.cost,
        heap_entries: tuple[HeapEntry, ...] = (),
        **query_fields,
    ) -> HostQueryResult:
        """The one place a query's record is written."""
        faults = fault_stats if fault_stats is not None else NO_FAULTS
        peer_count = sum(1 for r in responses if r.peer_id != self.host_id)
        return HostQueryResult(
            record=QueryRecord(
                time=now,
                host_id=self.host_id,
                kind=kind,
                resolution=resolution,
                access_latency=(p2p_latency if peer_count else 0.0)
                + faults.extra_latency
                + cost.access_latency,
                tuning_packets=cost.tuning_packets,
                buckets_downloaded=cost.buckets_downloaded,
                peer_count=peer_count,
                result_size=len(answers),
                p2p_drops=faults.drops,
                p2p_retries=faults.retries,
                p2p_deadline_misses=faults.deadline_misses,
                recovery_retunes=cost.retunes,
                buckets_lost=cost.buckets_lost,
                **query_fields,
            ),
            answers=answers,
            heap_entries=heap_entries,
            shared=shared,
        )
