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

import numpy as np

from ..broadcast import OnAirClient
from ..cache import POICache
from ..check import invariants
from ..core import MVRMemo, Resolution, sbnn, sbwq
from ..core.heap import HeapEntry
from ..core.nnv import first_contained, pois_at
from ..faults import P2PFaultStats
from ..geometry import Circle, Point, Rect, SlabUnion
from ..model import DEFAULT_CATEGORY, POI
from ..obs import NO_TRACER
from ..p2p import ShareRequest, ShareResponse
from ..workloads import QueryKind
from .metrics import QueryRecord

NO_FAULTS = P2PFaultStats()

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


def _pois_from_responses(
    responses: Sequence[ShareResponse], within: Rect, mvr: SlabUnion
) -> dict[int, POI]:
    """Peer POIs inside both ``within`` and the MVR (hence complete).

    First contained copy wins on duplicate ids, and insertion order
    (the response order, POI order within a response) is preserved —
    the dict's ordering flows into cached-region POI tuples downstream.
    One batch over all responses, as in :func:`~repro.core.nnv.nnv`.
    """
    pieces, _, _, _, sel = first_contained(responses, mvr, within)
    return {poi.poi_id: poi for poi in pois_at(pieces, sel)}


def _pois_per_region(
    regions: Sequence[Rect], downloaded: Sequence[POI]
) -> list[SharedRegion]:
    """Filter the downloaded POIs into each bonus region.

    The per-region test is a closed-rectangle mask over coordinate
    arrays built once for the whole batch; ``nonzero`` preserves the
    download order, so each tuple matches the sequential filter.
    """
    if not regions:
        return []
    if not downloaded:
        return [(region, ()) for region in regions]
    xs = np.array([p.location.x for p in downloaded], np.float64)
    ys = np.array([p.location.y for p in downloaded], np.float64)
    out: list[SharedRegion] = []
    for region in regions:
        mask = (
            (region.x1 <= xs)
            & (xs <= region.x2)
            & (region.y1 <= ys)
            & (ys <= region.y2)
        )
        out.append(
            (region, tuple([downloaded[i] for i in np.nonzero(mask)[0].tolist()]))
        )
    return out


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

    def __init__(self, host_id: int, cache: POICache):
        self.host_id = host_id
        self.cache = cache
        # Memoised share response (rebuilt only when the cache content
        # generation moves).
        self._share_generation: int | None = None
        self._share_memo: ShareResponse | None = None
        # Standing (continuous) queries anchored at this host, keyed by
        # query id.  The host carries them across ticks; the continuous
        # monitor engine owns their lifecycle.
        self.standing: dict[int, object] = {}

    # ------------------------------------------------------------------
    def share_response(
        self, request: ShareRequest | None = None
    ) -> ShareResponse | None:
        """Answer a peer's share request; ``None`` when nothing cached.

        A host only answers requests for the category it caches (this
        deployment is single-category).  The response is immutable and
        stamped with the cache's content generation, so it is built
        once per generation and handed out as-is until the cache next
        changes.
        """
        if request is not None and request.category != DEFAULT_CATEGORY:
            return None
        if self.cache.generation != self._share_generation:
            generation, regions, pois = self.cache.frozen_snapshot()
            self._share_memo = (
                None
                if not regions and not pois
                else ShareResponse(self.host_id, regions, pois, generation)
            )
            self._share_generation = generation
        return self._share_memo

    # ------------------------------------------------------------------
    def execute_knn(
        self,
        position: Point,
        heading: tuple[float, float],
        k: int,
        responses: Sequence[ShareResponse],
        onair: OnAirClient,
        poi_density: float,
        now: float,
        p2p_latency: float = 0.05,
        accept_approximate: bool = True,
        min_correctness: float = 0.5,
        fault_stats: P2PFaultStats | None = None,
        tracer=None,
    ) -> HostQueryResult:
        """The full SBNN pipeline for one kNN query (Algorithm 2).

        ``fault_stats`` is what the unreliable channel did to the share
        exchange (drops, retries, deadline misses); its extra latency
        is charged to the query and its counters stamped on the record.
        ``tracer`` (a :class:`repro.obs.Tracer`) adds the core spans
        and switches the Lemma 3.2 annotations to ``"always"`` so
        traced broadcast-bound queries still explain the peers' answer.
        """
        faults = fault_stats if fault_stats is not None else NO_FAULTS
        tracing = tracer is not None and tracer.enabled
        outcome = sbnn(
            position,
            responses,
            k,
            poi_density,
            accept_approximate=accept_approximate,
            min_correctness=min_correctness,
            mvr=MVR.merged(responses),
            annotate="always" if tracing else "auto",
            tracer=tracer if tracing else None,
        )
        peer_count = sum(
            1 for r in responses if r.peer_id != self.host_id
        )
        if outcome.resolution is not Resolution.BROADCAST:
            latency = (p2p_latency if peer_count else 0.0) + faults.extra_latency
            entries, shared = self.settle_knn_peer(
                position, heading, k, outcome, responses, now
            )
            return HostQueryResult(
                record=QueryRecord(
                    time=now,
                    host_id=self.host_id,
                    kind=QueryKind.KNN,
                    resolution=outcome.resolution,
                    access_latency=latency,
                    tuning_packets=0,
                    buckets_downloaded=0,
                    peer_count=peer_count,
                    k=k,
                    result_size=len(entries),
                    p2p_drops=faults.drops,
                    p2p_retries=faults.retries,
                    p2p_deadline_misses=faults.deadline_misses,
                ),
                answers=tuple(e.poi for e in entries),
                heap_entries=entries,
                shared=(shared,) if shared else (),
            )

        onair_result = onair.knn(
            position,
            k,
            t_query=now,
            upper_bound=outcome.bounds.upper,
            lower_bound=outcome.bounds.lower,
            known_pois=outcome.verified_pois,
        )
        shared_regions = self.adopt_knn_download(
            position,
            heading,
            outcome,
            onair_result.plan,
            onair_result.downloaded,
            responses,
            now,
        )
        latency = (
            (p2p_latency if peer_count else 0.0)
            + faults.extra_latency
            + onair_result.cost.access_latency
        )
        return HostQueryResult(
            record=QueryRecord(
                time=now,
                host_id=self.host_id,
                kind=QueryKind.KNN,
                resolution=Resolution.BROADCAST,
                access_latency=latency,
                tuning_packets=onair_result.cost.tuning_packets,
                buckets_downloaded=onair_result.cost.buckets_downloaded,
                peer_count=peer_count,
                k=k,
                result_size=len(onair_result.results),
                p2p_drops=faults.drops,
                p2p_retries=faults.retries,
                p2p_deadline_misses=faults.deadline_misses,
                recovery_retunes=onair_result.cost.retunes,
                buckets_lost=onair_result.cost.buckets_lost,
            ),
            answers=tuple(e.poi for e in onair_result.results),
            shared=shared_regions,
        )

    def _gossip_cache(
        self,
        position: Point,
        heading: tuple[float, float],
        mvr: SlabUnion,
        responses: Sequence[ShareResponse],
        now: float,
    ) -> tuple[Rect, tuple[POI, ...]] | None:
        """Keep the verified disc around a peer-resolved query.

        The largest inscribed axis-aligned square of the verified disc
        ``C(q, ||q, e_s||)`` lies inside the MVR, where the responses
        are collectively complete, so it is a sound verified region.
        Returns what was cached so neighbours can adopt it.
        """
        if invariants.check_enabled():
            invariants.check_union(mvr, position)
        if mvr.is_empty or not mvr.contains_point(position):
            return None
        radius = mvr.distance_to_boundary(position)
        if radius <= 0.0:
            return None
        region = Circle(position, radius).inscribed_rect()
        pois = tuple(_pois_from_responses(responses, region, mvr).values())
        self.cache.insert_result(region, pois, now, position, heading)
        return region, pois

    # -- resolution and cache-settlement steps --------------------------
    # The standing-query engine (:mod:`repro.continuous`) needs the
    # resolution step, the broadcast scan, and the cache settlement
    # decoupled so concurrent re-evaluations can share one scan.  The
    # one-shot execute_knn / execute_window settle through the same
    # four methods, so a standing query leaves the cache bit-identical
    # to a one-shot query at the same place and time.

    def resolve_knn(
        self,
        position: Point,
        k: int,
        responses: Sequence[ShareResponse],
        poi_density: float,
        accept_approximate: bool = False,
        min_correctness: float = 0.5,
    ):
        """Run SBNN for a standing kNN re-evaluation (exact by default)."""
        return sbnn(
            position,
            responses,
            k,
            poi_density,
            accept_approximate=accept_approximate,
            min_correctness=min_correctness,
            mvr=MVR.merged(responses),
        )

    def resolve_window(self, window: Rect, responses: Sequence[ShareResponse]):
        """Run SBWQ (one-shot queries and standing re-evaluations)."""
        mvr = MVR.merged(responses)
        if invariants.check_enabled():
            invariants.check_union(mvr, window.center, window)
        return sbwq(window, responses, mvr=mvr)

    def settle_knn_peer(
        self,
        position: Point,
        heading: tuple[float, float],
        k: int,
        outcome,
        responses: Sequence[ShareResponse],
        now: float,
    ) -> tuple[tuple[HeapEntry, ...], SharedRegion | None]:
        """Cache settlement of a peer-resolved kNN (non-BROADCAST).

        Gossips the verified disc first, then touches the answers.
        Returns the answer entries and the gossiped region (if any).
        """
        shared = self._gossip_cache(
            position, heading, outcome.mvr, responses, now
        )
        entries = tuple(outcome.heap.results()[:k])
        self.cache.touch((e.poi.poi_id for e in entries), now)
        return entries, shared

    def settle_window_peer(
        self,
        position: Point,
        heading: tuple[float, float],
        window: Rect,
        outcome,
        now: float,
    ) -> tuple[POI, ...]:
        """Cache settlement of a peer-VERIFIED window query."""
        self.cache.touch((p.poi_id for p in outcome.verified_pois), now)
        self.cache.insert_result(
            window, outcome.verified_pois, now, position, heading
        )
        return outcome.verified_pois

    def adopt_knn_download(
        self,
        position: Point,
        heading: tuple[float, float],
        outcome,
        plan,
        downloaded: Sequence[POI],
        responses: Sequence[ShareResponse],
        now: float,
    ) -> tuple[SharedRegion, ...]:
        """Cache settlement of a broadcast-resolved kNN.

        ``plan`` / ``downloaded`` may come from a solo scan or from this
        member's slice of a batched scan — the caching is identical.
        """
        covered = plan.search_mbr
        complete = {poi.poi_id: poi for poi in downloaded}
        complete.update(_pois_from_responses(responses, covered, outcome.mvr))
        cx1, cy1, cx2, cy2 = covered.x1, covered.y1, covered.x2, covered.y2
        cached_pois = tuple(
            [
                poi
                for poi in complete.values()
                if cx1 <= poi.location.x <= cx2
                and cy1 <= poi.location.y <= cy2
            ]
        )
        shared_regions: list[SharedRegion] = [(covered, cached_pois)]
        # Everything the segment download certifies beyond the search
        # MBR is cacheable too ("store as many received POIs as the
        # cache capacity allows").
        shared_regions.extend(_pois_per_region(plan.bonus_regions, downloaded))
        for region, pois in shared_regions:
            self.cache.insert_result(region, pois, now, position, heading)
        return tuple(shared_regions)

    def adopt_window_download(
        self,
        position: Point,
        heading: tuple[float, float],
        window: Rect,
        answers: dict[int, POI],
        bonus_regions: Sequence[Rect],
        downloaded: Sequence[POI],
        now: float,
    ) -> tuple[SharedRegion, ...]:
        """Cache settlement of a broadcast-resolved window query.

        Verified peers cover w ∩ MVR, the channel covered w − MVR:
        together the whole window is certified.  The segment download
        certifies the aligned blocks beyond the window as well.
        """
        shared_regions: list[SharedRegion] = [
            (window, tuple(sorted(answers.values(), key=lambda p: p.poi_id)))
        ]
        shared_regions.extend(_pois_per_region(bonus_regions, downloaded))
        for region, pois in shared_regions:
            self.cache.insert_result(region, pois, now, position, heading)
        return tuple(shared_regions)

    # ------------------------------------------------------------------
    def execute_window(
        self,
        position: Point,
        heading: tuple[float, float],
        window: Rect,
        responses: Sequence[ShareResponse],
        onair: OnAirClient,
        now: float,
        p2p_latency: float = 0.05,
        fault_stats: P2PFaultStats | None = None,
        tracer=None,
    ) -> HostQueryResult:
        """The full SBWQ pipeline for one window query (Algorithm 3)."""
        faults = fault_stats if fault_stats is not None else NO_FAULTS
        span_tracer = tracer if tracer is not None else NO_TRACER
        with span_tracer.span("core.sbwq") as span:
            outcome = self.resolve_window(window, responses)
            span.set(
                responses=len(responses),
                verified_pois=len(outcome.verified_pois),
                remainder_windows=len(outcome.remainder_windows),
                covered_fraction_missing=outcome.covered_fraction_missing,
            )
        peer_count = sum(
            1 for r in responses if r.peer_id != self.host_id
        )
        if outcome.resolution is Resolution.VERIFIED:
            self.settle_window_peer(position, heading, window, outcome, now)
            return HostQueryResult(
                record=QueryRecord(
                    time=now,
                    host_id=self.host_id,
                    kind=QueryKind.WINDOW,
                    resolution=Resolution.VERIFIED,
                    access_latency=(p2p_latency if peer_count else 0.0)
                    + faults.extra_latency,
                    tuning_packets=0,
                    buckets_downloaded=0,
                    peer_count=peer_count,
                    window_area=window.area,
                    result_size=len(outcome.verified_pois),
                    covered_fraction_missing=outcome.covered_fraction_missing,
                    p2p_drops=faults.drops,
                    p2p_retries=faults.retries,
                    p2p_deadline_misses=faults.deadline_misses,
                ),
                answers=outcome.verified_pois,
                shared=((window, outcome.verified_pois),),
            )

        onair_result = onair.window(outcome.remainder_windows, t_query=now)
        answers: dict[int, POI] = {
            poi.poi_id: poi for poi in outcome.verified_pois
        }
        answers.update({poi.poi_id: poi for poi in onair_result.pois})
        shared_regions = self.adopt_window_download(
            position,
            heading,
            window,
            answers,
            onair_result.bonus_regions,
            onair_result.downloaded,
            now,
        )
        latency = (
            (p2p_latency if peer_count else 0.0)
            + faults.extra_latency
            + onair_result.cost.access_latency
        )
        ordered = tuple(sorted(answers.values(), key=lambda p: p.poi_id))
        return HostQueryResult(
            record=QueryRecord(
                time=now,
                host_id=self.host_id,
                kind=QueryKind.WINDOW,
                resolution=Resolution.BROADCAST,
                access_latency=latency,
                tuning_packets=onair_result.cost.tuning_packets,
                buckets_downloaded=onair_result.cost.buckets_downloaded,
                peer_count=peer_count,
                window_area=window.area,
                result_size=len(ordered),
                covered_fraction_missing=outcome.covered_fraction_missing,
                p2p_drops=faults.drops,
                p2p_retries=faults.retries,
                p2p_deadline_misses=faults.deadline_misses,
                recovery_retunes=onair_result.cost.retunes,
                buckets_lost=onair_result.cost.buckets_lost,
            ),
            answers=ordered,
            shared=shared_regions,
        )
