"""The on-air window-query algorithm of Zheng et al. [17].

The query window maps to the Hilbert cells it intersects; the buckets
holding those cells' objects form a broadcast segment between the
window's first point ``a`` and last point ``b`` on the curve
(Figure 8 of the paper).  The sharing-based improvement of Section
3.4.2 passes *reduced* windows ``w'`` (the parts the merged verified
region does not cover) instead of the original ``w``, shrinking the
segment the client must listen to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..check import invariants
from ..errors import BroadcastError
from ..geometry import Rect
from ..index import brute_force_window
from ..model import POI
from ..obs import NO_TRACER
from .schedule import BroadcastSchedule, RetrievalCost
from .server import BroadcastServer


@dataclass(frozen=True, slots=True)
class OnAirWindowResult:
    """Answer plus channel cost of one on-air window query.

    ``bonus_regions`` are aligned square blocks wholly inside the
    downloaded broadcast segments — extra verified territory the
    client may cache beyond the query windows themselves ("the MH will
    store as many received POIs as its cache capacity allows").
    """

    pois: tuple[POI, ...]
    cost: RetrievalCost
    bucket_ids: tuple[int, ...]
    downloaded: tuple[POI, ...]
    bonus_regions: tuple[Rect, ...] = ()


def plan_window(
    server: BroadcastServer, windows: Sequence[Rect]
) -> tuple[tuple[int, ...], tuple[Rect, ...]]:
    """Segment plan for the (possibly reduced) windows.

    Each window fragment maps to the Hilbert-curve run between its
    first point ``a`` and last point ``b`` (Figure 8); the client must
    listen to every bucket of each run.  Returns the union of the
    buckets plus the aligned block regions certified by the download.
    """
    if not windows:
        raise BroadcastError("window plan needs at least one window")
    buckets: set[int] = set()
    blocks: list[Rect] = []
    for window in windows:
        values = server.grid.values_intersecting(window)
        if not values:
            continue
        lo, hi = values[0], values[-1]
        buckets.update(server.buckets_in_range(lo, hi))
        blocks.extend(server.grid.aligned_blocks(lo, hi, min_cells=4))
    return tuple(sorted(buckets)), tuple(blocks)


def onair_window(
    server: BroadcastServer,
    schedule: BroadcastSchedule,
    windows: Sequence[Rect],
    t_query: float,
    channel=None,
    tracer=None,
) -> OnAirWindowResult:
    """Run an on-air window query over one or more window fragments.

    Returns the POIs inside any of the fragments.  Callers answering an
    original window ``w`` from a partial peer result combine these POIs
    with the peer-verified ones covering ``w - union(windows)``.
    ``channel`` is an optional unreliable-broadcast fault model whose
    bucket losses are recovered via index-segment re-tunes.  ``tracer``
    is an optional :class:`repro.obs.Tracer` adding index-scan /
    data-scan / recovery spans (expected to nest under an enclosing
    ``query`` span).
    """
    if tracer is None:
        tracer = NO_TRACER
    with tracer.span("broadcast.index_scan") as index_span:
        bucket_ids, bonus_regions = plan_window(server, windows)
        index_span.set(
            index_packets=server.index.tree_probe_packets,
            windows=len(windows),
            buckets_planned=len(bucket_ids),
        )
    with tracer.span("broadcast.data_scan") as data_span:
        cost = schedule.retrieve_with_recovery(
            t_query,
            bucket_ids,
            server.index.tree_probe_packets,
            channel=channel,
            recovery_index_packets=server.index.tree_probe_packets,
        )
        downloaded: list[POI] = []
        for bucket_id in bucket_ids:
            downloaded.extend(server.pois_in_bucket(bucket_id))
        hits: dict[int, POI] = {}
        for window in windows:
            for poi in brute_force_window(downloaded, window):
                hits[poi.poi_id] = poi
        pois = tuple(sorted(hits.values(), key=lambda p: p.poi_id))
        data_span.set(
            buckets=cost.buckets_downloaded,
            tuning_packets=cost.tuning_packets,
            pois=len(downloaded),
            sim_s=cost.data_latency,
        )
    index_span.set(sim_s=cost.index_latency)
    if cost.retunes and tracer.enabled:
        with tracer.span("broadcast.recovery") as recovery_span:
            recovery_span.set(
                retunes=cost.retunes,
                buckets_lost=cost.buckets_lost,
                sim_s=cost.recovery_latency,
            )
    if invariants.check_enabled():
        invariants.check_retrieval_cost(cost, len(bucket_ids))
    return OnAirWindowResult(
        pois=pois,
        cost=cost,
        bucket_ids=bucket_ids,
        downloaded=tuple(downloaded),
        bonus_regions=bonus_regions,
    )
