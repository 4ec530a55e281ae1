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

from ..errors import BroadcastError
from ..geometry import Rect
from ..index import brute_force_window
from ..model import POI
from .batch import BatchMember, batch_scan
from .schedule import BroadcastSchedule, RetrievalCost
from .server import Block, BroadcastServer


@dataclass(frozen=True, slots=True)
class OnAirWindowResult:
    """Answer plus channel cost of one on-air window query.

    ``bonus_regions`` are the ``(region, POIs)`` pairs of the aligned
    square blocks wholly inside the downloaded broadcast segments —
    extra verified territory the client may cache beyond the query
    windows themselves ("the MH will store as many received POIs as
    its cache capacity allows").
    """

    pois: tuple[POI, ...]
    cost: RetrievalCost
    bucket_ids: tuple[int, ...]
    downloaded: tuple[POI, ...]
    bonus_regions: tuple[Block, ...] = ()


def plan_window(
    server: BroadcastServer, windows: Sequence[Rect]
) -> tuple[tuple[int, ...], tuple[Block, ...]]:
    """Segment plan for the (possibly reduced) windows.

    Each window fragment maps to the Hilbert-curve run between its
    first point ``a`` and last point ``b`` (Figure 8); the client must
    listen to every bucket of each run.  Returns the union of the
    buckets plus the server's ``(region, POIs)`` pair of each aligned
    block the download certifies.
    """
    if not windows:
        raise BroadcastError("window plan needs at least one window")
    buckets: set[int] = set()
    runs: list[tuple[int, int]] = []
    for window in windows:
        span = server.grid.value_span(window)
        if span is None:
            continue
        buckets.update(server.buckets_in_range(*span))
        runs.extend(server.grid.aligned_blocks(*span, min_cells=4))
    return tuple(sorted(buckets)), server.blocks(runs, buckets)


def answer_window(
    windows: Sequence[Rect],
    bucket_ids: tuple[int, ...],
    bonus_regions: tuple[Block, ...],
    downloaded: tuple[POI, ...],
    cost: RetrievalCost,
) -> OnAirWindowResult:
    """Filter one plan's download by the window fragments.

    Returns the POIs inside any fragment, by id.  ``downloaded`` may be
    a solo scan's or this plan's slice of a shared one, ``cost`` the
    channel bill either way.
    """
    hits: dict[int, POI] = {}
    for window in windows:
        for poi in brute_force_window(downloaded, window):
            hits[poi.poi_id] = poi
    return OnAirWindowResult(
        pois=tuple(sorted(hits.values(), key=lambda p: p.poi_id)),
        cost=cost,
        bucket_ids=bucket_ids,
        downloaded=downloaded,
        bonus_regions=bonus_regions,
    )


def onair_window(
    server: BroadcastServer,
    schedule: BroadcastSchedule,
    windows: Sequence[Rect],
    t_query: float,
    channel=None,
    tracer=None,
) -> OnAirWindowResult:
    """Run an on-air window query over one or more window fragments.

    Plan, scan alone (a batch of one: :func:`~repro.broadcast.batch.
    batch_scan` owns the channel read, the fault recovery and the
    spans), filter.  Callers answering an original window ``w`` from a
    partial peer result combine the returned POIs with the
    peer-verified ones covering ``w - union(windows)``.
    """
    bucket_ids, bonus_regions = plan_window(server, windows)
    scan = batch_scan(
        server,
        schedule,
        [BatchMember(0, bucket_ids, server.index.tree_probe_packets)],
        t_query,
        channel=channel,
        tracer=tracer,
        windows=len(windows),
    )
    return answer_window(
        windows, bucket_ids, bonus_regions, scan.downloads[0], scan.cost
    )
