"""The on-air kNN algorithm of Zheng et al. [17].

First scan: read the broadcast index, whose entries reveal every
object's position to cell precision; estimate the k-th nearest
neighbour distance and build the minimal search circle around the
query point (Figure 4 of the paper).  Second scan: download every
bucket whose cells intersect the circle's MBR and answer exactly.

The sharing-based improvements of Section 3.3.3 plug in here:

* an *upper bound* (distance of the heap's last entry) replaces the
  index-estimated radius, shrinking the search MBR and letting the
  client skip the expensive full-index first scan;
* a *lower bound* (distance of the heap's last verified entry) defines
  a circle ``Ci`` that is already fully known, so buckets wholly
  inside it are not downloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..check import invariants
from ..errors import BroadcastError
from ..geometry import NEAR_ABS, NEAR_REL, Circle, Point, Rect
from ..index import brute_force_knn
from ..model import POI, QueryResultEntry
from .batch import BatchMember, batch_scan
from .schedule import BroadcastSchedule, RetrievalCost
from .server import Block, BroadcastServer


@dataclass(frozen=True, slots=True)
class KnnPlan:
    """The second-scan plan: search geometry and buckets to download.

    ``bucket_ids`` is the broadcast *segment* between the first and
    last candidate Hilbert value (Figure 4: "the related packets span
    a long segment in the index sequence"), minus any buckets the
    lower-bound filter proves redundant.  ``bonus_regions`` are the
    server's ``(region, POIs)`` pairs of the aligned square blocks
    fully contained in the downloaded segment — regions the client may
    cache as verified beyond the search MBR.

    ``k_clamped`` flags a request for more neighbours than the
    database holds: the retrieval will return every POI there is, and
    ``result_size < k`` is then a property of the database, not a
    protocol failure.  Without the flag such an answer was
    indistinguishable from a genuinely full one.
    """

    radius: float
    search_mbr: Rect
    bucket_ids: tuple[int, ...]
    skipped_buckets: tuple[int, ...]
    index_read_packets: int
    bonus_regions: tuple[Block, ...] = ()
    k_clamped: bool = False


@dataclass(frozen=True, slots=True)
class OnAirKnnResult:
    """Answer plus channel cost of one on-air kNN query."""

    results: tuple[QueryResultEntry, ...]
    cost: RetrievalCost
    plan: KnnPlan
    downloaded: tuple[POI, ...]


def estimate_search_radius(server: BroadcastServer, query: Point, k: int) -> float:
    """First-scan radius estimate from index (cell-centre) positions.

    Every object sits within half a cell diagonal of its published
    centre, so ``k-th centre distance + cell diagonal`` is a sound
    over-estimate of the true k-th NN distance (and at most one and a
    half diagonals above it).

    The k-th distance is ``math.hypot``'s, whose rounding the recorded
    radii depend on, read by selection rather than a sort of the whole
    index: ``np.partition`` finds the k-th ``np.hypot`` distance, and
    only the centres within the near-tie band of it (``NEAR_REL``,
    ``NEAR_ABS``) are re-scored with ``math.hypot``.  The band holds
    every centre whose exact distance is at most the exact k-th one
    (DESIGN §7.1), so its k-th exact distance is that one.
    """
    if k < 1:
        raise BroadcastError(f"k must be >= 1, got {k}")
    xs, ys = server.index_center_x, server.index_center_y
    kth = min(k, xs.size) - 1
    qx, qy = query.x, query.y
    approx = np.hypot(qx - xs, qy - ys)
    limit = np.partition(approx, kth)[kth] * (1.0 + NEAR_REL) + NEAR_ABS
    band = np.flatnonzero(approx <= limit)
    exact = sorted(
        math.hypot(qx - x, qy - y)
        for x, y in zip(xs[band].tolist(), ys[band].tolist())
    )
    radius = exact[kth] + server.grid.cell_diagonal
    if invariants.ENABLED:
        invariants.check_search_radius(server, query, k, radius)
    return radius


def plan_knn(
    server: BroadcastServer,
    query: Point,
    k: int,
    upper_bound: float | None = None,
    lower_bound: float | None = None,
) -> KnnPlan:
    """Build the second-scan plan, applying any sharing-based bounds."""
    if upper_bound is not None and upper_bound <= 0:
        raise BroadcastError("upper bound must be positive")
    if lower_bound is not None and lower_bound < 0:
        raise BroadcastError("lower bound must be non-negative")
    if upper_bound is not None:
        radius = upper_bound
        index_read = server.index.tree_probe_packets
    else:
        radius = estimate_search_radius(server, query, k)
        index_read = server.index.packet_count
    circle = Circle(query, radius)
    search_mbr = circle.mbr().intersection(server.bounds)
    if search_mbr is None:
        # Query far outside the service area: fall back to everything.
        search_mbr = server.bounds
    span = server.grid.value_span(search_mbr)
    bucket_ids = server.buckets_in_range(*span) if span is not None else []
    skipped: list[int] = []
    if lower_bound is not None and lower_bound > 0:
        known_circle = Circle(query, lower_bound)
        kept: list[int] = []
        for bucket_id in bucket_ids:
            if known_circle.contains_rect(server.buckets[bucket_id].extent):
                skipped.append(bucket_id)
            else:
                kept.append(bucket_id)
        bucket_ids = kept
    bonus: tuple[Block, ...] = ()
    if span is not None and not skipped:
        # A skipped bucket leaves holes in the segment; the block
        # regions are no longer certain to be fully downloaded.
        bonus = server.blocks(
            server.grid.aligned_blocks(*span, min_cells=4), bucket_ids
        )
    return KnnPlan(
        radius=radius,
        search_mbr=search_mbr,
        bucket_ids=tuple(bucket_ids),
        skipped_buckets=tuple(skipped),
        index_read_packets=index_read,
        bonus_regions=bonus,
        k_clamped=k > len(server.pois),
    )


def answer_knn(
    plan: KnnPlan,
    query: Point,
    k: int,
    known_pois: tuple[POI, ...],
    downloaded: tuple[POI, ...],
    cost: RetrievalCost,
) -> OnAirKnnResult:
    """Rank one plan's download together with the POIs already held.

    ``known_pois`` are POIs the client holds verified (from peer
    sharing); they stand in for any skipped buckets in the ranking,
    keeping the answer exact even under the lower-bound filter.
    ``downloaded`` may be a solo scan's or this plan's slice of a
    shared one, ``cost`` the channel bill either way.
    """
    by_id = {poi.poi_id: poi for poi in downloaded}
    for poi in known_pois:
        by_id.setdefault(poi.poi_id, poi)
    return OnAirKnnResult(
        results=tuple(brute_force_knn(by_id.values(), query, k)),
        cost=cost,
        plan=plan,
        downloaded=downloaded,
    )


def onair_knn(
    server: BroadcastServer,
    schedule: BroadcastSchedule,
    query: Point,
    k: int,
    t_query: float,
    upper_bound: float | None = None,
    lower_bound: float | None = None,
    known_pois: tuple[POI, ...] = (),
    channel=None,
    tracer=None,
) -> OnAirKnnResult:
    """Run a full on-air kNN query, returning the exact answer.

    Plan, scan alone (a batch of one: :func:`~repro.broadcast.batch.
    batch_scan` owns the channel read, the fault recovery and the
    spans), rank.  ``channel`` and ``tracer`` are the scan's.
    """
    plan = plan_knn(server, query, k, upper_bound, lower_bound)
    scan = batch_scan(
        server,
        schedule,
        [BatchMember(0, plan.bucket_ids, plan.index_read_packets)],
        t_query,
        channel=channel,
        tracer=tracer,
        buckets_skipped=len(plan.skipped_buckets),
        filtered=upper_bound is not None,
        k_clamped=plan.k_clamped,
    )
    return answer_knn(plan, query, k, known_pois, scan.downloads[0], scan.cost)
