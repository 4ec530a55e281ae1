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

from ..check import invariants
from ..errors import BroadcastError
from ..geometry import Circle, Point, Rect
from ..index import brute_force_knn
from ..model import POI, QueryResultEntry
from ..obs import NO_TRACER
from .schedule import BroadcastSchedule, RetrievalCost
from .server import BroadcastServer


@dataclass(frozen=True, slots=True)
class KnnPlan:
    """The second-scan plan: search geometry and buckets to download.

    ``bucket_ids`` is the broadcast *segment* between the first and
    last candidate Hilbert value (Figure 4: "the related packets span
    a long segment in the index sequence"), minus any buckets the
    lower-bound filter proves redundant.  ``bonus_regions`` are the
    aligned square blocks fully contained in the downloaded segment —
    regions the client may cache as verified beyond the search MBR.

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
    bonus_regions: tuple[Rect, ...] = ()
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
    over-estimate of the true k-th NN distance.

    The centre positions come from the server's precomputed index
    geometry (the broadcast file never changes, so the curve is never
    decoded per query); the distance scan itself stays on
    ``math.hypot``, whose rounding the recorded radii depend on.
    """
    if k < 1:
        raise BroadcastError(f"k must be >= 1, got {k}")
    xs, ys = server.index_center_lists()
    if not xs:
        raise BroadcastError("index is empty")
    hyp = math.hypot
    qx, qy = query.x, query.y
    distances = sorted([hyp(qx - x, qy - y) for x, y in zip(xs, ys)])
    kth = distances[min(k, len(distances)) - 1]
    return kth + server.grid.cell_diagonal


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
    candidate_values = server.grid.values_intersecting(search_mbr)
    bonus: tuple[Rect, ...] = ()
    if candidate_values:
        lo, hi = candidate_values[0], candidate_values[-1]
        bucket_ids = server.buckets_in_range(lo, hi)
        bonus = tuple(server.grid.aligned_blocks(lo, hi, min_cells=4))
    else:
        bucket_ids = []
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
        if skipped:
            # A skipped bucket leaves holes in the segment; the block
            # regions are no longer certain to be fully downloaded.
            bonus = ()
    return KnnPlan(
        radius=radius,
        search_mbr=search_mbr,
        bucket_ids=tuple(bucket_ids),
        skipped_buckets=tuple(skipped),
        index_read_packets=index_read,
        bonus_regions=bonus,
        k_clamped=k > len(server.pois),
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

    ``known_pois`` are POIs the client already holds verified (from
    peer sharing); they stand in for any skipped buckets in the final
    ranking, keeping the answer exact even under the lower-bound
    filter.  ``channel`` is an optional unreliable-broadcast fault
    model: lost buckets are recovered by re-tuning at the next index
    segment, and the recovery shows up in the cost.  ``tracer`` is an
    optional :class:`repro.obs.Tracer`; the first scan, the data scan,
    and any fault recovery each get a span (expected to nest under an
    enclosing ``query`` span).
    """
    if tracer is None:
        tracer = NO_TRACER
    with tracer.span("broadcast.index_scan") as index_span:
        plan = plan_knn(server, query, k, upper_bound, lower_bound)
        index_span.set(
            index_packets=plan.index_read_packets,
            buckets_planned=len(plan.bucket_ids),
            buckets_skipped=len(plan.skipped_buckets),
            filtered=upper_bound is not None,
            k_clamped=plan.k_clamped,
        )
    with tracer.span("broadcast.data_scan") as data_span:
        cost = schedule.retrieve_with_recovery(
            t_query,
            plan.bucket_ids,
            plan.index_read_packets,
            channel=channel,
            recovery_index_packets=server.index.tree_probe_packets,
        )
        downloaded: list[POI] = []
        for bucket_id in plan.bucket_ids:
            downloaded.extend(server.pois_in_bucket(bucket_id))
        by_id = {poi.poi_id: poi for poi in downloaded}
        for poi in known_pois:
            by_id.setdefault(poi.poi_id, poi)
        results = tuple(brute_force_knn(by_id.values(), query, k))
        data_span.set(
            buckets=cost.buckets_downloaded,
            tuning_packets=cost.tuning_packets,
            pois=len(downloaded),
            sim_s=cost.data_latency,
        )
    # The index scan's simulated share is only known once the
    # retrieval is priced; the span object stays mutable until its
    # root is exported, so back-fill it here.
    index_span.set(sim_s=cost.index_latency)
    if cost.retunes and tracer.enabled:
        with tracer.span("broadcast.recovery") as recovery_span:
            recovery_span.set(
                retunes=cost.retunes,
                buckets_lost=cost.buckets_lost,
                sim_s=cost.recovery_latency,
            )
    if invariants.check_enabled():
        invariants.check_retrieval_cost(cost, len(plan.bucket_ids))
    return OnAirKnnResult(
        results=results,
        cost=cost,
        plan=plan,
        downloaded=tuple(downloaded),
    )
