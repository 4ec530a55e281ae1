"""Opt-in runtime invariant assertions (``REPRO_CHECK=1``).

The production pipelines carry internal contracts the type system
cannot express: the SBNN heap ``H`` must be one of the six legal
Section-3.3.3 states with a verified *prefix*; a window record's
``covered_fraction_missing`` is an area share in ``[0, 1]``; the P2P
traffic counters obey conservation (a response implies a heard peer);
a retrieval cost decomposes into non-negative phases.

All checks are gated on the ``REPRO_CHECK`` environment variable so
the hot path pays one module-global boolean test when they are off.
Tests (and the differential harness) flip the gate programmatically
with :func:`set_check_enabled`.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..broadcast.schedule import RetrievalCost
    from ..broadcast.server import BroadcastServer
    from ..core.heap import ResultHeap
    from ..experiments.metrics import QueryRecord
    from ..geometry import Point, Rect
    from ..model import POI
    from ..p2p.network import PeerNetwork


class InvariantViolation(ReproError):
    """A pipeline-seam contract was broken (only raised under checks)."""


# Public module attribute: the hottest seams (cache inserts run tens of
# thousands of times per workload) read ``invariants.ENABLED`` directly
# instead of paying a function call per check.
ENABLED = os.environ.get("REPRO_CHECK", "") == "1"


def check_enabled() -> bool:
    """Whether the runtime invariant assertions are active."""
    return ENABLED


def set_check_enabled(on: bool) -> bool:
    """Flip the gate programmatically; returns the previous setting."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(on)
    return previous


# ----------------------------------------------------------------------
# Seam checks.  Callers guard with ``if check_enabled():`` so the
# off-path cost is a single boolean test and no argument evaluation.
# ----------------------------------------------------------------------
def check_heap(heap: "ResultHeap", accepted_at: float | None = None) -> None:
    """Heap-state legality after NNV (the six ``H`` states, Table 2).

    * at most ``k`` entries, unique POI ids;
    * ascending ``(distance, poi_id)`` order;
    * the verified entries form a prefix — Lemma 3.1 verifies a POI
      through a disc around the query, so any POI nearer than a
      verified one is verified too;
    * the reported :class:`~repro.core.heap.HeapState` matches the
      entry counts;
    * the Lemma 3.2 annotations sit on unverified entries only, each
      in ``[0, 1]``, and the annotated ones are the farthest (the pass
      walks inwards from the far end and may stop early);
    * with ``accepted_at`` — the threshold an ``APPROXIMATE`` outcome
      was accepted at, passed where the resolution is known — every
      unverified entry is annotated and at or above it.
    """
    from ..core.heap import HeapState

    entries = heap.entries
    if len(entries) > heap.k:
        raise InvariantViolation(
            f"heap holds {len(entries)} entries, capacity {heap.k}"
        )
    ids = [e.poi.poi_id for e in entries]
    if len(set(ids)) != len(ids):
        raise InvariantViolation(f"duplicate POI ids in heap: {ids}")
    keys = [e.sort_key() for e in entries]
    if keys != sorted(keys):
        raise InvariantViolation(f"heap entries out of distance order: {keys}")
    seen_unverified = seen_annotated = False
    for entry in entries:
        if entry.verified and seen_unverified:
            raise InvariantViolation(
                "verified heap entry after an unverified one"
                f" (poi {entry.poi.poi_id} at {entry.distance})"
            )
        if not entry.verified:
            seen_unverified = True
        if entry.correctness is None:
            if seen_annotated:
                raise InvariantViolation(
                    "unannotated heap entry beyond an annotated one"
                    f" (poi {entry.poi.poi_id} at {entry.distance})"
                )
            if accepted_at is not None and not entry.verified:
                raise InvariantViolation(
                    f"unverified poi {entry.poi.poi_id} accepted without"
                    " a Lemma 3.2 correctness annotation"
                )
            continue
        seen_annotated = True
        if entry.verified:
            raise InvariantViolation(
                f"verified poi {entry.poi.poi_id} carries a correctness"
                " annotation"
            )
        if not (0.0 <= entry.correctness <= 1.0):
            raise InvariantViolation(
                f"correctness {entry.correctness} outside [0, 1]"
            )
        if accepted_at is not None and entry.correctness < accepted_at:
            raise InvariantViolation(
                f"unverified poi {entry.poi.poi_id} accepted at correctness"
                f" {entry.correctness} < threshold {accepted_at}"
            )
    verified = heap.verified_count
    unverified = len(entries) - verified
    state = heap.state
    legal = {
        HeapState.EMPTY: not entries,
        HeapState.FULL_MIXED: heap.is_full and verified > 0,
        HeapState.FULL_UNVERIFIED: heap.is_full and verified == 0,
        HeapState.PARTIAL_MIXED: not heap.is_full
        and verified > 0
        and unverified > 0,
        HeapState.PARTIAL_VERIFIED: not heap.is_full and unverified == 0,
        HeapState.PARTIAL_UNVERIFIED: not heap.is_full and verified == 0,
    }
    if not legal[state]:
        raise InvariantViolation(
            f"heap state {state.name} inconsistent with"
            f" {verified} verified / {unverified} unverified of k={heap.k}"
        )


def check_record(record: "QueryRecord") -> None:
    """Per-query record sanity: area shares, non-negative costs."""
    if not (0.0 <= record.covered_fraction_missing <= 1.0):
        raise InvariantViolation(
            "covered_fraction_missing"
            f" {record.covered_fraction_missing} outside [0, 1]"
        )
    if record.access_latency < 0.0:
        raise InvariantViolation(
            f"negative access latency {record.access_latency}"
        )
    if record.tuning_packets < 0 or record.buckets_downloaded < 0:
        raise InvariantViolation(
            f"negative channel counters on record at t={record.time}"
        )
    if record.result_size < 0 or record.peer_count < 0:
        raise InvariantViolation(
            f"negative result/peer counts on record at t={record.time}"
        )


def check_traffic(network: "PeerNetwork") -> None:
    """Conservation of the P2P traffic counters.

    Every response was sent by a peer that heard a request, and every
    heard peer implies at least one request on the air — so
    ``responses_received <= peers_heard`` and ``peers_heard > 0``
    implies ``requests_sent > 0``; all three are non-negative.
    """
    if min(
        network.requests_sent, network.responses_received, network.peers_heard
    ) < 0:
        raise InvariantViolation("negative P2P traffic counter")
    if network.responses_received > network.peers_heard:
        raise InvariantViolation(
            f"{network.responses_received} responses collected from only"
            f" {network.peers_heard} heard peers"
        )
    if network.peers_heard > 0 and network.requests_sent == 0:
        raise InvariantViolation("peers heard without any request sent")


def check_retrieval_cost(cost: "RetrievalCost", planned_buckets: int) -> None:
    """Phase decomposition and packet accounting of one retrieval."""
    if planned_buckets < 0:
        raise InvariantViolation(f"negative planned buckets {planned_buckets}")
    if cost.access_latency < 0.0:
        raise InvariantViolation(
            f"negative retrieval latency {cost.access_latency}"
        )
    if cost.index_latency < 0.0 or cost.recovery_latency < 0.0:
        raise InvariantViolation("negative retrieval phase latency")
    if cost.index_latency + cost.recovery_latency > cost.access_latency + 1e-9:
        raise InvariantViolation(
            "retrieval phases exceed total latency:"
            f" {cost.index_latency} + {cost.recovery_latency}"
            f" > {cost.access_latency}"
        )
    if cost.buckets_downloaded < planned_buckets:
        raise InvariantViolation(
            f"{cost.buckets_downloaded} buckets downloaded,"
            f" {planned_buckets} planned"
        )
    if planned_buckets and cost.tuning_packets < 1 + planned_buckets:
        raise InvariantViolation(
            f"tuning packets {cost.tuning_packets} below probe +"
            f" {planned_buckets} planned buckets"
        )


def check_search_radius(
    server: "BroadcastServer", query: "Point", k: int, radius: float
) -> None:
    """The on-air first-scan radius against the full sort of the index:
    the ``min(k, N)``-th ``math.hypot(qx - x, qy - y)`` over every
    published centre, plus a cell diagonal, bit for bit."""
    qx, qy = query.x, query.y
    distances = sorted(
        math.hypot(qx - x, qy - y)
        for x, y in zip(server.index_center_x.tolist(), server.index_center_y.tolist())
    )
    expected = distances[min(k, len(distances)) - 1] + server.grid.cell_diagonal
    if radius != expected:
        raise InvariantViolation(
            f"search radius at ({qx!r}, {qy!r}), k={k}: selected {radius!r},"
            f" the full sort says {expected!r}"
        )


def check_cache(cache) -> None:
    """Capacity, table-order, region-cap and region-list contracts.

    The coordinate mirror, and a clocked policy's clock, list the
    cached POIs in the table's own order; a kept share response is of
    the current generation.  No region is degenerate, and while the
    list is settled (no eviction moved a region since the last
    settle) the areas are non-increasing with no region inside an
    earlier one — what the fused insert and the partial settle both
    start from.  O(R²).
    """
    from ..cache.store import SETTLED

    if len(cache) > cache.capacity:
        raise InvariantViolation(
            f"cache holds {len(cache)} POIs, capacity {cache.capacity}"
        )
    if cache.mirror_ids() != list(cache._items):
        raise InvariantViolation(
            "cache coordinate mirror is out of the item order"
        )
    clock = getattr(cache.policy, "clock", None)
    if clock is not None and list(clock) != list(cache._items):
        raise InvariantViolation("policy clock is out of the item order")
    response = cache.response
    if response is not None and response.generation != cache.generation:
        raise InvariantViolation("cache keeps a stale share response")
    regions = cache.regions
    if len(regions) > cache.max_regions:
        raise InvariantViolation(
            f"cache holds {len(regions)} regions, cap {cache.max_regions}"
        )
    for vr in regions:
        if vr.rect.is_degenerate():
            raise InvariantViolation(f"degenerate verified region {vr!r}")
    if cache._moved is not SETTLED:
        return
    for i in range(1, len(regions)):
        if regions[i].area > regions[i - 1].area:
            raise InvariantViolation(
                f"settled regions out of area order at {i}:"
                f" {regions[i - 1]!r} then {regions[i]!r}"
            )
        r = regions[i].rect
        for earlier in regions[:i]:
            o = earlier.rect
            if o.x1 <= r.x1 and o.y1 <= r.y1 and r.x2 <= o.x2 and r.y2 <= o.y2:
                raise InvariantViolation(
                    f"settled region {regions[i]!r} lies inside the"
                    f" earlier {earlier!r}"
                )


def check_same_pois(
    found: "Sequence[POI]", expected: "Sequence[POI]", what: str
) -> None:
    """POIs a reused read handed on (a query's one peer read, a
    server's block memo) against a fresh gather: the same objects, in
    the same order."""
    if len(found) != len(expected) or any(
        a is not b for a, b in zip(found, expected)
    ):
        raise InvariantViolation(
            f"{what}: the reused read kept ids"
            f" {[p.poi_id for p in found]}, a fresh gather"
            f" {[p.poi_id for p in expected]}"
        )


def check_served_blocks(
    blocks: "Sequence[tuple[Rect, Sequence[POI]]]", downloaded: "Sequence[POI]"
) -> None:
    """Each aligned block's pair a server handed out against a fresh
    closed-rectangle filter of the download it certifies."""
    for rect, pois in blocks:
        check_same_pois(
            pois,
            [p for p in downloaded if rect.contains_point(p.location)],
            f"block {rect!r}",
        )


def check_boundary_distance(union, point: "Point", distance: float) -> None:
    """The ``d*`` NNV handed on against a fresh read of ``union``:
    ``-inf`` outside it, else ``distance_to_boundary(point)``."""
    if union.is_empty or not union.contains_point(point):
        expected = -np.inf
    else:
        expected = union.distance_to_boundary(point)
    if distance != expected:
        raise InvariantViolation(
            f"d* at ({point.x!r}, {point.y!r}) handed on as {distance!r},"
            f" the union says {expected!r}"
        )


def check_union(
    union,
    point: "Point",
    window: "Rect | None" = None,
    radii: "Sequence[float]" = (),
) -> None:
    """A merged region's fast reads against the pure-Python slab sweep.

    A bulk-built :class:`~repro.geometry.SlabUnion` answers
    ``contains_point``, ``contains_points``, ``distance_to_boundary``
    and the batched disc areas from its members and the coverage grid
    without building slabs, and — given a ``window`` — ``covers_rect``
    and ``subtract_from_rect`` from the members the window meets; all
    six must equal what the sweep-built slab structure of the same
    members says, bit for bit (Lemma 3.1 turns on ``distance <=
    boundary distance``; the remainder rectangles pick the broadcast
    buckets; Lemma 3.2 turns on ``exp(-λu) >= threshold``).  The
    containment mask is probed where cuts cross: each member's
    corners, its cuts against the next member's, and the midpoint
    between the two (a cell interior, often a hole).  The discs around
    ``point`` are one tangent to the nearest boundary edge, one
    swallowing the MBR and one half-way, each read as a batch of one,
    and the caller's ``radii`` (the heap's, at the annotate seam) read
    as the one batch ``annotate_heap`` makes of them — against the
    sweep's pieces one disc and one piece at a time.
    """
    from ..geometry import Circle
    from ..geometry.region import (
        boundary_min_distance,
        slabs_boundary_coord_arrays,
        slabs_contains_point,
        slabs_covers_rect,
        slabs_disc_intersection_area,
        slabs_subtract_from_rect,
        sweep_slabs,
    )

    members = union.rects
    inside = union.contains_point(point)
    xs, slabs = sweep_slabs(members)
    expected = slabs_contains_point(xs, slabs, point.x, point.y)
    if inside != expected:
        raise InvariantViolation(
            f"union contains_point({point.x!r}, {point.y!r}) is {inside},"
            f" the slab sweep says {expected}"
        )
    pxs, pys = [point.x], [point.y]
    for r, s in zip(members, members[1:] + members[:1]):
        pxs += (r.x1, r.x2, r.x1, s.x2, (r.x1 + s.x2) / 2.0)
        pys += (r.y1, r.y2, s.y2, r.y1, (r.y1 + s.y2) / 2.0)
    mask = union.contains_points(np.array(pxs), np.array(pys)).tolist()
    expected = [slabs_contains_point(xs, slabs, x, y) for x, y in zip(pxs, pys)]
    if mask != expected:
        at = next(i for i, (a, b) in enumerate(zip(mask, expected)) if a != b)
        raise InvariantViolation(
            f"union contains_points at ({pxs[at]!r}, {pys[at]!r}) is"
            f" {mask[at]}, the slab sweep says {expected[at]}"
        )
    if window is not None:
        covered = union.covers_rect(window)
        expected = slabs_covers_rect(xs, slabs, window)
        if covered != expected:
            raise InvariantViolation(
                f"union covers_rect({window!r}) is {covered},"
                f" the slab sweep says {expected}"
            )
        remainder = union.subtract_from_rect(window)
        expected = slabs_subtract_from_rect(xs, slabs, window)
        if remainder != expected:
            raise InvariantViolation(
                f"union subtract_from_rect({window!r}) is {remainder!r},"
                f" the slab sweep says {expected!r}"
            )
    if not members:
        return
    distance = union.distance_to_boundary(point)
    expected = boundary_min_distance(
        slabs_boundary_coord_arrays(xs, slabs), point.x, point.y
    )
    if distance != expected:
        raise InvariantViolation(
            f"union distance_to_boundary({point.x!r}, {point.y!r}) is"
            f" {distance!r}, the slab sweep says {expected!r}"
        )
    beyond = 1.5 * union.mbr().max_distance_to_point(point)
    probes = [distance, (distance + beyond) / 2.0, beyond]
    areas = [union.disc_intersection_area(Circle(point, r)) for r in probes]
    if radii:
        discs = union.disc_pieces(point, max(radii))
        probes += radii
        areas += [discs.intersection_area(r) for r in radii]
    for radius, area in zip(probes, areas):
        expected = slabs_disc_intersection_area(
            xs, slabs, Circle(point, radius)
        )
        if area != expected:
            raise InvariantViolation(
                f"union disc area at ({point.x!r}, {point.y!r}), radius"
                f" {radius!r} is {area!r}, the slab sweep says {expected!r}"
            )
