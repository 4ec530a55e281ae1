"""Safe-region derivation for continuous monitoring queries.

A standing query re-evaluated at anchor ``q0`` freezes everything the
host *provably* knows at that instant:

* the union of the cache's verified regions
  (``SlabUnion.from_rects(cache.region_rects)``) gives ``r_known =
  distance_to_boundary(q0) - margin``.  A region enters the cache with
  every server POI of its closed rectangle, and an evicted POI is
  shrunk out of every region that held it, so an uncached server POI
  lies outside the closed union — at least
  ``distance_to_boundary(q0)`` from ``q0``.  The invariant the tests
  can assert (:meth:`POICache.check_soundness`) is the strictly-open
  one, which lets an uncached POI sit within ``margin`` of a
  boundary, and ``r_known`` gives that band away — so every
  *uncached* server POI is at least ``r_known`` from ``q0``;
* the *snapshot* is every cached POI strictly closer than ``r_known``
  to ``q0`` — by the contrapositive above, exactly the set of server
  POIs inside the open disc ``D(q0, r_known)``.  POIs are static, so
  the snapshot never goes stale, whatever the cache does later.

From those two facts purely local re-evaluation is provably exact:

* **kNN** — with ``d_k`` the k-th snapshot distance at the anchor, any
  position ``q`` within ``s = (r_known - d_k) / 2`` of the anchor
  still has its true top-k inside the snapshot: the k-th snapshot
  candidate is within ``d_k + delta`` of ``q`` while every
  non-snapshot POI is at least ``r_known - delta > d_k + delta`` away
  (strict because ``delta < s``), so ``brute_force_knn(snapshot, q,
  k)`` equals the full-database answer bit for bit — the strict
  inequality chain leaves no room even for boundary ties.
* **window** — a window ``W`` with ``W.max_distance_to_point(q0) <
  r_known`` lies inside the disc, so every server POI in ``W`` is in
  the snapshot and ``brute_force_window(snapshot, W)`` is exact.  The
  per-window test (rather than a precomputed scalar radius) matters
  because :meth:`QueryEvent.window_for` clamps the window centre at
  the service-area bounds — the window does not translate rigidly
  with the host.

The strict ``<`` comparisons throughout mirror the strictly-open
interiority :meth:`check_soundness` asserts: a POI sitting exactly on
the margin band is allowed to be uncached, so the safe tests must
never claim it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cache import EVICTION_MARGIN, POICache
from ..geometry import Point, Rect, SlabUnion
from ..index import brute_force_knn, brute_force_window
from ..model import POI, QueryResultEntry


@dataclass(frozen=True, slots=True)
class SafeRegion:
    """A frozen certificate of local knowledge around an anchor.

    ``snapshot`` is exactly the server POIs inside the open disc
    ``D(anchor, r_known)`` at derivation time; ``safe_radius`` is the
    kNN safe disc radius (0.0 when the snapshot cannot seat ``k``
    candidates, making every kNN tick a miss).
    """

    anchor: Point
    r_known: float
    snapshot: tuple[POI, ...]
    safe_radius: float = 0.0

    # ------------------------------------------------------------------
    def knn_safe(self, position: Point) -> bool:
        """True when the snapshot provably contains the top-k here."""
        return (
            math.hypot(position.x - self.anchor.x, position.y - self.anchor.y)
            < self.safe_radius
        )

    def window_safe(self, window: Rect) -> bool:
        """True when the snapshot provably covers ``window``."""
        return window.max_distance_to_point(self.anchor) < self.r_known

    # ------------------------------------------------------------------
    def knn_answer(self, position: Point, k: int) -> list[QueryResultEntry]:
        """The exact kNN answer, valid whenever :meth:`knn_safe` holds."""
        return brute_force_knn(self.snapshot, position, k)

    def window_answer(self, window: Rect) -> tuple[POI, ...]:
        """The exact window answer, valid under :meth:`window_safe`."""
        return tuple(brute_force_window(self.snapshot, window))


def derive_safe_region(
    cache: POICache,
    anchor: Point,
    k: int | None = None,
    margin: float = EVICTION_MARGIN,
) -> SafeRegion | None:
    """Derive a :class:`SafeRegion` from a cache's verified regions.

    Returns ``None`` when the anchor is outside the verified area (or
    the margin-shrunk knowledge radius vanishes) — the standing query
    then re-evaluates every tick until knowledge accumulates.

    ``margin`` exists for the metamorphic shrink property: deriving
    with an inflated margin models knowledge loss, and the (smaller)
    region must still answer exactly within its own disc.
    """
    union = SlabUnion.from_rects(cache.region_rects)
    if union.is_empty or not union.contains_point(anchor):
        return None
    r_known = union.distance_to_boundary(anchor) - margin
    if r_known <= 0.0:
        return None
    ax, ay = anchor.x, anchor.y
    ranked = sorted(
        (math.hypot(poi.x - ax, poi.y - ay), poi.poi_id, poi)
        for poi in cache.pois
    )
    snapshot = tuple(
        poi for distance, _, poi in ranked if distance < r_known
    )
    safe_radius = 0.0
    if k is not None and len(snapshot) >= k:
        d_k = ranked[k - 1][0]
        safe_radius = (r_known - d_k) / 2.0
    return SafeRegion(
        anchor=anchor,
        r_known=r_known,
        snapshot=snapshot,
        safe_radius=safe_radius,
    )
