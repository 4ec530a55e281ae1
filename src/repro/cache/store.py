"""The per-host cooperative cache.

Invariant (tested property): every verified region only covers space
whose server POIs are *all* present in the cache.  Insertions provide
a region together with the complete POI set inside it; evictions first
shrink any region containing the victim so the invariant survives.

Shrinking cuts the region along the side that loses the least area and
pushes the cut a hair (``EVICTION_MARGIN``) past the victim so the
victim ends up strictly outside the closed region.

The verified area has one representation, the rectangle list
``_regions`` — what ``share()`` sends and what every reader (the
merged MVR of a query, the continuous safe regions) builds its union
from.  One auxiliary structure rides along with the POI table: a
structure-of-arrays mirror of the cached POI coordinates and ids
(append on insert, swap-remove on evict), so the eviction policy
scores candidates straight from arrays instead of rebuilding them from
the item dict on every capacity breach.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..check import invariants
from ..errors import CacheError
from ..geometry import Point, Rect
from ..model import POI
from .entry import CacheItem, VerifiedRegion
from .policy import DirectionDistancePolicy, ReplacementPolicy

import numpy as np

EVICTION_MARGIN = 1e-9


def _descending_area(vr: "VerifiedRegion") -> float:
    """Sort key of the coalescing pass (module-level: no closure rebuild)."""
    return -vr.area


def shrink_rect_to_exclude(rect: Rect, p: Point) -> Rect | None:
    """The largest of the four axis cuts of ``rect`` that excludes ``p``."""
    return shrink_rect_to_exclude_xy(rect, p.x, p.y)


def shrink_rect_to_exclude_xy(rect: Rect, px: float, py: float) -> Rect | None:
    """The largest of the four axis cuts of ``rect`` excluding ``(px, py)``.

    Returns ``None`` when no positive-area remainder exists.

    The candidate areas are compared arithmetically (same expressions
    as ``Rect.area``, same left/right/down/up precedence on ties) and
    only the winning rectangle is constructed — this runs once per
    (region, victim) shrink, the hottest loop of cache eviction, so
    the victim arrives as two floats straight off the eviction arrays
    rather than a constructed :class:`Point`.
    """
    x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
    if not (x1 <= px <= x2 and y1 <= py <= y2):
        return rect
    cut_left = px - EVICTION_MARGIN
    cut_right = px + EVICTION_MARGIN
    cut_down = py - EVICTION_MARGIN
    cut_up = py + EVICTION_MARGIN
    width = x2 - x1
    height = y2 - y1
    best = -1
    best_area = 0.0
    if cut_left > x1:
        w = cut_left - x1
        if w != 0.0 and height != 0.0:
            best, best_area = 0, w * height
    if cut_right < x2:
        w = x2 - cut_right
        if w != 0.0 and height != 0.0:
            area = w * height
            if area > best_area or best < 0:
                best, best_area = 1, area
    if cut_down > y1:
        h = cut_down - y1
        if width != 0.0 and h != 0.0:
            area = width * h
            if area > best_area or best < 0:
                best, best_area = 2, area
    if cut_up < y2:
        h = y2 - cut_up
        if width != 0.0 and h != 0.0:
            area = width * h
            if area > best_area or best < 0:
                best, best_area = 3, area
    if best < 0:
        return None
    if best == 0:
        return Rect(x1, y1, cut_left, y2)
    if best == 1:
        return Rect(cut_right, y1, x2, y2)
    if best == 2:
        return Rect(x1, y1, x2, cut_down)
    return Rect(x1, cut_up, x2, y2)


class POICache:
    """Bounded POI cache with verified-region maintenance."""

    def __init__(
        self,
        capacity: int,
        policy: ReplacementPolicy | None = None,
        max_regions: int = 4,
    ):
        if capacity < 1:
            raise CacheError(f"cache capacity must be >= 1, got {capacity}")
        if max_regions < 1:
            raise CacheError(f"max_regions must be >= 1, got {max_regions}")
        self.capacity = capacity
        self.max_regions = max_regions
        self.policy = policy if policy is not None else DirectionDistancePolicy()
        self._items: dict[int, CacheItem] = {}
        self._regions: list[VerifiedRegion] = []
        # Structure-of-arrays mirror of the POI table: coordinates and
        # ids appended on insert, swap-removed on evict, so capacity
        # enforcement scores candidates without rebuilding arrays from
        # the item dict.  No id->slot map is kept — the batch eviction
        # path already knows its victims' slots, and a rank-only policy
        # scans the id column.
        self._slot_n = 0
        self._slot_xs = np.empty(64, np.float64)
        self._slot_ys = np.empty(64, np.float64)
        self._slot_ids = np.empty(64, np.int64)
        # Monotone content stamp: bumped whenever the POI set or the
        # verified regions change, so share responses can be memoised
        # on (host, generation) and stay sound.
        self.generation = 0
        # True while no region has been shrunk (or dropped) by an
        # eviction since the last full coalesce — the precondition for
        # the fused insert in :meth:`_insert_result` (no containments
        # can lurk among the kept regions).
        self._regions_coalesced = True

    # ------------------------------------------------------------------
    def _drop_slot_of(self, poi_id: int) -> None:
        """Swap-remove one POI from the coordinate arrays by id.

        Scans the (small) id column — only rank-only policies come
        through here; the batch eviction path already knows its
        victims' slot indices.
        """
        last = self._slot_n - 1
        ids_b = self._slot_ids
        slot = int(np.flatnonzero(ids_b[: last + 1] == poi_id)[0])
        self._slot_n = last
        if slot != last:
            self._slot_xs[slot] = self._slot_xs[last]
            self._slot_ys[slot] = self._slot_ys[last]
            ids_b[slot] = ids_b[last]

    def _grow_slots(self) -> None:
        """Double the coordinate-array capacity (amortised O(1))."""
        n = self._slot_n
        for name in ("_slot_xs", "_slot_ys", "_slot_ids"):
            old = getattr(self, name)
            grown = np.empty(2 * n, old.dtype)
            grown[:n] = old
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, poi_id: int) -> bool:
        return poi_id in self._items

    @property
    def pois(self) -> list[POI]:
        """The cached POIs (insertion order), as a fresh list."""
        return [item.poi for item in self._items.values()]

    @property
    def regions(self) -> list[VerifiedRegion]:
        return list(self._regions)

    @property
    def region_rects(self) -> list[Rect]:
        return [vr.rect for vr in self._regions]

    # ------------------------------------------------------------------
    def insert_result(
        self,
        region: Rect,
        pois: Sequence[POI],
        now: float,
        host_position: Point,
        heading: tuple[float, float] = (0.0, 0.0),
        tracer=None,
    ) -> None:
        """Store a query result: a region plus *all* server POIs in it.

        Completeness of ``pois`` within ``region`` is the caller's
        contract; capacity pressure is resolved here by policy-ranked
        eviction with region shrinking.

        The content generation moves at most once per call, however
        many POIs, regions, and evictions the call touches — the
        share-response memo and the halo sync key on the generation,
        so a double bump would invalidate them twice for one change.
        Under an enabled ``tracer`` (a :class:`repro.obs.Tracer`) the
        call is one ``cache.insert`` span below the active query span.
        """
        if tracer is None or not tracer.enabled:
            self._insert_result(region, pois, now, host_position, heading)
            return
        with tracer.span("cache.insert") as span:
            added, evicted = self._insert_result(
                region, pois, now, host_position, heading
            )
            span.set(
                pois_offered=len(pois),
                pois_added=added,
                pois_evicted=evicted,
                regions=len(self._regions),
                size=len(self._items),
            )

    def _insert_result(
        self,
        region: Rect,
        pois: Sequence[POI],
        now: float,
        host_position: Point,
        heading: tuple[float, float],
    ) -> tuple[int, int]:
        """The uninstrumented insert; returns (POIs added, POIs evicted)."""
        items = self._items
        n = self._slot_n
        xs_b = self._slot_xs
        ys_b = self._slot_ys
        ids_b = self._slot_ids
        cap = xs_b.size
        start_n = n
        new_item = CacheItem.__new__
        for poi in pois:
            # ``in`` + subscript instead of ``dict.get``: the
            # containment and subscript opcodes stay off the profiled
            # C-call path this loop otherwise dominates, and misses
            # (the common case under churn) pay no failed lookup
            # result handling.
            poi_id = poi.poi_id
            if poi_id in items:
                items[poi_id].last_used = now
            else:
                # Inline CacheItem(poi, now, now): allocation via
                # __new__ plus direct slot stores — one C allocation
                # instead of a Python-frame __init__ per cached POI.
                item = new_item(CacheItem)
                item.poi = poi
                item.inserted_at = now
                item.last_used = now
                items[poi_id] = item
                if n == cap:
                    self._slot_n = n
                    self._grow_slots()
                    xs_b = self._slot_xs
                    ys_b = self._slot_ys
                    ids_b = self._slot_ids
                    cap = xs_b.size
                location = poi.location
                xs_b[n] = location.x
                ys_b[n] = location.y
                ids_b[n] = poi_id
                n += 1
        self._slot_n = n
        added = n - start_n
        changed = added > 0
        # Inline Rect.is_degenerate (zero width or height): IEEE
        # subtraction is zero exactly when the operands are equal.
        if region.x2 != region.x1 and region.y2 != region.y1:
            regions = self._regions
            if self._regions_coalesced and regions:
                # Fused covered-check + coalesce: while the
                # incumbents are containment-free and area-sorted, the
                # only possible containments involve the newcomer, so
                # one pass settles what the append + full scan of
                # :meth:`_coalesce_regions` would.  A newcomer inside
                # an incumbent changes neither the region list nor
                # the union — skip the append *and* the generation
                # bump (nothing observable moved, so the memoised
                # share response stays valid, which is exactly what
                # the stamp exists to exploit).  Otherwise
                # drop any incumbents the newcomer covers and
                # binary-insert it into the area-descending order,
                # ties landing behind, where the stable full-scan
                # sort would put it.
                rx1, ry1 = region.x1, region.y1
                rx2, ry2 = region.x2, region.y2
                covered: list[int] | None = None
                covered_by_incumbent = False
                for idx in range(len(regions)):
                    o = regions[idx].rect
                    if (
                        o.x1 <= rx1
                        and o.y1 <= ry1
                        and rx2 <= o.x2
                        and ry2 <= o.y2
                    ):
                        covered_by_incumbent = True
                        break
                    if (
                        rx1 <= o.x1
                        and ry1 <= o.y1
                        and o.x2 <= rx2
                        and o.y2 <= ry2
                    ):
                        if covered is None:
                            covered = [idx]
                        else:
                            covered.append(idx)
                if not covered_by_incumbent:
                    changed = True
                    if covered is not None:
                        for idx in reversed(covered):
                            del regions[idx]
                    new_vr = VerifiedRegion(region, now)
                    area = new_vr.area
                    if regions and regions[-1].area >= area:
                        regions.append(new_vr)
                    else:
                        lo, hi = 0, len(regions)
                        while lo < hi:
                            mid = (lo + hi) // 2
                            if regions[mid].area >= area:
                                lo = mid + 1
                            else:
                                hi = mid
                        regions.insert(lo, new_vr)
                    if len(regions) > self.max_regions:
                        self._trim_regions(host_position)
            else:
                changed = True
                self._append_region(region, now, host_position)
        # Inlined no-excess guard: most inserts sit at or under
        # capacity and skip the call entirely.
        evicted = 0
        if len(items) > self.capacity:
            evicted = self._enforce_capacity(now, host_position, heading)
        if changed or evicted:
            self.generation += 1
        if invariants.ENABLED:
            invariants.check_cache(self)
        return added, evicted

    def _append_region(
        self, region: Rect, now: float, host_position: Point
    ) -> None:
        """Append a verified region the general way: full coalesce.

        The post-shrink path (``_regions_coalesced`` false) and the
        first region of an empty cache land here; the common case is
        fused into :meth:`_insert_result`.
        """
        self._regions.append(VerifiedRegion(region, now))
        self._coalesce_regions()
        if len(self._regions) > self.max_regions:
            self._trim_regions(host_position)

    def _trim_regions(self, host_position: Point) -> None:
        """Enforce ``max_regions``: drop the region farthest from the
        host (its POIs stay cached).  Single pass, one distance per
        region; ties keep the first maximum, as ``max()`` over the old
        per-trip lambda did."""
        regions = self._regions
        while len(regions) > self.max_regions:
            worst = 0
            worst_dist = regions[0].rect.distance_to_point(host_position)
            for idx in range(1, len(regions)):
                dist = regions[idx].rect.distance_to_point(host_position)
                if dist > worst_dist:
                    worst, worst_dist = idx, dist
            del regions[worst]

    def touch(self, poi_ids: Iterable[int], now: float) -> None:
        """Record use of cached POIs (LRU bookkeeping)."""
        for poi_id in poi_ids:
            item = self._items.get(poi_id)
            if item is not None:
                item.last_used = now

    def share(self) -> tuple[list[Rect], list[POI]]:
        """What this host sends a requesting peer: VR rects + POIs.

        Serving a peer is not a local *use* of the data, so it leaves
        the LRU clock alone (callers record genuine uses via
        :meth:`touch`) and needs no clock at all — the content depends
        only on the cache state, never on when the request arrives.
        Fresh list copies of :meth:`frozen_snapshot` are returned so
        callers may mutate them.
        """
        _, regions, pois = self.frozen_snapshot()
        return list(regions), list(pois)

    def frozen_snapshot(
        self,
    ) -> tuple[int, tuple[Rect, ...], tuple[POI, ...]]:
        """``(generation, region_rects, pois)``: the shareable state.

        Immutable, and built per call: the stamp moves exactly when
        the POI set or the regions change, so a caller that wants one
        snapshot per generation keeps it beside the stamp (the host's
        share response does).
        """
        return self.generation, tuple(self.region_rects), tuple(self.pois)

    # ------------------------------------------------------------------
    # Binary codec support (see repro.codec.types)
    # ------------------------------------------------------------------
    def codec_state(self) -> tuple:
        """The cache's replayable state as flat structures.

        Everything the host-migration codec ships: configuration
        scalars, the POI table in dict insertion order (load-bearing:
        ``pois``/``share`` iterate it), the verified regions in their
        area-descending list order, and the *exact* slot-array prefix
        (swap-remove order is load-bearing for batch eviction).
        The policy is excluded — it is encoded separately by the
        codec.
        """
        n = self._slot_n
        return (
            self.capacity,
            self.max_regions,
            self.generation,
            self._regions_coalesced,
            tuple(self._items.values()),
            tuple(self._regions),
            self._slot_ids[:n],
            self._slot_xs[:n],
            self._slot_ys[:n],
        )

    @classmethod
    def from_codec_state(
        cls,
        policy: ReplacementPolicy,
        capacity: int,
        max_regions: int,
        generation: int,
        regions_coalesced: bool,
        items: Sequence[CacheItem],
        regions: Sequence[VerifiedRegion],
        slot_ids,
        slot_xs,
        slot_ys,
    ) -> "POICache":
        """Rebuild a cache from :meth:`codec_state` components.

        The slot arrays arrive as (possibly read-only ``frombuffer``)
        views; they are copied into fresh writable buffers sized by
        the same doubling schedule ``_grow_slots`` uses.
        """
        if capacity < 1:
            raise CacheError(f"cache capacity must be >= 1, got {capacity}")
        if max_regions < 1:
            raise CacheError(f"max_regions must be >= 1, got {max_regions}")
        cache = cls.__new__(cls)
        cache.capacity = capacity
        cache.max_regions = max_regions
        cache.policy = policy
        cache._items = {item.poi.poi_id: item for item in items}
        if len(cache._items) != len(items):
            raise CacheError("duplicate POI ids in codec cache state")
        cache._regions = list(regions)
        n = int(np.asarray(slot_ids).size)
        grown = 64
        while grown < n:
            grown *= 2
        cache._slot_n = n
        cache._slot_xs = np.empty(grown, np.float64)
        cache._slot_ys = np.empty(grown, np.float64)
        cache._slot_ids = np.empty(grown, np.int64)
        cache._slot_xs[:n] = slot_xs
        cache._slot_ys[:n] = slot_ys
        cache._slot_ids[:n] = slot_ids
        cache.generation = generation
        cache._regions_coalesced = regions_coalesced
        return cache

    # ------------------------------------------------------------------
    def _coalesce_regions(self) -> None:
        """Drop regions fully covered by another (newer wins ties).

        The plain full scan: shrinking can push a kept region inside a
        sibling, and those stale containments are only cleaned up
        here.  (The common insert never comes this way — it is fused
        into :meth:`_insert_result`.)
        """
        regions = self._regions
        if len(regions) > 1:
            kept: list[VerifiedRegion] = []
            for vr in sorted(regions, key=_descending_area):
                rect = vr.rect
                rx1, ry1, rx2, ry2 = rect.x1, rect.y1, rect.x2, rect.y2
                for other in kept:
                    o = other.rect
                    if o.x1 <= rx1 and o.y1 <= ry1 and rx2 <= o.x2 and ry2 <= o.y2:
                        break
                else:
                    kept.append(vr)
            self._regions = kept
        self._regions_coalesced = True

    def _enforce_capacity(
        self, now: float, host_position: Point, heading: tuple[float, float]
    ) -> int:
        """Evict down to capacity; returns the number of POIs evicted.

        Eviction is batched: every victim is ranked in one vectorised
        policy call, all victims leave the POI table in one pass, and
        the verified regions are repaired once for the whole batch —
        the per-victim path re-scanned every region per eviction.  The
        batch is observationally identical to evicting the ranked
        victims one at a time (the property suite pins this against
        its own per-victim loop).
        """
        excess = len(self._items) - self.capacity
        if excess <= 0:
            return 0
        items = self._items
        xs_b = self._slot_xs
        ys_b = self._slot_ys
        ids_b = self._slot_ids
        select = getattr(self.policy, "select_victims", None)
        if select is not None:
            # Victims straight from the coordinate arrays (same
            # ranking as rank_victims — the batch-eviction suite pins
            # it), then swap-remove their slots highest-index first so
            # a pending victim is never relocated into a freed slot.
            n = self._slot_n
            sel = select(
                xs_b[:n], ys_b[:n], ids_b[:n], excess, host_position, heading
            )
            victim_ids = ids_b[sel].tolist()
            vxs = xs_b[sel].tolist()
            vys = ys_b[sel].tolist()
            for vid in victim_ids:
                del items[vid]
            for slot in np.sort(sel)[::-1].tolist():
                last = self._slot_n - 1
                self._slot_n = last
                if slot != last:
                    xs_b[slot] = xs_b[last]
                    ys_b[slot] = ys_b[last]
                    ids_b[slot] = ids_b[last]
        else:
            victims = self.policy.rank_victims(
                list(items.values()), host_position, heading
            )[:excess]
            vxs = []
            vys = []
            for item in victims:
                vid = item.poi.poi_id
                del items[vid]
                self._drop_slot_of(vid)
                location = item.poi.location
                vxs.append(location.x)
                vys.append(location.y)
        self._repair_regions(vxs, vys)
        return excess

    def _repair_regions(
        self, vxs: Sequence[float], vys: Sequence[float]
    ) -> None:
        """Shrink every region covering an evicted point, in one pass.

        Equivalent to shrinking the regions victim by victim (the
        loop the batch-eviction suite keeps): regions are independent of
        one another, so the victim loop can move inside the region
        loop as long as each region sees the victims in eviction
        order.  ``max_regions`` keeps the outer loop tiny, so the
        containment test runs on local floats (victim coordinates
        arrive as parallel float lists straight off the eviction
        arrays, bounds refreshed after each shrink) rather than a
        batched matrix build.
        """
        regions = self._regions
        if not regions or not vxs:
            return
        updated: list[VerifiedRegion] = []
        changed = False
        for vr in regions:
            rect = vr.rect
            x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
            for px, py in zip(vxs, vys):
                if x1 <= px <= x2 and y1 <= py <= y2:
                    rect = shrink_rect_to_exclude_xy(rect, px, py)
                    if rect is None:
                        break
                    x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
            if rect is None:
                changed = True
            elif rect is vr.rect:
                updated.append(vr)
            else:
                changed = True
                updated.append(VerifiedRegion(rect, vr.created_at))
        if changed:
            self._regions = updated
            self._regions_coalesced = False

    # ------------------------------------------------------------------
    def check_soundness(
        self, server_pois: Iterable[POI], margin: float = EVICTION_MARGIN
    ) -> None:
        """Test helper: assert the verified-region invariant.

        Every server POI *strictly more than* ``margin`` inside a
        region must be cached — strictly-open interiority: eviction
        shrinking leaves the survivor exactly ``margin`` from the
        excluded point, so a POI sitting precisely on the margin band
        is legal.

        What the cache maintains is stronger, and is what the
        continuous safe regions rely on: shrinking leaves the victim
        outside every *closed* region, so an uncached POI is at least
        ``distance_to_boundary(q)`` from any point ``q`` of the
        verified area (they give the ``margin`` band away on top).
        """
        server_pois = list(server_pois)
        for vr in self._regions:
            rect = vr.rect
            # A rectangle thinner than the 2*margin band has no strict
            # interior at this margin: nothing to check (and the
            # negative-margin shrink would be malformed).  Only this
            # degenerate case is skipped — any other failure below
            # must propagate, not silently skip the region.
            if (
                rect.x2 - rect.x1 <= 2.0 * margin
                or rect.y2 - rect.y1 <= 2.0 * margin
            ):
                continue
            inner = rect.expanded(-margin)
            ix1, iy1, ix2, iy2 = inner.x1, inner.y1, inner.x2, inner.y2
            for poi in server_pois:
                location = poi.location
                # Open comparisons: for a rectangle,
                # ``distance-to-boundary > margin`` is exactly strict
                # containment in the margin-shrunk rectangle.
                if (
                    ix1 < location.x < ix2
                    and iy1 < location.y < iy2
                    and poi.poi_id not in self
                ):
                    raise CacheError(
                        f"verified region {vr.rect.as_tuple()} covers uncached"
                        f" POI {poi.poi_id} at ({poi.x}, {poi.y})"
                    )
