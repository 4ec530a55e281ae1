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

The region list is kept *settled* — area-descending, no region inside
an earlier one — and one marker records what an eviction moved since
the last settle, so the next settle re-checks only those regions.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from ..check import invariants
from ..errors import CacheError
from ..geometry import Point, Rect
from ..model import POI
from .entry import CacheItem, VerifiedRegion
from .policy import DirectionDistancePolicy, ReplacementPolicy

import numpy as np

EVICTION_MARGIN = 1e-9

# The two states of ``POICache._moved`` that are not a list of the
# regions a repair rebuilt: nothing moved since the last settle, and
# every region counts as moved (a list of unknown history).
SETTLED = ()
ALL_MOVED = None


# Sort key of the coalescing pass, read in C (sorted with reverse=True,
# which keeps equal areas in list order).
_area = attrgetter("area")


def shrink_rect_to_exclude(rect: Rect, p: Point) -> Rect | None:
    """The largest of the four axis cuts of ``rect`` that excludes ``p``.

    ``rect`` itself when ``p`` lies outside it, ``None`` when no
    positive-area remainder exists.
    """
    x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
    if not (x1 <= p.x <= x2 and y1 <= p.y <= y2):
        return rect
    bounds = cut_excluding(x1, y1, x2, y2, p.x, p.y)
    return None if bounds is None else Rect(*bounds)


def cut_excluding(
    x1: float, y1: float, x2: float, y2: float, px: float, py: float
) -> tuple[float, float, float, float] | None:
    """Bounds of the largest of the four axis cuts of the closed box
    ``(x1, y1, x2, y2)`` that excludes ``(px, py)``, a point inside it.

    Returns ``None`` when no positive-area remainder exists.

    The candidate areas are compared arithmetically (same expressions
    as ``Rect.area``, same left/right/down/up precedence on ties) —
    this runs once per (region, victim) shrink, the hottest loop of
    cache eviction, so it takes and returns floats: the victim arrives
    straight off the eviction arrays, and a region cut by several
    victims becomes one :class:`Rect` after its last cut.
    """
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
        return x1, y1, cut_left, y2
    if best == 1:
        return cut_right, y1, x2, y2
    if best == 2:
        return x1, y1, x2, cut_down
    return x1, cut_up, x2, y2


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
        # What moved since the region list was last settled (area-sorted,
        # no region inside an earlier one): ``SETTLED`` while no
        # eviction has shrunk or dropped a region — the precondition for
        # the fused insert in :meth:`_insert_result` — else the list of
        # regions :meth:`_repair_regions` rebuilt, which is all
        # :meth:`_coalesce_regions` re-checks in full, or ``ALL_MOVED``.
        self._moved: list[VerifiedRegion] | tuple[()] | None = SETTLED

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
        call is one ``cache.insert`` span below the active query span;
        its ``regions_moved`` / ``regions_shrunk`` are the moved-region
        marker's length when the call starts (what this insert's settle
        re-checks in full) and when it ends (what this call's evictions
        shrank, left for the next settle).
        """
        if tracer is None or not tracer.enabled:
            self._insert_result(region, pois, now, host_position, heading)
            return
        with tracer.span("cache.insert") as span:
            moved = self._moved_count()
            added, evicted = self._insert_result(
                region, pois, now, host_position, heading
            )
            span.set(
                pois_offered=len(pois),
                pois_added=added,
                pois_evicted=evicted,
                regions=len(self._regions),
                regions_moved=moved,
                regions_shrunk=self._moved_count(),
                size=len(self._items),
            )

    def _moved_count(self) -> int:
        """How many regions the marker counts as moved (traced path)."""
        moved = self._moved
        return len(self._regions) if moved is ALL_MOVED else len(moved)

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
            if self._moved is SETTLED and regions:
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
        """Append a verified region the general way, then settle.

        The post-shrink path (the marker not ``SETTLED``) and the first
        region of an empty cache land here; the common case is fused
        into :meth:`_insert_result`.
        """
        newcomer = VerifiedRegion(region, now)
        self._regions.append(newcomer)
        self._coalesce_regions(newcomer)
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
        codec.  Of the moved-region marker only "settled or not"
        crosses; an unsettled cache decodes as ``ALL_MOVED``, whose
        full re-check settles to the same list.
        """
        n = self._slot_n
        return (
            self.capacity,
            self.max_regions,
            self.generation,
            self._moved is SETTLED,
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
        cache._moved = SETTLED if regions_coalesced else ALL_MOVED
        return cache

    # ------------------------------------------------------------------
    def _coalesce_regions(self, newcomer: VerifiedRegion) -> None:
        """Settle the list: drop regions fully covered by another
        (newer wins ties), re-checking in full only what moved.

        Shrinking can push a kept region inside a sibling, and those
        containments are only cleaned up here.  The walk is the full
        scan's — stable area-descending sort, each region tested
        against the kept regions before it — but a region no repair
        rebuilt since the last settle is tested only against the kept
        *moved* ones (the marker's regions and ``newcomer``).  That
        is exact: the unmoved regions keep their rectangles and, under
        the stable sort, their order of the settled list, where none
        sat inside an earlier one — so an unmoved region can only sit
        inside an earlier moved one.  ``ALL_MOVED`` re-checks every
        region — the full scan — through the same loop.  (The common
        insert never comes this way — it is fused into
        :meth:`_insert_result`.)
        """
        regions = self._regions
        if len(regions) > 1:
            moved = self._moved
            if moved is ALL_MOVED:
                fresh = None
            else:
                fresh = set(map(id, moved))
                fresh.add(id(newcomer))
            kept: list[VerifiedRegion] = []
            kept_moved: list[VerifiedRegion] = []
            for vr in sorted(regions, key=_area, reverse=True):
                if fresh is None or id(vr) in fresh:
                    against = kept
                elif kept_moved:
                    against = kept_moved
                else:
                    kept.append(vr)
                    continue
                r = vr.rect
                for other in against:
                    o = other.rect
                    if o.x1 <= r.x1 and o.y1 <= r.y1 and r.x2 <= o.x2 and r.y2 <= o.y2:
                        break
                else:
                    kept.append(vr)
                    if against is kept:
                        kept_moved.append(vr)
            self._regions = kept
        self._moved = SETTLED

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
        arrays, bounds cut in floats and one :class:`Rect` built after
        the last cut) rather than a batched matrix build.  A region
        disjoint from the victims' closed bounding box holds no victim
        and is kept untested.

        Every region it rebuilds joins the moved-region marker, which
        is what the next :meth:`_coalesce_regions` re-checks in full.
        """
        regions = self._regions
        if not regions or not vxs:
            return
        bx1, bx2 = min(vxs), max(vxs)
        by1, by2 = min(vys), max(vys)
        updated: list[VerifiedRegion] = []
        rebuilt: list[VerifiedRegion] = []
        dropped = False
        for vr in regions:
            rect = vr.rect
            if rect.x2 < bx1 or bx2 < rect.x1 or rect.y2 < by1 or by2 < rect.y1:
                updated.append(vr)
                continue
            x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
            shrunk = False
            for px, py in zip(vxs, vys):
                if x1 <= px <= x2 and y1 <= py <= y2:
                    bounds = cut_excluding(x1, y1, x2, y2, px, py)
                    if bounds is None:
                        dropped = True
                        break
                    x1, y1, x2, y2 = bounds
                    shrunk = True
            else:
                if shrunk:
                    vr = VerifiedRegion(Rect(x1, y1, x2, y2), vr.created_at)
                    rebuilt.append(vr)
                updated.append(vr)
        if rebuilt or dropped:
            self._regions = updated
            moved = self._moved
            if moved is SETTLED:
                self._moved = rebuilt
            elif moved is not ALL_MOVED:
                # Repairs with no settle between them: the earlier
                # rebuilt regions still listed stay moved.
                alive = set(map(id, updated))
                self._moved = [vr for vr in moved if id(vr) in alive] + rebuilt

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
