"""The per-host cooperative cache.

Invariant (tested property): every verified region only covers space
whose server POIs are *all* present in the cache.  Insertions provide
a region together with the complete POI set inside it; evictions first
shrink any region containing the victim so the invariant survives.

Shrinking cuts the region along the side that loses the least area and
pushes the cut a hair (``EVICTION_MARGIN``) past the victim so the
victim ends up strictly outside the closed region.

The POI table ``_items`` maps each cached POI's id to the POI object
it was offered (in one process, the station's own, shared by every
cache holding it): a cached POI costs one dict entry and no record of
its own.  What a replacement policy needs beyond the POI, it keeps
itself (see :mod:`repro.cache.policy`).

The verified area has one representation, the rectangle list
``_regions`` — what ``share()`` sends and what every reader (the
merged MVR of a query, the continuous safe regions) builds its union
from.  One auxiliary structure rides along with the POI table: a
structure-of-arrays mirror of the cached POI coordinates and ids, in
the table's own order (appended on insert, compacted in order on
evict), so the eviction policy scores candidates straight from arrays
instead of rebuilding them from the item dict.

A cache adopts one query's shared result per call — a *visit* — and
ranks the visit's POIs at most once (see
:meth:`POICache.insert_result`).

The region list is kept *settled* — area-descending, no region inside
an earlier one — and one marker records what an eviction moved since
the last settle, so the next settle re-checks only those regions.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

from ..check import invariants
from ..errors import CacheError
from ..geometry import Point, Rect
from ..model import POI
from .entry import SharedResult, VerifiedRegion
from .policy import DIRECTION_DISTANCE, ReplacementPolicy

import numpy as np

EVICTION_MARGIN = 1e-9

# The two states of ``POICache._moved`` that are not a list of the
# regions a repair rebuilt: nothing moved since the last settle, and
# every region counts as moved (a list of unknown history).
SETTLED = ()
ALL_MOVED = None

# The ``cache.insert`` span's attributes, each a sum over the visit's
# steps.
_SPAN_COUNTS = (
    "pois_offered",
    "pois_added",
    "pois_evicted",
    "regions",
    "regions_moved",
    "regions_shrunk",
    "size",
)


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


class _RankedRest:
    """A visit's steps after its first overflow, against one ranking.

    ``doomed`` / ``xs`` / ``ys`` are the doomed POIs' ids and
    coordinates in eviction (rank) order.  ``present`` holds the ranks
    in play now, ``enters[j]`` the ranks step ``j`` brings in at their
    first offer, ``added_at[j]`` the survivors it admits; ``again[j]``
    and ``revisits[j]`` are the ids step ``j`` offers that an earlier
    step may have evicted (offered before, or a table POI's first
    offer), and ``gone`` the doomed POIs evicted so far, by id — offered
    again, they come back in and are evicted again.
    """

    __slots__ = (
        "doomed", "xs", "ys", "present", "enters", "added_at", "again",
        "revisits", "gone",
    )

    def __init__(
        self,
        steps: int,
        doomed: list[int],
        xs: list[float],
        ys: list[float],
        again: list[list[int]],
        revisits: dict[int, list[int]],
    ) -> None:
        self.doomed = doomed
        self.xs = xs
        self.ys = ys
        self.present: list[int] = []
        self.enters: list[list[int]] = [[] for _ in range(steps)]
        self.added_at = [0] * steps
        self.again = again
        self.revisits = revisits
        self.gone: dict[int, int] = {}

    def admit(self, step: int) -> int:
        """Step ``step``'s admissions; returns how many came in."""
        added = self.added_at[step]
        entering = self.enters[step]
        if entering:
            self.present += entering
            added += len(entering)
        gone = self.gone
        if gone:
            present = self.present
            revisits = self.revisits.get(step, ())
            for poi_id in chain(self.again[step], revisits):
                r = gone.pop(poi_id, None)
                if r is not None:
                    present.append(r)
                    added += 1
        return added

    def evict(self, count: int) -> tuple[list[float], list[float]]:
        """The ``count`` most evictable present POIs leave; their
        coordinates in eviction order."""
        present = self.present
        present.sort()
        victims = present[:count]
        del present[:count]
        self.gone.update(zip(map(self.doomed.__getitem__, victims), victims))
        return (
            list(map(self.xs.__getitem__, victims)),
            list(map(self.ys.__getitem__, victims)),
        )


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
        self.policy = policy if policy is not None else DIRECTION_DISTANCE
        self._items: dict[int, POI] = {}
        self._regions: list[VerifiedRegion] = []
        self._slot_xs = array("d")
        self._slot_ys = array("d")
        self._slot_ids = array("q")
        # Monotone content stamp: bumped whenever the POI set or the
        # verified regions change, so share responses can be memoised
        # on (host, generation) and stay sound.
        self.generation = 0
        # The share response the owning host built for this generation
        # (``None`` until asked): dropped at every bump, so a stale one
        # is never kept.
        self.response = None
        # What moved since the region list was last settled (area-sorted,
        # no region inside an earlier one): ``SETTLED`` while no
        # eviction has shrunk or dropped a region — the precondition for
        # the fused insert in :meth:`_place_region` — else the list of
        # regions :meth:`_repair_regions` rebuilt, which is all
        # :meth:`_coalesce_regions` re-checks in full, or ``ALL_MOVED``.
        self._moved: list[VerifiedRegion] | tuple[()] | None = SETTLED

    # ------------------------------------------------------------------
    # The coordinate mirror.  ``_slot_xs`` / ``_slot_ys`` / ``_slot_ids``
    # hold the cached POIs' coordinates and ids in the order ``_items``
    # lists them — one order for the table and its mirror
    # (``check_cache`` asserts it), which is what lets the codec leave
    # the mirror out of a host record and rebuild it on decode.  They
    # are ``array.array`` columns: an admitted POI is three appends, an
    # evicted one three deletes in place, and a ranking reads numpy
    # copies.
    # ------------------------------------------------------------------
    def _slot_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The mirror as numpy ``(xs, ys, ids)`` arrays, for a ranking."""
        return (
            np.array(self._slot_xs),
            np.array(self._slot_ys),
            np.array(self._slot_ids),
        )

    def _delete_slots(self, slots: Iterable[int]) -> None:
        """Delete mirror entries by position (the rest keep their order)."""
        xs = self._slot_xs
        ys = self._slot_ys
        ids = self._slot_ids
        for slot in sorted(slots, reverse=True):
            del xs[slot]
            del ys[slot]
            del ids[slot]

    def _drop(self, poi_ids: Sequence[int]) -> tuple[list[float], list[float]]:
        """Remove cached POIs by id from the table and the mirror.

        Returns the victims' coordinates in ``poi_ids`` order, for the
        region repair.  Rank-only policies evict through here.
        """
        items = self._items
        vxs: list[float] = []
        vys: list[float] = []
        for poi_id in poi_ids:
            location = items.pop(poi_id).location
            vxs.append(location.x)
            vys.append(location.y)
        self._delete_slots(map(self._slot_ids.index, poi_ids))
        return vxs, vys

    def poi_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, xs, ys)`` of the cached POIs in item order.

        Numpy copies of the mirror: the columns of this generation's
        share response (:meth:`frozen_snapshot` lists the POIs in the
        same order), which later visits leave untouched.
        """
        return (
            np.array(self._slot_ids),
            np.array(self._slot_xs),
            np.array(self._slot_ys),
        )

    def mirror_ids(self) -> list[int]:
        """The mirror's POI ids in its order (equal to the item order)."""
        return self._slot_ids.tolist()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, poi_id: int) -> bool:
        return poi_id in self._items

    @property
    def pois(self) -> list[POI]:
        """The cached POIs (insertion order), as a fresh list."""
        return list(self._items.values())

    @property
    def regions(self) -> list[VerifiedRegion]:
        return list(self._regions)

    @property
    def region_rects(self) -> list[Rect]:
        return [vr.rect for vr in self._regions]

    # ------------------------------------------------------------------
    def insert_result(
        self,
        shared: Sequence[tuple[Rect, Sequence[POI]]],
        now: float,
        host_position: Point,
        heading: tuple[float, float] = (0.0, 0.0),
        tracer=None,
    ) -> None:
        """Adopt one query's shared result: a *visit*.

        ``shared`` is the result's ``(region, pois)`` pairs (a
        :class:`~repro.cache.entry.SharedResult`, or any sequence of
        pairs), each region with *all* server POIs inside it — the
        caller's contract.  The pairs are the visit's *steps*, taken in
        order exactly as if each were inserted alone: admit the step's
        POIs, place its region, evict down to capacity by policy rank,
        shrinking every region around each victim.

        Steps are admitted as offered while the table holds them all.
        From the first step that overflows, a
        :class:`DirectionDistancePolicy` cache ranks the rest of the
        visit once: its score depends only on the POI, the position and
        the heading, all fixed within a visit, so it is one total order
        over the pool (the table plus the POIs first offered later).
        Keeping the best ``capacity`` of a growing set commutes under a
        fixed order, so each step keeps the best of everything held or
        offered so far, and a POI that survives the visit is evicted at
        no step.  One ``select_victims`` call names the ``total -
        capacity`` doomed POIs in eviction order; a step's victims are
        the first doomed POIs present at that step (one evicted earlier
        and offered again comes back and is evicted again, cutting
        regions again).  The overflowing step is ranked before it is
        admitted, so a POI first offered from it on becomes a table
        entry only if it survives.  Rank-only policies
        (LRU, FIFO) rank per step: their order moves with the clocks
        the visit writes — the policy's own, told each step's offered
        POIs (:meth:`~repro.cache.policy.LRUPolicy.use`) and victims
        (``forget``).  The paper's policy keeps no clock and hears of
        no POI.

        What stays per step: region placement, ``_repair_regions`` with
        that step's victims in eviction order, and one generation bump
        if the step added a POI, moved a region or evicted — the
        generation moves at most once per *step*, as inserting the
        pairs one call each would move it (the halo sync keys on it),
        and the bump drops the share response built for the old
        generation.  Under an enabled ``tracer`` (a
        :class:`repro.obs.Tracer`) the visit is one ``cache.insert``
        span below the active query span, its attributes summed over
        the steps; ``regions_moved`` / ``regions_shrunk`` add up the
        moved-region marker's length at each step's start (what its
        settle re-checks in full) and end (what its evictions shrank).
        """
        if type(shared) is not SharedResult:
            shared = SharedResult(shared)
        if tracer is None or not tracer.enabled:
            self._visit(shared, now, host_position, heading, None)
            return
        with tracer.span("cache.insert") as span:
            counts = dict.fromkeys(_SPAN_COUNTS, 0)
            self._visit(shared, now, host_position, heading, counts)
            span.set(**counts)

    def _moved_count(self) -> int:
        """How many regions the marker counts as moved (traced path)."""
        moved = self._moved
        return len(self._regions) if moved is ALL_MOVED else len(moved)

    def _visit(
        self,
        shared: SharedResult,
        now: float,
        host_position: Point,
        heading: tuple[float, float],
        counts: dict[str, int] | None,
    ) -> None:
        """The steps of one visit; ``counts`` collects the span sums."""
        capacity = self.capacity
        select = getattr(self.policy, "select_victims", None)
        use = getattr(self.policy, "use", None)
        last = len(shared) - 1
        rest: _RankedRest | None = None
        for step, (region, pois) in enumerate(shared):
            if counts is not None:
                moved = self._moved_count()
            if rest is None:
                size = len(self._items)
                if (
                    size + len(pois) > capacity
                    and select is not None
                    and step < last
                    and size + self._new_at(shared, step) > capacity
                ):
                    rest = self._rank_rest(
                        shared, step, host_position, heading, select
                    )
            if rest is None:
                added = self._admit(pois)
                if use is not None:
                    use([poi.poi_id for poi in pois], now)
            else:
                added = rest.admit(step)
            size += added
            changed = self._place_region(region, now, host_position)
            evicted = size - capacity
            if evicted > 0:
                if rest is None:
                    vxs, vys = self._evict(evicted, host_position, heading)
                else:
                    vxs, vys = rest.evict(evicted)
                size = capacity
                self._repair_regions(vxs, vys)
            else:
                evicted = 0
            if added or changed or evicted:
                self.generation += 1
                self.response = None
            if invariants.ENABLED:
                invariants.check_cache(self)
            if counts is not None:
                counts["pois_offered"] += len(pois)
                counts["pois_added"] += added
                counts["pois_evicted"] += evicted
                counts["regions"] += len(self._regions)
                counts["regions_moved"] += moved
                counts["regions_shrunk"] += self._moved_count()
                counts["size"] += size

    def _new_at(self, shared: SharedResult, step: int) -> int:
        """How many POIs step ``step`` would add to the table.

        Before a visit's first overflow nothing has been evicted, so a
        POI an earlier step offered is held: the step's new POIs are
        its first offers the table does not hold.
        """
        items = self._items
        ids, _, steps, _ = shared.offers()
        return sum(
            ids[k] not in items
            for k in range(bisect_left(steps, step), bisect_right(steps, step))
        )

    def _rank_rest(
        self,
        shared: SharedResult,
        step: int,
        host_position: Point,
        heading: tuple[float, float],
        select,
    ) -> "_RankedRest":
        """Rank the rest of a visit once, from its first overflowing step.

        ``step`` is not admitted yet, admitting it would overflow the
        table and steps follow.  The pool is the table plus the POIs
        first offered at or after ``step`` that it does not hold — the
        order the table and its mirror would list them in — and one
        ``select_victims`` call names its ``total - capacity`` doomed
        POIs in eviction order.  The table and its mirror are final on
        return: the table's survivors in their order, then the later
        survivors in first-offer order.  A doomed POI the table does not
        hold never becomes a table or a mirror entry, so neither ever
        holds more than the capacity.  What the steps from ``step`` on
        replay is returned.
        """
        items = self._items
        later: list[int] = []
        revisits: dict[int, list[int]] = {}
        ids, pois, steps, again = shared.offers()
        for k in range(bisect_left(steps, step), len(ids)):
            poi_id = ids[k]
            if poi_id in items:
                revisits.setdefault(steps[k], []).append(poi_id)
            else:
                later.append(k)
        xs, ys, slot_ids = self._slot_arrays()
        n = slot_ids.size
        if later:
            # The later POIs join the pool behind the table.
            offered_ids, offered_xs, offered_ys = shared.offered_arrays()
            picked = np.array(later, np.intp)
            xs = np.concatenate((xs, offered_xs[picked]))
            ys = np.concatenate((ys, offered_ys[picked]))
            slot_ids = np.concatenate((slot_ids, offered_ids[picked]))
        excess = slot_ids.size - self.capacity
        sel = select(xs, ys, slot_ids, excess, host_position, heading)
        rest = _RankedRest(
            len(shared),
            slot_ids[sel].tolist(),
            xs[sel].tolist(),
            ys[sel].tolist(),
            again,
            revisits,
        )
        # A doomed table POI is present now and leaves the table at
        # once; a later one comes in at its first offer.  Walking the
        # ranks in order keeps every list of ranks ascending.
        doomed = rest.doomed
        present = rest.present
        enters = rest.enters
        table_slots: list[int] = []
        later_doomed = [False] * len(later)
        for r, slot in enumerate(sel.tolist()):
            if slot < n:
                del items[doomed[r]]
                present.append(r)
                table_slots.append(slot)
            else:
                enters[steps[later[slot - n]]].append(r)
                later_doomed[slot - n] = True
        self._delete_slots(table_slots)
        # A later survivor comes in at its first offer: a table and a
        # mirror entry behind the table's.
        added_at = rest.added_at
        append_x = self._slot_xs.append
        append_y = self._slot_ys.append
        append_id = self._slot_ids.append
        for k, is_doomed in zip(later, later_doomed):
            if is_doomed:
                continue
            poi = pois[k]
            items[ids[k]] = poi
            location = poi.location
            append_x(location.x)
            append_y(location.y)
            append_id(ids[k])
            added_at[steps[k]] += 1
        return rest

    def _admit(self, pois: Sequence[POI]) -> int:
        """One step's POIs into the table and the mirror, as offered.

        Returns how many were new.  Every step of a visit comes through
        here until one would overflow the table (see :meth:`_rank_rest`).
        """
        items = self._items
        append_x = self._slot_xs.append
        append_y = self._slot_ys.append
        append_id = self._slot_ids.append
        added = 0
        for poi in pois:
            poi_id = poi.poi_id
            if poi_id not in items:
                items[poi_id] = poi
                location = poi.location
                append_x(location.x)
                append_y(location.y)
                append_id(poi_id)
                added += 1
        return added

    def _evict(
        self, count: int, host_position: Point, heading: tuple[float, float]
    ) -> tuple[list[float], list[float]]:
        """The ``count`` most evictable POIs leave the table at once.

        Returns their coordinates in eviction order.  A step with no
        ranking of the rest behind it evicts here: a rank-only policy's
        every step, and the overflowing last step of a visit.
        """
        policy = self.policy
        select = getattr(policy, "select_victims", None)
        if select is None:
            victims = [
                poi.poi_id
                for poi in policy.rank_victims(
                    list(self._items.values()), host_position, heading
                )[:count]
            ]
            forget = getattr(policy, "forget", None)
            if forget is not None:
                forget(victims)
            return self._drop(victims)
        xs, ys, ids = self._slot_arrays()
        sel = select(xs, ys, ids, count, host_position, heading)
        items = self._items
        for poi_id in ids[sel].tolist():
            del items[poi_id]
        self._delete_slots(sel.tolist())
        return xs[sel].tolist(), ys[sel].tolist()

    def _place_region(
        self, region: Rect, now: float, host_position: Point
    ) -> bool:
        """One step's verified region into the list; whether it moved.

        Fused covered-check + coalesce: while the incumbents are
        settled (containment-free and area-sorted), the only possible
        containments involve the newcomer, so one pass settles what the
        append + full scan of :meth:`_coalesce_regions` would.  A
        newcomer inside an incumbent changes neither the region list
        nor the union — no append *and* no generation bump (nothing
        observable moved, so the memoised share response stays valid,
        which is exactly what the stamp exists to exploit).  Otherwise
        drop any incumbents the newcomer covers and binary-insert it
        into the area-descending order, ties landing behind, where the
        stable full-scan sort would put it.
        """
        # Inline Rect.is_degenerate (zero width or height): IEEE
        # subtraction is zero exactly when the operands are equal.
        if region.x2 == region.x1 or region.y2 == region.y1:
            return False
        regions = self._regions
        if self._moved is not SETTLED or not regions:
            self._append_region(region, now, host_position)
            return True
        rx1, ry1 = region.x1, region.y1
        rx2, ry2 = region.x2, region.y2
        covered: list[int] | None = None
        for idx in range(len(regions)):
            o = regions[idx].rect
            if o.x1 <= rx1 and o.y1 <= ry1 and rx2 <= o.x2 and ry2 <= o.y2:
                return False
            if rx1 <= o.x1 and ry1 <= o.y1 and o.x2 <= rx2 and o.y2 <= ry2:
                if covered is None:
                    covered = [idx]
                else:
                    covered.append(idx)
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
        return True

    def _append_region(
        self, region: Rect, now: float, host_position: Point
    ) -> None:
        """Append a verified region the general way, then settle.

        The post-shrink path (the marker not ``SETTLED``) and the first
        region of an empty cache land here; the common case is fused
        into :meth:`_place_region`.
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
        """Tell a clocked policy the host's query used these POIs (the
        cached ones among them); the paper's policy hears nothing."""
        use = getattr(self.policy, "use", None)
        if use is not None:
            items = self._items
            use([poi_id for poi_id in poi_ids if poi_id in items], now)

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
        snapshot per generation keeps what it builds from it in
        ``response``, which the next bump clears.
        """
        return (
            self.generation,
            tuple([vr.rect for vr in self._regions]),
            tuple(self._items.values()),
        )

    # ------------------------------------------------------------------
    # Binary codec support (see repro.codec.types)
    # ------------------------------------------------------------------
    def codec_state(self) -> tuple:
        """The cache's replayable state as flat structures.

        Everything the host-migration codec ships: configuration
        scalars, the cached POIs in table order (load-bearing:
        ``pois``/``share`` iterate it) and the verified regions in their
        area-descending list order.  The coordinate mirror is not
        shipped — it follows the table's order, so the decoder rebuilds
        it from the POIs — nor is the share response, rebuilt when
        first asked for.  The policy (and a clocked policy's clock) is
        excluded — it is encoded separately by the codec.  Of the
        moved-region marker only "settled or not" crosses; an unsettled
        cache decodes as ``ALL_MOVED``, whose full re-check settles to
        the same list.
        """
        return (
            self.capacity,
            self.max_regions,
            self.generation,
            self._moved is SETTLED,
            tuple(self._items.values()),
            tuple(self._regions),
        )

    @classmethod
    def from_codec_state(
        cls,
        policy: ReplacementPolicy,
        capacity: int,
        max_regions: int,
        generation: int,
        settled: bool,
        pois: Sequence[POI],
        regions: Sequence[VerifiedRegion],
    ) -> "POICache":
        """Rebuild a cache from :meth:`codec_state` components."""
        cache = cls(capacity, policy, max_regions)
        cache._items = {poi.poi_id: poi for poi in pois}
        if len(cache._items) != len(pois):
            raise CacheError("duplicate POI ids in codec cache state")
        cache._regions = list(regions)
        # The mirror, rebuilt in the table's order.
        locations = [poi.location for poi in pois]
        cache._slot_xs = array("d", [p.x for p in locations])
        cache._slot_ys = array("d", [p.y for p in locations])
        cache._slot_ids = array("q", list(cache._items))
        cache.generation = generation
        cache._moved = SETTLED if settled else ALL_MOVED
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
        :meth:`_place_region`.)
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
