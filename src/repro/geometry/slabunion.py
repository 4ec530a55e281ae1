"""Persistent slab-decomposition union with O(affected-slabs) updates.

:class:`~repro.geometry.region.RectUnion` rebuilds its slab structure
from the full rectangle set on every construction — fine for one-shot
merges, quadratic pain for the cache hot path where one rectangle
arrives (or one cached POI leaves) at a time.  :class:`SlabUnion`
maintains the *same* canonical slab structure — sorted x cuts, merged
closed y-interval tuples per slab — but mutates it in place:

* :meth:`insert_rect` splits at most two slabs and re-merges only the
  slabs the rectangle spans;
* :meth:`subtract_rect` / :meth:`subtract_point_cut` subtract a
  rectangle (or a tiny square around an evicted point) from the
  spanned slabs only;
* every read — area, boundary, containment, window coverage/
  subtraction, disc interactions — is the module-level kernel shared
  with ``RectUnion`` (see :mod:`~repro.geometry.region`), evaluated on
  the maintained structure and memoised per mutation generation.

**Canonical-form contract.**  For an *insert-only* history the
maintained structure is bit-identical to the eager
``RectUnion(rects)`` of the same member set: the x cuts are exactly
the member edges, and merged closed intervals have a unique maximal
representation, so every derived float (area sums, boundary segment
coordinates, clamped-projection distances, ``w'`` remainders) matches
the eager rebuild exactly — not just within tolerance.  Subtraction
leaves canonical-form territory (the eager reference has no
subtraction), so after the first subtract the union is only
*set*-equivalent to any rebuilt reference and :attr:`rects` becomes
unavailable.

Slab interval tuples are immutable and structurally shared:
:meth:`clone` is O(slabs) and copies no interval data.

**Lazy bulk builds.**  :meth:`from_rects` over a large rectangle set
(the merged-MVR case) records the members and builds nothing.  The
reads NNV makes — emptiness, MBR, containment, distance to the
boundary — are answered from the members and from one coverage grid,
built by whichever of the two asks first: the containment mask is a
cell lookup in it
(:func:`~repro.geometry.region.grid_contains_points`) and the boundary
arrays are its run lengths
(:func:`~repro.geometry.region.grid_boundary_coord_arrays`).  The
reads SBWQ makes — window coverage and the remainder ``w'`` — from
the members the window meets
(:func:`~repro.geometry.region.window_slabs`); the slab structure is
built, by the same grid kernel, by the first read or mutation that
needs all of it.  Every route gives the floats the eager build gives.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

import numpy as np

from ..errors import GeometryError
from .circle import Circle, circle_rect_intersection_area
from .point import Point
from .rect import Rect
from .region import (
    GRID_MIN_RECTS,
    Interval,
    boundary_min_distance,
    build_slabs,
    grid_boundary_coord_arrays,
    grid_contains_points,
    intervals_cover,
    intervals_difference,
    merge_intervals,
    padded_coverage_grid,
    rects_contain_points,
    slabs_area,
    slabs_boundary_coord_arrays,
    slabs_boundary_segments,
    slabs_contains_point,
    slabs_covers_rect,
    slabs_disjoint_rects,
    slabs_intersects_rect,
    slabs_subtract_from_rect,
    window_slabs,
    x_cuts,
)
from .segment import Segment

# Default half-width of a point cut: matches the cache eviction margin
# so a cut point ends up strictly outside the closed remaining region.
POINT_CUT_MARGIN = 1e-9


class SlabUnion:
    """A mutable union of axis-aligned rectangles over a live slab
    decomposition.

    ``generation`` counts mutations; every memoised derived value is
    stamped with the generation it was computed at, so reads after a
    burst of mutations recompute exactly once.
    """

    __slots__ = (
        "_xs",
        "_slabs",
        "_members",
        "_lazy",
        "generation",
        "_frozen",
        "_memo_gen",
        "_memo",
    )

    def __init__(self) -> None:
        self._xs: list[float] = []
        self._slabs: list[tuple[Interval, ...]] = []
        # Member rectangles, tracked only while the history is
        # insert-only (None after the first subtraction).
        self._members: list[Rect] | None = []
        # True while a bulk build is pending: the _xs/_slabs slots are
        # unset and __getattr__ fills them on first access.
        self._lazy = False
        self.generation = 0
        self._frozen = False
        self._memo_gen = -1
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rects(cls, rects: Iterable[Rect] = ()) -> "SlabUnion":
        """Bulk-build from a rectangle set (canonical, like RectUnion)."""
        union = cls()
        members = [r for r in rects if r.x2 != r.x1 and r.y2 != r.y1]
        union._members = members
        if len(members) >= GRID_MIN_RECTS:
            union._lazy = True
            del union._xs, union._slabs
        else:
            union._xs, union._slabs = build_slabs(members)
        return union

    def __getattr__(self, name: str):
        # Reached only for an unset slot, i.e. the slab structure of a
        # lazy bulk build.  Every structural read and every mutation
        # goes through self._xs / self._slabs, so building here is the
        # one place laziness ends.
        if name in ("_xs", "_slabs") and self._lazy:
            self._xs, self._slabs = build_slabs(self._members)
            self._lazy = False
            return getattr(self, name)
        raise AttributeError(name)

    @classmethod
    def empty(cls) -> "SlabUnion":
        return cls()

    def clone(self) -> "SlabUnion":
        """An independent, unfrozen copy sharing all interval tuples."""
        twin = SlabUnion()
        twin._xs = list(self._xs)
        twin._slabs = list(self._slabs)
        twin._members = None if self._members is None else list(self._members)
        twin.generation = self.generation
        twin._memo_gen = self._memo_gen
        # Memoised values are immutable (floats, Rects, ndarray tuples
        # never written in place), so the clone can share them.
        twin._memo = dict(self._memo)
        return twin

    def freeze(self) -> "SlabUnion":
        """Forbid further mutation (the merged MVR is read-only)."""
        self._frozen = True
        return self

    def __reduce__(self):
        # Pickle as one flat codec frame (repro.codec.types): the slab
        # structure, generation, frozen flag, and members round-trip
        # bit-exactly; memoised derived values are dropped (they are
        # pure functions of the structure and rebuild identically).
        from ..codec import decode, encode

        return (decode, (encode(self),))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        if self._frozen:
            raise GeometryError("mutating a frozen SlabUnion")
        self.generation += 1

    def _ensure_cut(self, x: float) -> None:
        """Make ``x`` a slab boundary, splitting the containing slab."""
        xs = self._xs
        i = bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return
        if i == 0:
            xs.insert(0, x)
            self._slabs.insert(0, ())
        elif i == len(xs):
            xs.append(x)
            self._slabs.append(())
        else:
            xs.insert(i, x)
            self._slabs.insert(i, self._slabs[i - 1])

    def insert_rect(self, rect: Rect) -> "SlabUnion":
        """Add a rectangle; O(slabs spanned + log slabs).

        Degenerate rectangles are dropped, matching ``RectUnion``.
        Returns ``self`` for chaining.
        """
        if rect.x2 == rect.x1 or rect.y2 == rect.y1:
            return self
        self._touch()
        xs = self._xs  # builds a lazy structure before the members grow
        if self._members is not None:
            self._members.append(rect)
        if not xs:
            self._xs = [rect.x1, rect.x2]
            self._slabs = [((rect.y1, rect.y2),)]
            return self
        self._ensure_cut(rect.x1)
        self._ensure_cut(rect.x2)
        lo = bisect_left(self._xs, rect.x1)
        hi = bisect_left(self._xs, rect.x2)
        span = (rect.y1, rect.y2)
        slabs = self._slabs
        for j in range(lo, hi):
            intervals = slabs[j]
            if intervals and intervals_cover(intervals, rect.y1, rect.y2):
                continue
            slabs[j] = tuple(merge_intervals(list(intervals) + [span]))
        return self

    def subtract_rect(self, rect: Rect) -> "SlabUnion":
        """Remove a rectangle's area; O(slabs spanned + log slabs).

        Measure-theoretic subtraction on closed intervals: the cut
        leaves closed boundaries at the rectangle's edges, so a point
        strictly inside ``rect`` is strictly outside the remaining
        region.  Member-rectangle tracking (:attr:`rects`) ends at the
        first cut that actually removes area.

        A cut that removes nothing — outside the x range, or missing
        every y interval of the slabs it spans — is a structural
        no-op: no generation bump, no cuts inserted, no interval
        tuples replaced, and :attr:`rects` stays available.  Within an
        effective cut, slabs whose intervals the cut band misses keep
        their (structurally shared) tuples, and any inserted cut left
        with identical intervals on both sides is merged away so a
        perforation never strands redundant slabs.
        """
        if rect.x2 == rect.x1 or rect.y2 == rect.y1:
            return self
        if self._frozen:
            raise GeometryError("mutating a frozen SlabUnion")
        xs = self._xs
        if not xs:
            return self
        lo_x = max(rect.x1, xs[0])
        hi_x = min(rect.x2, xs[-1])
        if lo_x >= hi_x:
            return self
        cut_lo, cut_hi = rect.y1, rect.y2
        slabs = self._slabs
        # Pre-cut affected test over the slabs spanning (lo_x, hi_x):
        # the cut removes area iff some interval meets the open band.
        first = bisect_right(xs, lo_x) - 1
        last = min(bisect_left(xs, hi_x), len(slabs))
        affected = False
        for j in range(max(first, 0), last):
            for a, b in slabs[j]:
                if a < cut_hi and b > cut_lo:
                    affected = True
                    break
            if affected:
                break
        if not affected:
            return self
        self._touch()
        self._members = None
        self._ensure_cut(lo_x)
        self._ensure_cut(hi_x)
        lo = bisect_left(self._xs, lo_x)
        hi = bisect_left(self._xs, hi_x)
        cut = [(cut_lo, cut_hi)]
        for j in range(lo, hi):
            intervals = slabs[j]
            for a, b in intervals:
                if a < cut_hi and b > cut_lo:
                    slabs[j] = tuple(intervals_difference(intervals, cut))
                    break
        self._merge_equal_slabs(lo, hi)
        self._trim()
        return self

    def _merge_equal_slabs(self, lo: int, hi: int) -> None:
        """Drop cuts with identical merged intervals on both sides,
        scanning the boundaries a subtraction over slabs ``[lo, hi)``
        could have affected.

        Only the subtract path calls this: the canonical insert-only
        structure keeps cuts at every *member* edge even when the
        neighbouring slabs coincide, so merging there would break the
        bit-identity contract with the eager build.  After the first
        subtraction the structure is set-semantic only, and a
        redundant cut is pure overhead (it inflates ``slab_count``,
        which the cache mirror uses as its compaction trigger).
        """
        xs, slabs = self._xs, self._slabs
        j = min(hi, len(slabs) - 1)
        floor = max(1, lo)
        while j >= floor:
            if slabs[j - 1] == slabs[j]:
                del slabs[j]
                del xs[j]
            j -= 1

    def subtract_point_cut(
        self, p: Point, margin: float = POINT_CUT_MARGIN
    ) -> "SlabUnion":
        """Remove a tiny closed square around ``p`` (eviction repair).

        After the cut, ``p`` is strictly outside the region and every
        remaining point is at least ``margin`` away from ``p`` in one
        axis — the same exclusion guarantee the cache's rectangle
        shrinking provides, while forfeiting far less verified area.
        """
        return self.subtract_rect(
            Rect(p.x - margin, p.y - margin, p.x + margin, p.y + margin)
        )

    def _trim(self) -> None:
        """Drop empty edge slabs (their cuts carry no region)."""
        xs, slabs = self._xs, self._slabs
        while slabs and not slabs[-1]:
            slabs.pop()
            xs.pop()
        while slabs and not slabs[0]:
            slabs.pop(0)
            xs.pop(0)
        if not slabs:
            xs.clear()

    # ------------------------------------------------------------------
    # Memoised derived values
    # ------------------------------------------------------------------
    def _memo_get(self, key: str, compute):
        if self._memo_gen != self.generation:
            self._memo.clear()
            self._memo_gen = self.generation
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    # ------------------------------------------------------------------
    # Structure accessors (read-only)
    # ------------------------------------------------------------------
    @property
    def xs(self) -> Sequence[float]:
        """The sorted slab boundaries (do not mutate)."""
        return self._xs

    @property
    def slab_intervals(self) -> Sequence[tuple[Interval, ...]]:
        """Merged y intervals per slab (do not mutate)."""
        return self._slabs

    @property
    def slab_count(self) -> int:
        return len(self._slabs)

    @property
    def rects(self) -> tuple[Rect, ...]:
        """The inserted rectangles, insert-only histories only."""
        if self._members is None:
            raise GeometryError(
                "member rectangles are unavailable after subtraction"
            )
        return tuple(self._members)

    # ------------------------------------------------------------------
    # Measures and predicates (same contract as RectUnion)
    # ------------------------------------------------------------------
    @property
    def area(self) -> float:
        return self._memo_get(
            "area", lambda: slabs_area(self._xs, self._slabs)
        )

    @property
    def is_empty(self) -> bool:
        if self._members is not None:
            return not self._members
        return not any(self._slabs)

    def mbr(self) -> Rect:
        return self._memo_get("mbr", self._compute_mbr)

    def _compute_mbr(self) -> Rect:
        if self._members is not None:
            if not self._members:
                raise GeometryError("MBR of an empty region")
            return Rect.bounding(self._members)
        live = [iv for iv in self._slabs if iv]
        if not live:
            raise GeometryError("MBR of an empty region")
        # _trim keeps the edge slabs non-empty, so xs spans the region.
        return Rect(
            self._xs[0],
            min(iv[0][0] for iv in live),
            self._xs[-1],
            max(iv[-1][1] for iv in live),
        )

    def contains_point(self, p: Point) -> bool:
        if self._lazy:
            # The closed union of the closed members is the region.
            px, py = p.x, p.y
            for r in self._members:
                if r.x1 <= px <= r.x2 and r.y1 <= py <= r.y2:
                    return True
            return False
        return slabs_contains_point(self._xs, self._slabs, p.x, p.y)

    def _cover_coord_arrays(self) -> tuple[np.ndarray, ...]:
        def compute():
            if self._members is not None:
                rects: Sequence[Rect] = self._members
            else:
                rects = slabs_disjoint_rects(self._xs, self._slabs)
            return (
                np.array([r.x1 for r in rects]),
                np.array([r.y1 for r in rects]),
                np.array([r.x2 for r in rects]),
                np.array([r.y2 for r in rects]),
            )

        return self._memo_get("cover_arrays", compute)

    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The padded coverage grid of a lazy union's members, built
        once: containment looks points up in it and the boundary
        arrays are its run lengths."""
        return self._memo_get(
            "grid", lambda: padded_coverage_grid(self._members)
        )

    def contains_points(self, pxs: np.ndarray, pys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains_point` over coordinate arrays.

        A lazy union looks the points up in its coverage grid
        (:func:`~repro.geometry.region.grid_contains_points`).  Any
        other broadcasts against the member rectangles while the
        history is insert-only (the exact arrays RectUnion uses), else
        against the disjoint slab pieces.  All three closed covers
        equal the region, so the mask matches the scalar predicate on
        every point.
        """
        pxs = np.asarray(pxs, dtype=np.float64)
        pys = np.asarray(pys, dtype=np.float64)
        if self.is_empty:
            return np.zeros(pxs.shape, dtype=bool)
        if self._lazy:
            return grid_contains_points(self._grid(), pxs, pys)
        return rects_contain_points(self._cover_coord_arrays(), pxs, pys)

    def _window_slabs(self, window: Rect):
        """The slab structure a window read runs over.

        While the bulk build is pending that is the window-local one
        (:func:`~repro.geometry.region.window_slabs`) and the union
        stays lazy; degenerate windows, whose closed coverage reads
        the slabs on both sides of a cut, take the full structure.
        """
        if self._lazy and not window.is_degenerate():
            cuts = self._memo_get("x_cuts", lambda: x_cuts(self._members))
            return window_slabs(cuts, self._members, window)
        return self._xs, self._slabs

    def covers_rect(self, window: Rect) -> bool:
        return slabs_covers_rect(*self._window_slabs(window), window)

    def intersects_rect(self, window: Rect) -> bool:
        return slabs_intersects_rect(self._xs, self._slabs, window)

    # ------------------------------------------------------------------
    # Decompositions
    # ------------------------------------------------------------------
    def disjoint_rects(self) -> list[Rect]:
        return slabs_disjoint_rects(self._xs, self._slabs)

    def subtract_from_rect(self, window: Rect) -> list[Rect]:
        return slabs_subtract_from_rect(*self._window_slabs(window), window)

    # ------------------------------------------------------------------
    # Boundary
    # ------------------------------------------------------------------
    def boundary_segments(self) -> list[Segment]:
        return self._memo_get(
            "boundary_segments",
            lambda: slabs_boundary_segments(self._xs, self._slabs),
        )

    def _boundary_coord_arrays(self) -> tuple[np.ndarray, ...]:
        def compute():
            if self._lazy:
                return grid_boundary_coord_arrays(self._members, self._grid())
            return slabs_boundary_coord_arrays(self._xs, self._slabs)

        return self._memo_get("boundary_arrays", compute)

    def distance_to_boundary(self, p: Point) -> float:
        if self.is_empty:
            raise GeometryError("distance to the boundary of an empty region")
        return boundary_min_distance(self._boundary_coord_arrays(), p.x, p.y)

    def boundary_length(self) -> float:
        return self._memo_get(
            "boundary_length",
            lambda: sum(seg.length for seg in self.boundary_segments()),
        )

    # ------------------------------------------------------------------
    # Disc interactions (Lemma 3.2 support)
    # ------------------------------------------------------------------
    def disc_intersection_area(self, circle: Circle) -> float:
        total = 0.0
        for piece in self.disjoint_rects():
            if circle.intersects_rect(piece):
                total += circle_rect_intersection_area(circle, piece)
        return min(total, circle.area)

    def disc_uncovered_area(self, circle: Circle) -> float:
        return max(0.0, circle.area - self.disc_intersection_area(circle))

    def contains_circle(self, circle: Circle) -> bool:
        if self.is_empty:
            return False
        if not self.contains_point(circle.center):
            return False
        return circle.radius <= self.distance_to_boundary(circle.center)
