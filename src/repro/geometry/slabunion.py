"""Build-once slab-decomposition union of axis-aligned rectangles.

:class:`SlabUnion` is the union the query path reads: the canonical
slab structure of a rectangle set — sorted x cuts, merged closed
y-interval tuples per slab — built by :meth:`SlabUnion.from_rects` and
never changed afterwards.  Every read — area, boundary, containment,
window coverage/subtraction, disc interactions — is the module-level
kernel shared with :class:`~repro.geometry.region.RectUnion` (see
:mod:`~repro.geometry.region`), memoised per object.

**Canonical-form contract.**  The structure is bit-identical to the
eager ``RectUnion(rects)`` of the same member set: the x cuts are
exactly the member edges, and merged closed intervals have a unique
maximal representation, so every derived float (area sums, boundary
segment coordinates, clamped-projection distances, ``w'`` remainders)
matches the eager build exactly — not just within tolerance.

**Lazy bulk builds.**  :meth:`from_rects` over a large rectangle set
(the merged-MVR case) records the members and builds nothing.  The
reads the kNN path makes — emptiness, MBR, containment, distance to
the boundary, disc areas — are answered from the members and from one
coverage grid, built by whichever of them asks first: the containment
mask is a cell lookup in it
(:func:`~repro.geometry.region.grid_contains_points`), the boundary
arrays are its run lengths
(:func:`~repro.geometry.region.grid_boundary_coord_arrays`), and so is
the piece table the Lemma 3.2 disc areas are priced against
(:func:`~repro.geometry.region.grid_piece_table`; the concentric discs
of one heap share one :class:`~repro.geometry.region.DiscPieces`
read).  The reads SBWQ makes — window coverage and the remainder
``w'`` — from the members the window meets
(:func:`~repro.geometry.region.window_slabs`); the slab structure is
built, by the same grid kernel, by the first read that needs all of
it.  Every route gives the floats the eager build gives.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import GeometryError
from .circle import Circle
from .point import Point
from .rect import Rect
from .region import (
    GRID_MIN_RECTS,
    DiscPieces,
    Interval,
    PieceTable,
    boundary_min_distance,
    build_slabs,
    grid_boundary_coord_arrays,
    grid_contains_points,
    grid_piece_table,
    padded_coverage_grid,
    rects_contain_points,
    slabs_area,
    slabs_boundary_coord_arrays,
    slabs_boundary_segments,
    slabs_contains_point,
    slabs_covers_rect,
    slabs_disjoint_rects,
    slabs_intersects_rect,
    slabs_piece_table,
    slabs_subtract_from_rect,
    window_slabs,
    x_cuts,
)
from .segment import Segment


class SlabUnion:
    """An immutable union of axis-aligned rectangles over its slab
    decomposition: built once by :meth:`from_rects`, read many times.
    """

    __slots__ = ("_xs", "_slabs", "_members", "_lazy", "_memo")

    def __init__(self) -> None:
        self._xs: list[float] = []
        self._slabs: list[tuple[Interval, ...]] = []
        self._members: list[Rect] = []
        # True while a bulk build is pending: the _xs/_slabs slots are
        # unset and __getattr__ fills them on first access.
        self._lazy = False
        # Derived values, computed on first read.
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
        # lazy bulk build.  Every structural read goes through
        # self._xs / self._slabs, so building here is the one place
        # laziness ends.
        if name in ("_xs", "_slabs") and self._lazy:
            self._xs, self._slabs = build_slabs(self._members)
            self._lazy = False
            return getattr(self, name)
        raise AttributeError(name)

    # ------------------------------------------------------------------
    # Memoised derived values
    # ------------------------------------------------------------------
    def _memo_get(self, key: str, compute):
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
    def rects(self) -> tuple[Rect, ...]:
        """The (non-degenerate) rectangles the union was built from."""
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
        return not self._members

    def mbr(self) -> Rect:
        return self._memo_get("mbr", self._compute_mbr)

    def _compute_mbr(self) -> Rect:
        if not self._members:
            raise GeometryError("MBR of an empty region")
        return Rect.bounding(self._members)

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
            rects = self._members
            return (
                np.array([r.x1 for r in rects]),
                np.array([r.y1 for r in rects]),
                np.array([r.x2 for r in rects]),
                np.array([r.y2 for r in rects]),
            )

        return self._memo_get("cover_arrays", compute)

    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The padded coverage grid of a lazy union's members, built
        once: containment looks points up in it, the boundary arrays
        and the piece table are its run lengths."""
        return self._memo_get(
            "grid", lambda: padded_coverage_grid(self._members)
        )

    def contains_points(self, pxs: np.ndarray, pys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains_point` over coordinate arrays.

        A lazy union looks the points up in its coverage grid
        (:func:`~repro.geometry.region.grid_contains_points`).  Any
        other broadcasts against the member rectangles (the exact
        arrays RectUnion uses).  Both closed covers equal the region,
        so the mask matches the scalar predicate on every point.
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
            lambda: sum(
                seg.a.distance_to(seg.b) for seg in self.boundary_segments()
            ),
        )

    # ------------------------------------------------------------------
    # Disc interactions (Lemma 3.2 support)
    # ------------------------------------------------------------------
    def piece_table(self) -> PieceTable:
        """:meth:`disjoint_rects` as ``(x1, y1, x2, y2)`` arrays (do
        not mutate).  A lazy union reads it off its coverage grid and
        stays lazy."""

        def compute():
            if self._lazy:
                return grid_piece_table(self._grid())
            return slabs_piece_table(self._xs, self._slabs)

        return self._memo_get("piece_table", compute)

    def disc_pieces(self, center: Point, reach: float) -> DiscPieces:
        """The batched disc read: areas of ``C(center, r)`` against the
        union for any ``r <= reach``, the pieces priced together."""
        return DiscPieces(self.piece_table(), center, reach)

    def disc_intersection_area(self, circle: Circle) -> float:
        return self.disc_pieces(circle.center, circle.radius).intersection_area(
            circle.radius
        )

    def disc_uncovered_area(self, circle: Circle) -> float:
        return self.disc_pieces(circle.center, circle.radius).uncovered_area(
            circle.radius
        )
