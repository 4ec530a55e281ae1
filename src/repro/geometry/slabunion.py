"""The merged verified region the query path reads.

:class:`SlabUnion` is a union of axis-aligned rectangles held as its
members plus a memo of what its reads derive from them.  Its reads are
the questions the paper asks of a merged verified region: containment,
the distance from the query point to the boundary (Lemma 3.1), window
coverage and the remainder ``w'`` (SBWQ, Section 3.4.2), and the areas
of discs against it (Lemma 3.2).  Each is a module-level kernel shared
with :class:`~repro.geometry.region.RectUnion` (see
:mod:`~repro.geometry.region`), the eager referee.

**Canonical-form contract.**  Every read returns the floats the eager
``RectUnion(rects)`` of the same member set gives: the slab structure
of a rectangle set — x cuts at exactly the member edges, merged closed
y intervals per slab — is unique, and every route below reads that
structure or a decomposition of it that the tests pin bit for bit.

**Routes.**  Below ``GRID_MIN_RECTS`` members :meth:`from_rects` builds
the slab structure (the pure-Python sweep) and the reads run over it.
Over a larger set (the merged-MVR case) it builds nothing: emptiness,
MBR and containment come from the members, and the rest from one
coverage grid, built by whichever read asks first — the containment
mask is a cell lookup in it
(:func:`~repro.geometry.region.grid_contains_points`), the boundary
arrays are its run lengths
(:func:`~repro.geometry.region.grid_boundary_coord_arrays`), and so is
the piece table the Lemma 3.2 disc areas are priced against
(:func:`~repro.geometry.region.grid_piece_table`; the concentric discs
of one heap share one :class:`~repro.geometry.region.DiscPieces`
read).  Window coverage and ``w'`` read the members the window meets
(:func:`~repro.geometry.region.window_slabs`).  Only a degenerate
window, whose closed coverage reads the slabs on both sides of a cut,
builds the whole slab structure; from then on the union reads it like
a small one.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import GeometryError
from .circle import Circle
from .point import Point
from .rect import Rect
from .region import (
    GRID_MIN_RECTS,
    DiscPieces,
    PieceTable,
    boundary_min_distance,
    build_slabs,
    grid_boundary_coord_arrays,
    grid_contains_points,
    grid_piece_table,
    padded_coverage_grid,
    rects_contain_points,
    slabs_boundary_coord_arrays,
    slabs_contains_point,
    slabs_covers_rect,
    slabs_piece_table,
    slabs_subtract_from_rect,
    window_slabs,
    x_cuts,
)


class SlabUnion:
    """An immutable union of axis-aligned rectangles: built once by
    :meth:`from_rects`, read many times.
    """

    __slots__ = ("_members", "_memo")

    def __init__(self, members: list[Rect]) -> None:
        # The non-degenerate rectangles, as given.
        self._members = members
        # Derived values, each computed on first read.  ``"slabs"``,
        # the canonical slab structure, is the entry that picks the
        # route: while it is missing the reads run off the members and
        # the coverage grid.
        self._memo: dict = {}

    @classmethod
    def from_rects(cls, rects: Iterable[Rect] = ()) -> "SlabUnion":
        """Build from a rectangle set (canonical, like RectUnion)."""
        union = cls([r for r in rects if r.x2 != r.x1 and r.y2 != r.y1])
        if len(union._members) < GRID_MIN_RECTS:
            union._memo["slabs"] = build_slabs(union._members)
        return union

    def _memo_get(self, key: str, compute):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def _slabs(self):
        """The canonical ``(xs, slabs)`` structure (do not mutate)."""
        return self._memo_get("slabs", lambda: build_slabs(self._members))

    @property
    def rects(self) -> tuple[Rect, ...]:
        """The (non-degenerate) rectangles the union was built from."""
        return tuple(self._members)

    # ------------------------------------------------------------------
    # Measures and predicates (same contract as RectUnion)
    # ------------------------------------------------------------------
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
        if "slabs" in self._memo:
            return slabs_contains_point(*self._memo["slabs"], p.x, p.y)
        # The closed union of the closed members is the region.
        px, py = p.x, p.y
        for r in self._members:
            if r.x1 <= px <= r.x2 and r.y1 <= py <= r.y2:
                return True
        return False

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
        """The padded coverage grid of the members, built once:
        containment looks points up in it, the boundary arrays and the
        piece table are its run lengths."""
        return self._memo_get(
            "grid", lambda: padded_coverage_grid(self._members)
        )

    def contains_points(self, pxs: np.ndarray, pys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains_point` over coordinate arrays.

        A union without its slab structure looks the points up in its
        coverage grid (:func:`~repro.geometry.region.grid_contains_points`).
        Any other broadcasts against the member rectangles (the exact
        arrays RectUnion uses).  Both closed covers equal the region,
        so the mask matches the scalar predicate on every point.
        """
        pxs = np.asarray(pxs, dtype=np.float64)
        pys = np.asarray(pys, dtype=np.float64)
        if self.is_empty:
            return np.zeros(pxs.shape, dtype=bool)
        if "slabs" not in self._memo:
            return grid_contains_points(self._grid(), pxs, pys)
        return rects_contain_points(self._cover_coord_arrays(), pxs, pys)

    def _window_slabs(self, window: Rect):
        """The slab structure a window read runs over: the
        window-local one (:func:`~repro.geometry.region.window_slabs`)
        while the whole structure is unbuilt and the window is not
        degenerate, else the whole structure."""
        if "slabs" not in self._memo and not window.is_degenerate():
            cuts = self._memo_get("x_cuts", lambda: x_cuts(self._members))
            return window_slabs(cuts, self._members, window)
        return self._slabs()

    def covers_rect(self, window: Rect) -> bool:
        return slabs_covers_rect(*self._window_slabs(window), window)

    def subtract_from_rect(self, window: Rect) -> list[Rect]:
        return slabs_subtract_from_rect(*self._window_slabs(window), window)

    # ------------------------------------------------------------------
    # Boundary (Lemma 3.1)
    # ------------------------------------------------------------------
    def _boundary_coord_arrays(self) -> tuple[np.ndarray, ...]:
        def compute():
            if "slabs" not in self._memo:
                return grid_boundary_coord_arrays(self._members, self._grid())
            return slabs_boundary_coord_arrays(*self._memo["slabs"])

        return self._memo_get("boundary_arrays", compute)

    def distance_to_boundary(self, p: Point) -> float:
        if self.is_empty:
            raise GeometryError("distance to the boundary of an empty region")
        return boundary_min_distance(self._boundary_coord_arrays(), p.x, p.y)

    # ------------------------------------------------------------------
    # Disc interactions (Lemma 3.2 support)
    # ------------------------------------------------------------------
    def piece_table(self) -> PieceTable:
        """The union's disjoint slab pieces as ``(x1, y1, x2, y2)``
        arrays (do not mutate), read off the coverage grid while the
        slab structure is unbuilt."""

        def compute():
            if "slabs" not in self._memo:
                return grid_piece_table(self._grid())
            return slabs_piece_table(*self._memo["slabs"])

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
