"""Axis-aligned rectangles (minimum bounding rectangles, MBRs).

Rectangles are closed regions ``[x1, x2] x [y1, y2]``.  They are the
currency of the whole system: verified regions (Section 3.2 of the
paper), query windows, bucket extents and Hilbert-cell extents are all
:class:`Rect` instances.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import GeometryError
from .point import Point


class Rect:
    """A closed axis-aligned rectangle with ``x1 <= x2`` and ``y1 <= y2``.

    A hand-written slots class, immutable by convention: rectangles
    are the currency of the entire system (tens of thousands are
    constructed per simulated workload — region shrinks, windows,
    index boxes), and the frozen-dataclass ``__init__`` paid four
    ``object.__setattr__`` calls plus a ``__post_init__`` dispatch per
    instance.  Equality, hashing, and repr keep the old dataclass
    contract over ``(x1, y1, x2, y2)``.
    """

    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        if not (x1 <= x2 and y1 <= y2):
            raise GeometryError(
                f"malformed rectangle: ({x1}, {y1}, {x2}, {y2})"
            )
        self.x1 = x1
        self.y1 = y1
        self.x2 = x2
        self.y2 = y2

    def __repr__(self) -> str:
        return (
            f"Rect(x1={self.x1!r}, y1={self.y1!r},"
            f" x2={self.x2!r}, y2={self.y2!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Rect:
            return (
                self.x1 == other.x1
                and self.y1 == other.y1
                and self.x2 == other.x2
                and self.y2 == other.y2
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x1, self.y1, self.x2, self.y2))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def bounding(cls, rects: Sequence["Rect"]) -> "Rect":
        """The MBR of a non-empty collection of rectangles."""
        if not rects:
            raise GeometryError("MBR of an empty rectangle collection")
        return cls(
            min(r.x1 for r in rects),
            min(r.y1 for r in rects),
            max(r.x2 for r in rects),
            max(r.y2 for r in rects),
        )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def is_degenerate(self) -> bool:
        """True when the rectangle has zero area (a segment or a point)."""
        return self.width == 0.0 or self.height == 0.0

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """Closed containment: boundary points are inside."""
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap rectangle, or ``None`` when disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x1 > x2 or y1 > y2:
            return None
        return Rect(x1, y1, x2, y2)

    def union_mbr(self, other: "Rect") -> "Rect":
        """The MBR enclosing both rectangles."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def expanded(self, margin: float) -> "Rect":
        """A rectangle grown (or shrunk, for negative margin) on all sides."""
        if 2 * margin < -min(self.width, self.height):
            raise GeometryError("shrinking margin exceeds rectangle size")
        return Rect(
            self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin
        )

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------
    def distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the rectangle (0 when ``p`` is inside)."""
        dx = max(self.x1 - p.x, 0.0, p.x - self.x2)
        dy = max(self.y1 - p.y, 0.0, p.y - self.y2)
        return math.hypot(dx, dy)

    def max_distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the farthest point of the rectangle."""
        dx = max(abs(p.x - self.x1), abs(p.x - self.x2))
        dy = max(abs(p.y - self.y1), abs(p.y - self.y2))
        return math.hypot(dx, dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The rectangle as a plain ``(x1, y1, x2, y2)`` tuple."""
        return (self.x1, self.y1, self.x2, self.y2)
