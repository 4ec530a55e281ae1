"""2-D points and distance helpers.

All geometry in this package works in a planar Euclidean coordinate
system.  The experiment harness uses miles, but nothing in this module
assumes a unit.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator


class Point:
    """An immutable (by convention) 2-D point.

    A hand-written slots class: points are constructed in every hot
    loop of the simulator, and the frozen-dataclass ``__init__`` paid
    two ``object.__setattr__`` calls per instance.  Equality, hashing,
    and repr keep the old dataclass contract over ``(x, y)``.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def __repr__(self) -> str:
        return f"Point(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Point:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance ``||self, other||`` (Table 1 notation)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt in comparisons)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def translated(self, dx: float, dy: float) -> "Point":
        """A new point offset by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        """The point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    xs = 0.0
    ys = 0.0
    n = 0
    for p in points:
        xs += p.x
        ys += p.y
        n += 1
    if n == 0:
        raise ValueError("centroid of an empty point collection")
    return Point(xs / n, ys / n)
