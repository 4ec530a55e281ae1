"""2-D points and distance helpers.

All geometry in this package works in a planar Euclidean coordinate
system.  The experiment harness uses miles, but nothing in this module
assumes a unit.
"""

from __future__ import annotations

import math
from typing import Iterator


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

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
