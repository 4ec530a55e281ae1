"""Shared domain objects.

A :class:`POI` (point of interest) is the unit of data everywhere in
the system: the server database stores POIs, the broadcast channel
carries them, mobile hosts cache them, and queries return them.  The
paper represents a POI by its identifier and position (footnote 1:
"we use the object identifier to represent its position coordinates").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Point

DEFAULT_CATEGORY = "gas_station"


@dataclass(frozen=True, slots=True)
class POI:
    """An immutable point of interest."""

    poi_id: int
    location: Point
    category: str = DEFAULT_CATEGORY

    @property
    def x(self) -> float:
        return self.location.x

    @property
    def y(self) -> float:
        return self.location.y


@dataclass(frozen=True, slots=True)
class QueryResultEntry:
    """One ranked answer of a kNN query: a POI and its distance."""

    poi: POI
    distance: float

    def __lt__(self, other: "QueryResultEntry") -> bool:
        return self.distance < other.distance
