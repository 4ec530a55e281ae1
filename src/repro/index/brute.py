"""Linear-scan spatial search.

The brute-force index is the correctness oracle for the grid, the
on-air scan and the sharing kernels, the on-demand baseline's query
engine, and is also genuinely used for small collections (peer caches
hold tens of POIs, where a scan beats any structure).
"""

from __future__ import annotations

import math
from typing import Iterable

from ..geometry import Point, Rect
from ..model import POI, QueryResultEntry


def brute_force_knn(
    pois: Iterable[POI], query: Point, k: int
) -> list[QueryResultEntry]:
    """The ``k`` POIs nearest to ``query``, sorted by ascending distance.

    Ties are broken by POI id so results are deterministic.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    # Inline Point.distance_to (hypot is symmetric in sign, so the
    # operand order cannot change a bit).
    hyp = math.hypot
    qx, qy = query.x, query.y
    ranked = sorted(
        [
            (hyp(poi.location.x - qx, poi.location.y - qy), poi.poi_id, poi)
            for poi in pois
        ]
    )
    return [QueryResultEntry(poi, dist) for dist, _, poi in ranked[:k]]


def brute_force_window(pois: Iterable[POI], window: Rect) -> list[POI]:
    """All POIs inside the (closed) query window, sorted by id."""
    hits = [poi for poi in pois if window.contains_point(poi.location)]
    hits.sort(key=lambda poi: poi.poi_id)
    return hits
