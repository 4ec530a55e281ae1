"""Brute-force ground-truth oracles.

Every oracle here recomputes an answer with the most naive algorithm
available, sharing *no* code with the structure it cross-checks:

* :func:`oracle_knn` ranks the whole POI list per query — the referee
  for SBNN, the on-air kNN pipeline, and cache-served answers;
* :func:`oracle_window_ids` scans the whole POI list against a closed
  window — the referee for SBWQ and the on-air window pipeline;
* :func:`oracle_union_area` recomputes a :class:`~repro.geometry.
  RectUnion`'s area by coordinate-compressed cell summation (a
  shoelace over the rectilinear cell decomposition), independent of
  the production slab decomposition.

:func:`world_digest` fingerprints a POI world so a disagreement
artifact can name exactly which world reproduced it.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

from ..geometry import Point, Rect
from ..model import POI


def oracle_knn(
    pois: Iterable[POI], query: Point, k: int
) -> list[tuple[float, int]]:
    """The true top-``k`` as ``(distance, poi_id)`` pairs, ascending.

    Distances use :func:`math.hypot` on raw coordinate differences —
    deliberately not :meth:`POI.distance_to` — so the oracle cannot
    inherit a bug from the production distance kernel.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    ranked = sorted(
        (math.hypot(poi.x - query.x, poi.y - query.y), poi.poi_id)
        for poi in pois
    )
    return ranked[:k]


def oracle_knn_ids(pois: Iterable[POI], query: Point, k: int) -> list[int]:
    """Just the ids of the true top-``k``, in rank order."""
    return [poi_id for _, poi_id in oracle_knn(pois, query, k)]


def oracle_window_ids(pois: Iterable[POI], window: Rect) -> list[int]:
    """Ids of every POI inside the closed window, sorted ascending."""
    return sorted(
        poi.poi_id
        for poi in pois
        if window.x1 <= poi.x <= window.x2 and window.y1 <= poi.y <= window.y2
    )


def oracle_union_area(rects: Sequence[Rect]) -> float:
    """Exact union area via 2-D coordinate compression.

    Cut the plane at every rectangle edge on *both* axes, then sum the
    area of each grid cell covered by at least one input rectangle.
    O(n³) but sharing nothing with the production x-slab/interval
    decomposition of :class:`~repro.geometry.RectUnion`, so the two
    can referee each other.
    """
    live = [r for r in rects if r.x2 > r.x1 and r.y2 > r.y1]
    if not live:
        return 0.0
    xs = sorted({x for r in live for x in (r.x1, r.x2)})
    ys = sorted({y for r in live for y in (r.y1, r.y2)})
    total = 0.0
    for xa, xb in zip(xs, xs[1:]):
        for ya, yb in zip(ys, ys[1:]):
            if any(
                r.x1 <= xa and xb <= r.x2 and r.y1 <= ya and yb <= r.y2
                for r in live
            ):
                total += (xb - xa) * (yb - ya)
    return total


def rects_pairwise_disjoint(rects: Sequence[Rect]) -> bool:
    """True when no two rectangles share positive area (interiors)."""
    live = [r for r in rects if r.x2 > r.x1 and r.y2 > r.y1]
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            if a.x1 < b.x2 and b.x1 < a.x2 and a.y1 < b.y2 and b.y1 < a.y2:
                return False
    return True


def world_digest(pois: Sequence[POI]) -> str:
    """Stable fingerprint of a POI world (id, x, y triples).

    Coordinates are hashed at full float precision via ``repr`` so two
    worlds with the same digest are bit-identical for every oracle.
    """
    hasher = hashlib.sha256()
    for poi in sorted(pois, key=lambda p: p.poi_id):
        hasher.update(f"{poi.poi_id}:{poi.x!r}:{poi.y!r};".encode())
    return hasher.hexdigest()[:16]
