"""Cache record types.

A *verified region* (Section 3.2) is a rectangle for which the owning
host holds **every** POI the server has inside it — that completeness
is what lets a peer's answer be locally *verified* by a query host.
A *shared result* is what one query certified, as the ``(region,
POIs)`` pairs the querier and every neighbour that overhears it adopt.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Rect
from ..model import POI


class VerifiedRegion:
    """A rectangle of guaranteed-complete POI knowledge.

    ``area`` is computed once at construction: the region-coalescing
    pass orders by area on every cache insert, and chasing the nested
    ``rect.width * rect.height`` properties per comparison dominated
    that sort in profiles.

    A hand-written slots class (immutable by convention, never mutated
    after construction): one of these is built per cache insert and
    per region repair, and the generated frozen-dataclass
    ``__init__``/``__post_init__`` pair was itself visible in
    profiles.  Equality and hashing keep the old dataclass contract —
    ``(rect, created_at)``, with the derived ``area`` excluded.
    """

    __slots__ = ("rect", "created_at", "area")

    def __init__(self, rect: Rect, created_at: float) -> None:
        self.rect = rect
        self.created_at = created_at
        # Same float expression as Rect.area (width * height).
        self.area = (rect.x2 - rect.x1) * (rect.y2 - rect.y1)

    def __repr__(self) -> str:
        return (
            f"VerifiedRegion(rect={self.rect!r},"
            f" created_at={self.created_at!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is VerifiedRegion:
            return (
                self.rect == other.rect
                and self.created_at == other.created_at
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rect, self.created_at))


class SharedResult(tuple):
    """One query's shared result: its certified ``(region, pois)`` pairs.

    A tuple to every reader — it compares, hashes, iterates and encodes
    as one.  What it adds is what a cache reads to adopt it: the
    querier and each neighbour that overhears the result adopt the
    same pairs, so these are built once, on first use, and kept with
    the result (as a ``ShareResponse`` keeps its ``poi_arrays()``).
    The offered POIs are taken each once, in first-offer order (pair by
    pair, POI by POI).
    """

    def offers(
        self,
    ) -> tuple[list[int], list[POI], list[int], list[list[int]]]:
        """``(ids, pois, steps, again)`` for a cache that ranks the visit.

        ``ids[k]`` / ``pois[k]`` is the ``k``-th POI first offered and
        ``steps[k]`` the pair that first offers it; ``again[j]`` lists
        the ids pair ``j`` offers that an earlier pair offered too — of
        the POIs a cache did not hold, the only ones an earlier step can
        have evicted.
        """
        try:
            return self._offers
        except AttributeError:
            last: dict[int, int] = {}
            ids: list[int] = []
            pois: list[POI] = []
            steps: list[int] = []
            again: list[list[int]] = []
            for step, (_, offered) in enumerate(self):
                repeated: list[int] = []
                for poi in offered:
                    poi_id = poi.poi_id
                    seen = last.get(poi_id)
                    if seen is None:
                        ids.append(poi_id)
                        pois.append(poi)
                        steps.append(step)
                    elif seen != step:
                        repeated.append(poi_id)
                    last[poi_id] = step
                again.append(repeated)
            self._offers = offers = (ids, pois, steps, again)
            return offers

    def offered_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, xs, ys)`` of the offered POIs as int64 / float64."""
        try:
            return self._arrays
        except AttributeError:
            ids, pois, _, _ = self.offers()
            locations = [poi.location for poi in pois]
            self._arrays = arrays = (
                np.array(ids, np.int64),
                np.array([p.x for p in locations], np.float64),
                np.array([p.y for p in locations], np.float64),
            )
            return arrays
