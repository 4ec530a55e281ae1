"""Cache replacement policies.

The paper's policy (after Ren & Dunham [13]) ranks eviction victims by
the distance between the host and the data object, penalising objects
that lie *behind* the host's direction of travel — a motorist will not
come back for them.  LRU and FIFO are included as ablation baselines.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from ..geometry import Point
from .entry import CacheItem

# How close two ``np.hypot`` eviction scores may be before
# ``select_victims`` re-scores both with ``math.hypot``: far wider than
# the few ulp the two functions can differ by, far narrower than the
# gaps between the scores of a real pool.
NEAR_REL = 1e-12
NEAR_ABS = 1e-300


class ReplacementPolicy(Protocol):
    """Ranks cached items most-evictable-first."""

    def rank_victims(
        self,
        items: Sequence[CacheItem],
        host_position: Point,
        heading: tuple[float, float],
    ) -> list[CacheItem]:
        """Return the items ordered so the first should be evicted first."""
        ...


class DirectionDistancePolicy:
    """Evict far-away objects, especially those behind the host.

    The score of an item is its distance from the host, multiplied by
    ``(1 + behind_penalty)`` when the object lies in the half-plane
    opposite the travel direction.  Largest score is evicted first;
    equal scores break ties toward the larger ``poi_id`` so rankings
    are reproducible regardless of cache insertion order.

    **Degenerate-heading contract**: a paused host (heading ``(0, 0)``
    — random-waypoint pause legs produce these routinely) has no
    "behind", so the policy explicitly degrades to pure
    farthest-distance eviction.  Before this was spelled out the
    zero heading silently zeroed every dot product, which *looked*
    like distance-only ranking but left the behaviour an accident of
    the comparison ``0 < 0`` and the sort's stability.
    """

    def __init__(self, behind_penalty: float = 1.0):
        if behind_penalty < 0:
            raise ValueError("behind_penalty must be non-negative")
        self.behind_penalty = behind_penalty

    def rank_victims(
        self,
        items: Sequence[CacheItem],
        host_position: Point,
        heading: tuple[float, float],
    ) -> list[CacheItem]:
        items = list(items)
        n = len(items)
        if n <= 1:
            return items
        scores, ids = self.score_batch(items, host_position, heading)
        # Descending (score, poi_id): reverse-sorting the key tuples is
        # an ascending lexsort on the negated columns (poi_ids are
        # unique, so the order is total and stability is moot).
        order = np.lexsort((np.negative(ids), np.negative(scores)))
        return [items[i] for i in order]

    def score_batch(
        self,
        items: Sequence[CacheItem],
        host_position: Point,
        heading: tuple[float, float],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised eviction scores over a structure-of-arrays view.

        Returns ``(scores, poi_ids)``; larger score means evict first.
        See :meth:`score_arrays` for the float contract.
        """
        # POI.x/.y are properties over .location; chase the Point once.
        locations = [item.poi.location for item in items]
        xs = np.array([p.x for p in locations], np.float64)
        ys = np.array([p.y for p in locations], np.float64)
        ids = np.array([item.poi.poi_id for item in items], np.int64)
        return self.score_arrays(xs, ys, host_position, heading), ids

    def score_arrays(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        host_position: Point,
        heading: tuple[float, float],
    ) -> np.ndarray:
        """Eviction scores straight from coordinate arrays.

        The distance column runs ``math.hypot`` per element (its
        rounding differs from ``np.hypot`` in ~0.6 % of cases and the
        historical ranking depends on it); the behind-penalty and the
        degenerate-heading degradation are applied as array ops with
        the same float expressions as the scalar definition.
        """
        dx = xs - host_position.x
        dy = ys - host_position.y
        dist = np.fromiter(
            map(math.hypot, dx.tolist(), dy.tolist()), np.float64, dx.size
        )
        hx, hy = heading
        if hx == 0.0 and hy == 0.0:
            # Degenerate-heading contract: pure farthest-distance.
            return dist
        behind = dx * hx + dy * hy < 0.0
        return np.where(behind, dist * (1.0 + self.behind_penalty), dist)

    def select_victims(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        ids: np.ndarray,
        excess: int,
        host_position: Point,
        heading: tuple[float, float],
    ) -> np.ndarray:
        """Indices of the top-``excess`` victims, in eviction order.

        Identical ranking to :meth:`rank_victims` sliced to ``excess``
        (``tests/test_cache_policy_select.py`` pins the two).  The pool
        is ranked by ``np.hypot`` scores — one array call — and only the
        members whose approximate score sits within ``NEAR_REL``
        (relative, plus ``NEAR_ABS``) of a neighbour's in that order are
        re-scored exactly (:meth:`score_arrays`) before the final sort:

        * ``np.hypot`` and ``math.hypot`` each land within a few ulp of
          the true distance (~1e-15 relative), IEEE round-to-nearest is
          monotone, so after the behind-penalty multiply an
          approximate score is within ``NEAR_REL / 2`` of the exact one
          by three orders of magnitude;
        * a member whose approximate score is farther than that from
          both neighbours therefore keeps its place against every
          other member, approximate or exact, and the mixed scores sort
          exactly as the exact ones would.  Equal approximate scores
          are neighbours at distance zero: they are re-scored, and
          exact ties fall to the larger ``poi_id`` as in
          :meth:`rank_victims`.
        """
        n = int(ids.size)
        excess = min(excess, n)
        if excess <= 0:
            return np.empty(0, dtype=np.intp)
        dx = xs - host_position.x
        dy = ys - host_position.y
        scores = np.hypot(dx, dy)
        hx, hy = heading
        if hx != 0.0 or hy != 0.0:
            scores = np.where(
                dx * hx + dy * hy < 0.0,
                scores * (1.0 + self.behind_penalty),
                scores,
            )
        # Without near neighbours every gap is positive: the order is
        # strict, and no tie is left for the id to break.
        order = np.argsort(scores)[::-1]
        ranked = scores[order]
        floor = ranked[:-1] * (1.0 - NEAR_REL)
        floor -= NEAR_ABS
        near = ranked[1:] >= floor
        if near.any():
            pairs = np.flatnonzero(near)
            exact = order[np.union1d(pairs, pairs + 1)]
            scores[exact] = self.score_arrays(
                xs[exact], ys[exact], host_position, heading
            )
            order = np.lexsort((np.negative(ids), np.negative(scores)))
        return order[:excess]


class LRUPolicy:
    """Evict the least recently used item first (ablation baseline)."""

    def rank_victims(
        self,
        items: Sequence[CacheItem],
        host_position: Point,
        heading: tuple[float, float],
    ) -> list[CacheItem]:
        return sorted(items, key=lambda item: item.last_used)


class FIFOPolicy:
    """Evict the oldest-inserted item first (ablation baseline)."""

    def rank_victims(
        self,
        items: Sequence[CacheItem],
        host_position: Point,
        heading: tuple[float, float],
    ) -> list[CacheItem]:
        return sorted(items, key=lambda item: item.inserted_at)
