"""Cache replacement policies.

The paper's policy (after Ren & Dunham [13]) ranks eviction victims by
the distance between the host and the data object, penalising objects
that lie *behind* the host's direction of travel — a motorist will not
come back for them.  LRU and FIFO are included as ablation baselines.

The paper's policy ranks by the POI alone, so one stateless instance
(:data:`DIRECTION_DISTANCE`) serves every cache.  The two baselines
rank by a clock — last use, first admission — that each keeps for the
one cache it serves (a ``policy_factory`` builds one per host): the
cache tells a clocked policy which POIs it admits or uses
(:meth:`use`) and which it evicts (:meth:`forget`), and the clock lists
exactly the cached POIs, in the cache's own order.
"""

from __future__ import annotations

import math
from typing import Iterable, Protocol, Sequence

import numpy as np

from ..geometry import NEAR_ABS, NEAR_REL, Point
from ..model import POI


class ReplacementPolicy(Protocol):
    """Ranks cached POIs most-evictable-first."""

    def rank_victims(
        self,
        pois: Sequence[POI],
        host_position: Point,
        heading: tuple[float, float],
    ) -> list[POI]:
        """Return the POIs ordered so the first should be evicted first."""
        ...


class DirectionDistancePolicy:
    """Evict far-away objects, especially those behind the host.

    The score of a POI is its distance from the host, multiplied by
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
        pois: Sequence[POI],
        host_position: Point,
        heading: tuple[float, float],
    ) -> list[POI]:
        pois = list(pois)
        if len(pois) <= 1:
            return pois
        # POI.x/.y are properties over .location; chase the Point once.
        locations = [poi.location for poi in pois]
        xs = np.array([p.x for p in locations], np.float64)
        ys = np.array([p.y for p in locations], np.float64)
        ids = np.array([poi.poi_id for poi in pois], np.int64)
        scores = self.score_arrays(xs, ys, host_position, heading)
        # Descending (score, poi_id): reverse-sorting the key tuples is
        # an ascending lexsort on the negated columns (poi_ids are
        # unique, so the order is total and stability is moot).
        order = np.lexsort((np.negative(ids), np.negative(scores)))
        return [pois[i] for i in order]

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


# The one instance every cache without a policy of its own shares.
DIRECTION_DISTANCE = DirectionDistancePolicy()


class _ClockPolicy:
    """A rank-only policy ordered by a clock it keeps for one cache.

    ``clock`` maps each cached POI's id to its time, in the cache's
    item order; :meth:`rank_victims` sorts by it, stably, so equal
    times keep that order.
    """

    __slots__ = ("clock",)

    def __init__(self, clock: dict[int, float] | None = None) -> None:
        self.clock: dict[int, float] = {} if clock is None else clock

    def rank_victims(
        self,
        pois: Sequence[POI],
        host_position: Point,
        heading: tuple[float, float],
    ) -> list[POI]:
        clock = self.clock
        return sorted(pois, key=lambda poi: clock[poi.poi_id])

    def forget(self, poi_ids: Iterable[int]) -> None:
        """The cache evicted these POIs."""
        clock = self.clock
        for poi_id in poi_ids:
            del clock[poi_id]


class LRUPolicy(_ClockPolicy):
    """Evict the least recently used POI first (ablation baseline).

    The clock is each POI's last use: its admission, every later offer
    of it, and every answer it gives the host's own query.
    """

    __slots__ = ()

    def use(self, poi_ids: Iterable[int], now: float) -> None:
        """The cache admitted or used these POIs at ``now``."""
        clock = self.clock
        for poi_id in poi_ids:
            clock[poi_id] = now


class FIFOPolicy(_ClockPolicy):
    """Evict the oldest-admitted POI first (ablation baseline).

    The clock is each POI's admission time; a use leaves it alone.
    """

    __slots__ = ()

    def use(self, poi_ids: Iterable[int], now: float) -> None:
        """The cache admitted or used these POIs at ``now``."""
        stamp = self.clock.setdefault
        for poi_id in poi_ids:
            stamp(poi_id, now)
