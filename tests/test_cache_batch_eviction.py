"""Batched eviction vs the sequential reference path.

A visit's eviction ranks every victim in one vectorised policy call,
deletes them in one pass, and repairs the verified regions once for
the whole batch.  The pre-batching behaviour — evict the ranked
victims one at a time, re-scanning every region per victim — lives
here as :func:`evict_one`.  These properties pin the two paths to each
other on randomised caches (an over-full cache visited by one empty
degenerate step evicts down to capacity and does nothing else): same
survivor set, same region rectangles (same shrinks, in the same
order), the same settled state, and the verified-region soundness
invariant intact either way.  Both run at two shapes: four regions
over a few POIs, and the worlds' own capacity 50 / ``max_regions=50``
with dozens of regions.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import POICache, VerifiedRegion
from repro.cache.store import ALL_MOVED, SETTLED, shrink_rect_to_exclude
from repro.geometry import Point, Rect
from repro.model import POI


def evict_one(cache, poi):
    """Remove one POI, shrinking every region that covers it."""
    cache._drop([poi.poi_id])
    updated = []
    shrunk_any = False
    for vr in cache._regions:
        if not vr.rect.contains_point(poi.location):
            updated.append(vr)
            continue
        shrunk_any = True
        shrunk = shrink_rect_to_exclude(vr.rect, poi.location)
        if shrunk is not None:
            updated.append(VerifiedRegion(shrunk, vr.created_at))
    if shrunk_any:
        cache._regions = updated
        cache._moved = ALL_MOVED


# Integer-lattice POI positions and rect corners: containment and the
# eviction-margin cuts stay exact, so any batch/sequential divergence
# is a real algorithmic difference rather than float noise.
def poi_pool(side, min_size, max_size):
    return st.lists(
        st.tuples(st.integers(0, side), st.integers(0, side)),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    ).map(
        lambda pts: [
            POI(i, Point(float(x), float(y))) for i, (x, y) in enumerate(pts)
        ]
    )


def insert_batches(side, extent, min_size, max_size):
    rects = st.tuples(
        st.integers(0, side - 3),
        st.integers(0, side - 3),
        st.integers(1, extent),
        st.integers(1, extent),
    ).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))
    return st.lists(rects, min_size=min_size, max_size=max_size)


# (max_regions, POI pool, inserted regions, capacity to evict down to).
shapes = st.one_of(
    st.tuples(
        st.just(4), poi_pool(12, 4, 30), insert_batches(12, 6, 1, 6),
        st.integers(1, 8),
    ),
    st.tuples(
        st.just(50), poi_pool(24, 100, 250), insert_batches(24, 5, 30, 70),
        st.just(50),
    ),
)

positions = st.tuples(
    st.integers(-2, 26), st.integers(-2, 26)
).map(lambda t: Point(float(t[0]), float(t[1])))

headings = st.sampled_from(
    [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (math.sqrt(0.5), math.sqrt(0.5))]
)


def _filled_cache(pool, regions, position, heading, capacity, max_regions):
    """A cache built through the public API, one insert per region.

    Each insert carries *every* pool POI inside its region, honouring
    the completeness contract of ``insert_result``; a generous build
    capacity keeps eviction out of the construction phase.
    """
    cache = POICache(capacity=capacity, max_regions=max_regions)
    for step, region in enumerate(regions):
        pois = [p for p in pool if region.contains_point(p.location)]
        cache.insert_result([(region, pois)], float(step), position, heading)
    return cache


class TestBatchedEvictionEquivalence:
    @given(shapes, positions, headings)
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_sequential_evict(self, shape, position, heading):
        max_regions, pool, regions, capacity = shape
        batched = _filled_cache(
            pool, regions, position, heading, len(pool), max_regions
        )
        reference = _filled_cache(
            pool, regions, position, heading, len(pool), max_regions
        )
        assert list(batched._items) == list(reference._items)
        before = list(batched._regions)

        excess = len(batched) - capacity
        batched.capacity = reference.capacity = capacity
        now = float(len(regions))
        held = len(batched)
        batched.insert_result([(Rect(0, 0, 0, 0), ())], now, position, heading)
        evicted = held - len(batched)

        if excess <= 0:
            assert evicted == 0
        else:
            assert evicted == excess
            victims = reference.policy.rank_victims(
                list(reference._items.values()), position, heading
            )[:excess]
            for poi in victims:
                evict_one(reference, poi)

        assert list(batched._items) == list(reference._items)
        assert batched.regions == reference.regions
        assert (batched._moved is SETTLED) == (reference._moved is SETTLED)
        # The marker lists exactly the regions the repair rebuilt:
        # every other region is the very object it was before.
        moved = {id(vr) for vr in batched._moved}
        unmoved = {id(vr) for vr in before}
        assert len(moved) == len(batched._moved)
        for vr in batched._regions:
            assert (id(vr) in moved) != (id(vr) in unmoved)
        batched.check_soundness(pool)
        reference.check_soundness(pool)

    @given(shapes, positions, headings)
    @settings(max_examples=60, deadline=None)
    def test_public_path_stays_sound_under_pressure(
        self, shape, position, heading
    ):
        """Evictions triggered inside ``insert_result`` itself."""
        max_regions, pool, regions, capacity = shape
        cache = _filled_cache(
            pool, regions, position, heading, capacity, max_regions
        )
        assert len(cache) <= capacity
        cache.check_soundness(pool)
