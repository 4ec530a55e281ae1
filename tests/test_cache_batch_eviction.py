"""Batched eviction vs the sequential reference path.

``POICache._enforce_capacity`` ranks every victim in one vectorised
policy call, deletes them in one pass, and repairs the verified
regions once for the whole batch.  The pre-batching behaviour — evict
the ranked victims one at a time, re-scanning every region per victim
— lives here as :func:`evict_one`.  These properties pin the two
paths to each other on randomised caches: same survivor set, same
region rectangles (same shrinks, in the same order), same coalesce
flag, and the verified-region soundness invariant intact either way.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import POICache, VerifiedRegion
from repro.cache.store import shrink_rect_to_exclude
from repro.geometry import Point, Rect
from repro.model import POI


def evict_one(cache, poi):
    """Remove one POI, shrinking every region that covers it."""
    del cache._items[poi.poi_id]
    cache._drop_slot_of(poi.poi_id)
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
        cache._regions_coalesced = False

# Integer-lattice POI positions and rect corners: containment and the
# eviction-margin cuts stay exact, so any batch/sequential divergence
# is a real algorithmic difference rather than float noise.
poi_pool = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=4,
    max_size=30,
    unique=True,
).map(
    lambda pts: [
        POI(i, Point(float(x), float(y))) for i, (x, y) in enumerate(pts)
    ]
)

rects = st.tuples(
    st.integers(0, 9), st.integers(0, 9), st.integers(1, 6), st.integers(1, 6)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

insert_batches = st.lists(rects, min_size=1, max_size=6)

positions = st.tuples(
    st.integers(-2, 14), st.integers(-2, 14)
).map(lambda t: Point(float(t[0]), float(t[1])))

headings = st.sampled_from(
    [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (math.sqrt(0.5), math.sqrt(0.5))]
)


def _filled_cache(pool, regions, position, heading, capacity):
    """A cache built through the public API, one insert per region.

    Each insert carries *every* pool POI inside its region, honouring
    the completeness contract of ``insert_result``; a generous build
    capacity keeps eviction out of the construction phase.
    """
    cache = POICache(capacity=capacity, max_regions=4)
    for step, region in enumerate(regions):
        pois = [p for p in pool if region.contains_point(p.location)]
        cache.insert_result(region, pois, float(step), position, heading)
    return cache


class TestBatchedEvictionEquivalence:
    @given(poi_pool, insert_batches, positions, headings, st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_sequential_evict(
        self, pool, regions, position, heading, capacity
    ):
        batched = _filled_cache(pool, regions, position, heading, len(pool))
        reference = _filled_cache(pool, regions, position, heading, len(pool))
        assert list(batched._items) == list(reference._items)

        excess = len(batched) - capacity
        batched.capacity = reference.capacity = capacity
        now = float(len(regions))
        evicted = batched._enforce_capacity(now, position, heading)

        if excess <= 0:
            assert evicted == 0
        else:
            assert evicted == excess
            victims = reference.policy.rank_victims(
                list(reference._items.values()), position, heading
            )[:excess]
            for item in victims:
                evict_one(reference, item.poi)

        assert list(batched._items) == list(reference._items)
        assert batched.regions == reference.regions
        assert batched._regions_coalesced == reference._regions_coalesced
        batched.check_soundness(pool)
        reference.check_soundness(pool)

    @given(poi_pool, insert_batches, positions, headings, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_public_path_stays_sound_under_pressure(
        self, pool, regions, position, heading, capacity
    ):
        """Evictions triggered inside ``insert_result`` itself."""
        cache = _filled_cache(pool, regions, position, heading, capacity)
        assert len(cache) <= capacity
        cache.check_soundness(pool)
