"""Tests for the cooperative cache and its soundness invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    EVICTION_MARGIN,
    DirectionDistancePolicy,
    FIFOPolicy,
    LRUPolicy,
    POICache,
    shrink_rect_to_exclude,
)
from repro.check import safe_region_contract
from repro.errors import CacheError
from repro.geometry import Point, Rect
from repro.model import POI


def poi_grid(nx=10, ny=10, spacing=1.0):
    return [
        POI(j * nx + i, Point(i * spacing, j * spacing))
        for i in range(nx)
        for j in range(ny)
    ]


class TestShrinkRect:
    def test_point_outside_returns_rect(self):
        r = Rect(0, 0, 4, 4)
        assert shrink_rect_to_exclude(r, Point(10, 10)) == r

    def test_interior_point_excluded(self):
        r = Rect(0, 0, 4, 4)
        shrunk = shrink_rect_to_exclude(r, Point(1, 2))
        assert shrunk is not None
        assert not shrunk.contains_point(Point(1, 2))
        assert r.intersection(shrunk) == shrunk

    def test_largest_remainder_chosen(self):
        r = Rect(0, 0, 10, 10)
        shrunk = shrink_rect_to_exclude(r, Point(1, 5))
        # Cutting off the left sliver keeps the most area.
        assert shrunk.area > 0.8 * r.area
        assert shrunk.x1 > 1

    def test_corner_point(self):
        r = Rect(0, 0, 4, 4)
        shrunk = shrink_rect_to_exclude(r, Point(0, 0))
        assert shrunk is not None
        assert not shrunk.contains_point(Point(0, 0))

    def test_degenerate_result_is_none(self):
        r = Rect(0, 0, 1e-12, 1e-12)
        assert shrink_rect_to_exclude(r, Point(0, 0)) is None


class TestPOICacheBasics:
    def test_validation(self):
        with pytest.raises(CacheError):
            POICache(capacity=0)
        with pytest.raises(CacheError):
            POICache(capacity=5, max_regions=0)

    def test_insert_and_contains(self):
        cache = POICache(capacity=10)
        pois = poi_grid(3, 3)
        cache.insert_result([(Rect(0, 0, 2, 2), pois)], 0.0, Point(1, 1))
        assert len(cache) == 9
        assert pois[0].poi_id in cache
        assert 999 not in cache

    def test_duplicate_insert_keeps_one_copy(self):
        cache = POICache(capacity=10)
        poi = POI(1, Point(0, 0))
        cache.insert_result([(Rect(0, 0, 1, 1), [poi])], 0.0, Point(0, 0))
        cache.insert_result([(Rect(0, 0, 1, 1), [poi])], 1.0, Point(0, 0))
        assert len(cache) == 1

    def test_share_returns_regions_and_pois(self):
        cache = POICache(capacity=10)
        pois = poi_grid(2, 2)
        region = Rect(0, 0, 1, 1)
        cache.insert_result([(region, pois)], 0.0, Point(0, 0))
        regions, shared = cache.share()
        assert regions == [region]
        assert {p.poi_id for p in shared} == {p.poi_id for p in pois}

    def test_degenerate_region_pois_still_cached(self):
        cache = POICache(capacity=10)
        poi = POI(0, Point(1, 1))
        cache.insert_result([(Rect(1, 1, 1, 1), [poi])], 0.0, Point(0, 0))
        assert len(cache) == 1
        assert cache.region_rects == []

    def test_region_coalescing(self):
        cache = POICache(capacity=100)
        cache.insert_result([(Rect(0, 0, 10, 10), poi_grid(4, 4))], 0.0, Point(0, 0))
        cache.insert_result([(Rect(2, 2, 5, 5), [])], 1.0, Point(0, 0))
        # The contained region is absorbed.
        assert cache.region_rects == [Rect(0, 0, 10, 10)]

    def test_max_regions_enforced_by_dropping_farthest(self):
        cache = POICache(capacity=100, max_regions=2)
        host = Point(0, 0)
        cache.insert_result([(Rect(0, 0, 1, 1), [])], 0.0, host)
        cache.insert_result([(Rect(5, 5, 6, 6), [])], 1.0, host)
        cache.insert_result([(Rect(50, 50, 51, 51), [])], 2.0, host)
        rects = cache.region_rects
        assert len(rects) == 2
        assert Rect(50, 50, 51, 51) not in rects


class TestEvictionSoundness:
    def test_capacity_enforced(self):
        cache = POICache(capacity=5)
        cache.insert_result([(Rect(0, 0, 9, 9), poi_grid(4, 4))], 0.0, Point(0, 0))
        assert len(cache) == 5

    def test_regions_shrink_on_eviction(self):
        pois = poi_grid(10, 10)
        cache = POICache(capacity=30)
        cache.insert_result([(Rect(0, 0, 9, 9), pois)], 0.0, Point(0, 0))
        cache.check_soundness(pois)
        # Regions must have shrunk: with only 30 of 100 POIs cached,
        # covering the whole 9x9 square would be unsound.
        assert all(r.area < 81 for r in cache.region_rects)

    def test_soundness_violation_detected(self):
        cache = POICache(capacity=10)
        pois = poi_grid(3, 3)
        cache.insert_result([(Rect(0, 0, 2, 2), pois)], 0.0, Point(0, 0))
        stranger = POI(777, Point(1.5, 1.5))
        with pytest.raises(CacheError):
            cache.check_soundness(pois + [stranger])

    # The two readers of the verified rectangles share one definition
    # of "inside", strictly-open interiority at the margin: the
    # cache's own check, and the safe-region certificate derived from
    # the same rectangles.

    def test_boundary_point_is_legal_in_both_branches(self):
        # An uncached POI sitting *exactly* on the margin band must
        # not raise, and the certificate's open disc must not claim it.
        cache = POICache(capacity=10)
        cached = POI(1, Point(5, 5))
        cache.insert_result([(Rect(0, 0, 10, 10), [cached])], 0.0, Point(5, 5))
        on_margin = POI(777, Point(EVICTION_MARGIN, 5.0))
        assert cache.region_rects[0].contains_point(on_margin.location)
        cache.check_soundness([cached, on_margin])
        assert safe_region_contract(
            cache, [cached, on_margin], Point(5, 5), 1, [Point(5, 5)]
        ) == []

    def test_strict_interior_violation_raises_in_both_branches(self):
        cache = POICache(capacity=10)
        cached = POI(1, Point(5, 5))
        cache.insert_result([(Rect(0, 0, 10, 10), [cached])], 0.0, Point(5, 5))
        inside = POI(778, Point(2.0 * EVICTION_MARGIN, 5.0))
        with pytest.raises(CacheError):
            cache.check_soundness([cached, inside])
        violations = safe_region_contract(
            cache, [cached, inside], Point(5, 5), 1, []
        )
        assert violations and "snapshot" in violations[0]

    def test_eviction_leaves_the_victim_outside_every_closed_region(self):
        # What the continuous safe regions rest on: an evicted POI is
        # shrunk out of every region that held it, so an uncached POI
        # lies outside the closed union of the verified rectangles.
        pois = poi_grid(10, 10)
        cache = POICache(capacity=30, max_regions=4)
        cache.insert_result([(Rect(0, 0, 9, 9), pois)], 0.0, Point(0, 0))
        cache.insert_result([(Rect(2, 2, 12, 12), [
            p for p in pois if Rect(2, 2, 12, 12).contains_point(p.location)
        ])], 1.0, Point(9, 9))
        assert len(cache) == 30 and cache.region_rects
        for poi in pois:
            if poi.poi_id not in cache:
                assert not any(
                    rect.contains_point(poi.location)
                    for rect in cache.region_rects
                )

    def test_thin_region_skipped_without_error(self):
        # A region thinner than the 2*margin band has no strict
        # interior: check_soundness must skip it (the negative-margin
        # expand would be malformed) rather than raise or mask other
        # regions' failures.
        cache = POICache(capacity=10)
        thin = Rect(0, 0, EVICTION_MARGIN, 10)
        cache.insert_result([(thin, [])], 0.0, Point(0, 0))
        stranger = POI(779, Point(EVICTION_MARGIN / 2, 5.0))
        cache.check_soundness([stranger])

    @given(
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_soundness_invariant_under_pressure(self, capacity, seed):
        rng = np.random.default_rng(seed)
        pois = [
            POI(i, Point(float(x), float(y)))
            for i, (x, y) in enumerate(rng.uniform(0, 20, (60, 2)))
        ]
        cache = POICache(capacity=capacity)
        for round_ in range(4):
            x1, y1 = rng.uniform(0, 12, 2)
            region = Rect(x1, y1, x1 + 8, y1 + 8)
            inside = [p for p in pois if region.contains_point(p.location)]
            host = Point(*rng.uniform(0, 20, 2))
            heading = (1.0, 0.0)
            cache.insert_result([(region, inside)], float(round_), host, heading)
            cache.check_soundness(pois)
            assert len(cache) <= capacity


class TestPolicies:
    def make_items(self):
        host = Point(0, 0)
        items = [
            POI(0, Point(10, 0)),  # ahead far
            POI(1, Point(-10, 0)),  # behind far
            POI(2, Point(1, 0)),  # ahead near
            POI(3, Point(-1, 0)),  # behind near
        ]
        return host, items

    # Each POI's admission and last use, as a clocked policy keeps them.
    INSERTED_AT = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
    LAST_USED = {0: 9.0, 1: 1.0, 2: 5.0, 3: 7.0}

    def test_direction_distance_prefers_behind_and_far(self):
        host, items = self.make_items()
        policy = DirectionDistancePolicy(behind_penalty=1.0)
        ranked = policy.rank_victims(items, host, (1.0, 0.0))
        # Behind-far (id 1) scores 20, ahead-far (id 0) scores 10,
        # behind-near (id 3) scores 2, ahead-near (id 2) scores 1.
        assert [p.poi_id for p in ranked] == [1, 0, 3, 2]

    def test_direction_distance_without_heading_is_pure_distance(self):
        host, items = self.make_items()
        ranked = DirectionDistancePolicy().rank_victims(items, host, (0.0, 0.0))
        assert {ranked[0].poi_id, ranked[1].poi_id} == {0, 1}

    def test_degenerate_heading_ties_break_by_poi_id(self):
        """Regression: with heading (0, 0) every dot product is zero,
        so the behind-penalty silently never applied and equal-distance
        rankings fell back to the sort's stability — i.e. cache
        *insertion order* decided the victim.  The documented contract
        is distance-only with a deterministic poi_id tie-break."""
        host = Point(0, 0)
        # Four equidistant POIs inserted in adversarial order: a stable
        # reverse sort on distance alone would keep this insertion
        # order (3, 9, 5, 7) instead of ranking by id.
        items = [
            POI(3, Point(5, 0)),
            POI(9, Point(0, -5)),
            POI(5, Point(0, 5)),
            POI(7, Point(-5, 0)),
        ]
        ranked = DirectionDistancePolicy().rank_victims(items, host, (0.0, 0.0))
        assert [p.poi_id for p in ranked] == [9, 7, 5, 3]
        # The ranking is a pure function of (distance, poi_id): any
        # insertion order yields the same victims.
        ranked_shuffled = DirectionDistancePolicy().rank_victims(
            list(reversed(items)), host, (0.0, 0.0)
        )
        assert [p.poi_id for p in ranked_shuffled] == [9, 7, 5, 3]

    def test_moving_host_ties_break_by_poi_id(self):
        host = Point(0, 0)
        # Two equidistant POIs, both ahead: id decides.
        items = [POI(2, Point(3, 4)), POI(8, Point(4, 3))]
        ranked = DirectionDistancePolicy().rank_victims(items, host, (1.0, 1.0))
        assert [p.poi_id for p in ranked] == [8, 2]
        ranked_rev = DirectionDistancePolicy().rank_victims(
            list(reversed(items)), host, (1.0, 1.0)
        )
        assert [p.poi_id for p in ranked_rev] == [8, 2]

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            DirectionDistancePolicy(behind_penalty=-0.5)

    def test_lru_ranks_by_last_used(self):
        host, items = self.make_items()
        ranked = LRUPolicy(dict(self.LAST_USED)).rank_victims(items, host, (0, 0))
        assert [p.poi_id for p in ranked] == [1, 2, 3, 0]

    def test_fifo_ranks_by_insertion(self):
        host, items = self.make_items()
        ranked = FIFOPolicy(dict(self.INSERTED_AT)).rank_victims(
            items, host, (0, 0)
        )
        assert [p.poi_id for p in ranked] == [0, 1, 2, 3]

    def test_touch_updates_lru(self):
        cache = POICache(capacity=2, policy=LRUPolicy())
        a, b, c = POI(0, Point(0, 0)), POI(1, Point(1, 1)), POI(2, Point(2, 2))
        cache.insert_result([(Rect(0, 0, 1, 1), [a, b])], 0.0, Point(0, 0))
        cache.touch([0], now=10.0)  # a becomes the most recent
        cache.insert_result([(Rect(2, 2, 3, 3), [c])], 11.0, Point(0, 0))
        assert 0 in cache and 2 in cache and 1 not in cache
