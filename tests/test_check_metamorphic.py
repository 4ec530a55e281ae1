"""Tests for the metamorphic properties of ``repro.check.metamorphic``."""

import numpy as np
import pytest

from repro.broadcast import OnAirClient
from repro.check.metamorphic import (
    knn_radius_monotone,
    translation_invariant_knn,
    window_shrink_duality,
)
from repro.geometry import Point, Rect, RectUnion
from repro.model import POI
from repro.workloads import generate_pois


def make_world(seed=0, n=40, extent=10.0):
    rng = np.random.default_rng(seed)
    bounds = Rect(0, 0, extent, extent)
    pois = generate_pois(bounds, n, rng)
    return pois, bounds


class TestTranslationInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_holds_on_random_worlds(self, seed):
        pois, bounds = make_world(seed)
        violations = translation_invariant_knn(
            pois, bounds, Point(3.3, 7.1), k=5, offset=(17.0, -4.5)
        )
        assert violations == []

    def test_detects_a_translation_sensitive_answer(self):
        # A world deliberately broken by moving one POI only in the
        # shifted copy must trip the property.
        pois, bounds = make_world(3)
        moved = [
            POI(p.poi_id, Point(p.x + 11.0, p.y + 11.0), p.category)
            for p in pois
        ]
        # Corrupt the shifted world's nearest POI to the query.
        query = Point(5.0, 5.0)
        nearest = min(
            range(len(moved)),
            key=lambda i: (moved[i].x - 16.0) ** 2 + (moved[i].y - 16.0) ** 2,
        )
        # Exile it to the far corner of the shifted world.
        moved[nearest] = POI(moved[nearest].poi_id, Point(20.9, 20.9))
        shifted_bounds = Rect(
            bounds.x1 + 11, bounds.y1 + 11, bounds.x2 + 11, bounds.y2 + 11
        )
        base = OnAirClient.build(pois, bounds, hilbert_order=4,
                                 bucket_capacity=4)
        broken = OnAirClient.build(
            moved, shifted_bounds, hilbert_order=4, bucket_capacity=4
        )
        got = [e.poi.poi_id for e in base.knn(query, 5, t_query=0.0).results]
        got_shifted = [
            e.poi.poi_id
            for e in broken.knn(Point(16.0, 16.0), 5, t_query=0.0).results
        ]
        assert got != got_shifted


class TestKMonotonicity:
    def test_radius_grows_with_k(self):
        pois, bounds = make_world(4)
        client = OnAirClient.build(pois, bounds, hilbert_order=4,
                                   bucket_capacity=4)
        assert knn_radius_monotone(client, Point(4.0, 4.0), (1, 2, 4, 8)) == []

    def test_unsorted_ks_are_sorted_internally(self):
        pois, bounds = make_world(5)
        client = OnAirClient.build(pois, bounds, hilbert_order=4,
                                   bucket_capacity=4)
        assert knn_radius_monotone(client, Point(2.0, 8.0), (8, 1, 4)) == []


class TestWindowShrinkDuality:
    def test_partition_holds(self):
        union = RectUnion([Rect(0, 0, 3, 2), Rect(2, 1, 5, 4)])
        assert window_shrink_duality(union, Rect(1, 0, 4, 3)) == []

    def test_covered_window(self):
        union = RectUnion([Rect(0, 0, 5, 5)])
        assert window_shrink_duality(union, Rect(1, 1, 2, 2)) == []

    def test_disjoint_window(self):
        union = RectUnion([Rect(0, 0, 1, 1)])
        assert window_shrink_duality(union, Rect(5, 5, 7, 7)) == []

    def test_detects_inconsistent_remainder(self):
        union = RectUnion([Rect(0, 0, 3, 2), Rect(2, 1, 5, 4)])

        class Tampered(RectUnion):
            def subtract_from_rect(self, window):
                pieces = RectUnion.subtract_from_rect(self, window)
                return pieces[:-1] if len(pieces) > 1 else pieces

        tampered = Tampered([Rect(0, 0, 3, 2), Rect(2, 1, 5, 4)])
        window = Rect(1, 0, 5, 4)
        assert window_shrink_duality(union, window) == []
        assert window_shrink_duality(tampered, window) != []
