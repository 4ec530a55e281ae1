"""Tests for the uniform grid and the brute-force helpers."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import Point, Rect
from repro.index import UniformGrid, brute_force_knn, brute_force_window
from repro.model import POI


class TestBruteForce:
    def make(self):
        return [
            POI(0, Point(0, 0)),
            POI(1, Point(3, 4)),
            POI(2, Point(1, 1)),
            POI(3, Point(10, 10)),
        ]

    def test_knn_order_and_distances(self):
        result = brute_force_knn(self.make(), Point(0, 0), 2)
        assert [e.poi.poi_id for e in result] == [0, 2]
        assert result[1].distance == pytest.approx(2**0.5)

    def test_knn_ties_break_by_id(self):
        pois = [POI(5, Point(1, 0)), POI(2, Point(-1, 0))]
        result = brute_force_knn(pois, Point(0, 0), 2)
        assert [e.poi.poi_id for e in result] == [2, 5]

    def test_knn_negative_k_raises(self):
        with pytest.raises(ValueError):
            brute_force_knn(self.make(), Point(0, 0), -1)

    def test_window(self):
        hits = brute_force_window(self.make(), Rect(0, 0, 3, 4))
        assert [p.poi_id for p in hits] == [0, 1, 2]


class TestUniformGrid:
    def build(self, n=500, seed=0, bounds=Rect(0, 0, 100, 100), cell=5.0):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(bounds.x1, bounds.x2, n)
        ys = rng.uniform(bounds.y1, bounds.y2, n)
        grid = UniformGrid(bounds, cell)
        grid.rebuild(xs, ys)
        return grid, xs, ys

    def test_invalid_construction(self):
        with pytest.raises(GeometryError):
            UniformGrid(Rect(0, 0, 10, 10), 0)
        with pytest.raises(GeometryError):
            UniformGrid(Rect(0, 0, 0, 10), 1)

    def test_query_before_rebuild_raises(self):
        grid = UniformGrid(Rect(0, 0, 10, 10), 1)
        with pytest.raises(GeometryError):
            grid.query_disc(Point(5, 5), 1)

    def test_mismatched_arrays_raise(self):
        grid = UniformGrid(Rect(0, 0, 10, 10), 1)
        with pytest.raises(GeometryError):
            grid.rebuild(np.zeros(3), np.zeros(4))

    def test_negative_radius_raises(self):
        grid, _, _ = self.build()
        with pytest.raises(GeometryError):
            grid.query_disc(Point(0, 0), -1)

    @pytest.mark.parametrize("radius", [0.0, 1.0, 7.5, 40.0])
    def test_disc_matches_brute_force(self, radius):
        grid, xs, ys = self.build()
        rng = np.random.default_rng(1)
        for _ in range(15):
            c = Point(*rng.uniform(0, 100, 2))
            got = set(grid.query_disc(c, radius).tolist())
            d2 = (xs - c.x) ** 2 + (ys - c.y) ** 2
            expected = set(np.nonzero(d2 <= radius * radius)[0].tolist())
            assert got == expected

    def test_points_outside_bounds_remain_queryable(self):
        grid = UniformGrid(Rect(0, 0, 10, 10), 2.0)
        xs = np.array([-5.0, 15.0, 5.0])
        ys = np.array([-5.0, 15.0, 5.0])
        grid.rebuild(xs, ys)
        # A huge disc finds everything, including clamped outliers.
        got = set(grid.query_disc(Point(5, 5), 100.0).tolist())
        assert got == {0, 1, 2}

    def test_rebuild_replaces_contents(self):
        grid, _, _ = self.build(n=10)
        assert grid.size == 10
        grid.rebuild(np.array([1.0]), np.array([1.0]))
        assert grid.size == 1
        assert set(grid.query_disc(Point(1, 1), 0.5).tolist()) == {0}

    def test_empty_grid(self):
        grid = UniformGrid(Rect(0, 0, 10, 10), 1.0)
        grid.rebuild(np.empty(0), np.empty(0))
        assert grid.query_disc(Point(5, 5), 3).size == 0
