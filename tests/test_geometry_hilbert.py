"""Tests for the Hilbert curve encoding and the grid wrapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    HilbertGrid,
    Point,
    Rect,
    hilbert_d_to_xy,
    hilbert_xy_to_d,
)


class TestHilbertTransform:
    def test_order_one_layout(self):
        # The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        cells = [hilbert_d_to_xy(1, d) for d in range(4)]
        assert cells == [(0, 0), (0, 1), (1, 1), (1, 0)]

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_bijection(self, order):
        side = 1 << order
        seen = set()
        for d in range(side * side):
            xy = hilbert_d_to_xy(order, d)
            assert hilbert_xy_to_d(order, *xy) == d
            seen.add(xy)
        assert len(seen) == side * side

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_adjacency(self, order):
        # Consecutive curve positions are 4-neighbours in the grid.
        side = 1 << order
        prev = hilbert_d_to_xy(order, 0)
        for d in range(1, side * side):
            cur = hilbert_d_to_xy(order, d)
            manhattan = abs(cur[0] - prev[0]) + abs(cur[1] - prev[1])
            assert manhattan == 1
            prev = cur

    def test_out_of_range_raises(self):
        with pytest.raises(GeometryError):
            hilbert_xy_to_d(2, 4, 0)
        with pytest.raises(GeometryError):
            hilbert_d_to_xy(2, 16)
        with pytest.raises(GeometryError):
            hilbert_d_to_xy(2, -1)

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=200)
    def test_roundtrip_property(self, order, data):
        side = 1 << order
        x = data.draw(st.integers(0, side - 1))
        y = data.draw(st.integers(0, side - 1))
        assert hilbert_d_to_xy(order, hilbert_xy_to_d(order, x, y)) == (x, y)


class TestHilbertGrid:
    def make_grid(self, order=3):
        return HilbertGrid(order, Rect(0, 0, 8, 8))

    def test_invalid_construction(self):
        with pytest.raises(GeometryError):
            HilbertGrid(0, Rect(0, 0, 1, 1))
        with pytest.raises(GeometryError):
            HilbertGrid(2, Rect(0, 0, 0, 1))

    def test_cell_count(self):
        assert self.make_grid(3).cell_count == 64

    def test_point_to_cell(self):
        grid = self.make_grid()
        assert grid.cell_of_point(Point(0.5, 0.5)) == (0, 0)
        assert grid.cell_of_point(Point(7.5, 7.5)) == (7, 7)
        # Points on the far edge clamp into the last cell.
        assert grid.cell_of_point(Point(8, 8)) == (7, 7)
        # Points outside clamp to the nearest edge cell.
        assert grid.cell_of_point(Point(-1, 100)) == (0, 7)

    def test_cell_rect_roundtrip(self):
        grid = self.make_grid()
        for cx, cy in [(0, 0), (3, 5), (7, 7)]:
            rect = grid.cell_rect(cx, cy)
            assert grid.cell_of_point(rect.center) == (cx, cy)

    def test_value_roundtrip(self):
        grid = self.make_grid()
        p = Point(2.5, 6.5)
        value = grid.value_of_point(p)
        assert grid.rect_of_value(value).contains_point(p)

    def test_values_intersecting_window(self):
        grid = self.make_grid()
        lo, hi = grid.value_span(Rect(0, 0, 2, 2))
        # Window covers cells (0..2, 0..2) because touching counts.
        values = [
            hilbert_xy_to_d(3, cx, cy) for cx in range(3) for cy in range(3)
        ]
        assert (lo, hi) == (min(values), max(values))

    def test_values_intersecting_whole_bounds(self):
        grid = self.make_grid(2)
        assert grid.value_span(Rect(0, 0, 8, 8)) == (0, 15)

    def test_values_intersecting_outside(self):
        grid = self.make_grid()
        assert grid.value_span(Rect(100, 100, 101, 101)) is None

    def test_cell_diagonal(self):
        grid = self.make_grid(3)
        assert grid.cell_diagonal == pytest.approx(2**0.5)

    def test_locality_of_hilbert_ordering(self):
        # The classic clustering result (Moon et al.): a square window
        # decomposes into fewer contiguous curve runs under Hilbert
        # ordering than under row-major ordering — fewer runs means
        # fewer disjoint broadcast segments to listen to.
        order = 4
        side = 1 << order

        def run_count(values):
            values = sorted(values)
            runs = 1
            for a, b in zip(values, values[1:]):
                if b != a + 1:
                    runs += 1
            return runs

        for k in (2, 4, 8):
            hilbert_runs = 0
            scan_runs = 0
            windows = 0
            for x0 in range(side - k + 1):
                for y0 in range(side - k + 1):
                    cells = [
                        (x, y)
                        for x in range(x0, x0 + k)
                        for y in range(y0, y0 + k)
                    ]
                    hilbert_runs += run_count(
                        hilbert_xy_to_d(order, x, y) for x, y in cells
                    )
                    scan_runs += run_count(y * side + x for x, y in cells)
                    windows += 1
            assert hilbert_runs / windows < scan_runs / windows


def encode_window(grid, window):
    """value_span by encoding every touched cell, per call."""
    clipped = window.intersection(grid.bounds)
    if clipped is None:
        return None
    cx1, cy1 = grid.cell_of_point(Point(clipped.x1, clipped.y1))
    cx2, cy2 = grid.cell_of_point(Point(clipped.x2, clipped.y2))
    values = [
        hilbert_xy_to_d(grid.order, cx, cy)
        for cx in range(cx1, cx2 + 1)
        for cy in range(cy1, cy2 + 1)
    ]
    return min(values), max(values)


def scalar_blocks(grid, lo, hi, min_cells):
    """aligned_blocks with the scalar curve decode per block."""
    blocks = []
    cur = lo
    while cur <= hi:
        size = 1
        while cur % (size * 4) == 0 and cur + size * 4 - 1 <= hi:
            size *= 4
        if size >= min_cells:
            side = int(round(size**0.5))
            cx, cy = hilbert_d_to_xy(grid.order, cur)
            bx, by = (cx // side) * side, (cy // side) * side
            blocks.append(
                grid.cell_rect(bx, by).union_mbr(
                    grid.cell_rect(bx + side - 1, by + side - 1)
                )
            )
        cur += size
    return blocks


class TestCurveTables:
    """The window reads go through tables encoded once per grid."""

    BOUNDS = Rect(-3.0, 2.0, 29.0, 18.0)

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=120, deadline=None)
    def test_values_intersecting_equals_the_per_call_encoding(self, order, data):
        grid = HilbertGrid(order, self.BOUNDS)
        x = st.floats(-10.0, 35.0)
        y = st.floats(-5.0, 25.0)
        for _ in range(3):
            x1, x2 = sorted((data.draw(x), data.draw(x)))
            y1, y2 = sorted((data.draw(y), data.draw(y)))
            window = Rect(x1, y1, x2, y2)
            assert grid.value_span(window) == encode_window(grid, window)

    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_full_width_window_leaves_the_table_alone(self, order):
        # A slice of whole rows is a *view* of the table: the span read
        # must leave the table as it found it.
        grid = HilbertGrid(order, self.BOUNDS)
        band = Rect(-3.0, 6.0, 29.0, 14.0)
        first = grid.value_span(band)
        table = grid._curve_tables()[0].copy()
        assert grid.value_span(band) == first == encode_window(grid, band)
        assert (grid._curve_tables()[0] == table).all()
        assert grid.value_span(self.BOUNDS) == (0, grid.cell_count - 1)
        assert (grid._curve_tables()[0] == table).all()

    def test_the_curve_is_encoded_once_per_grid(self, monkeypatch):
        import repro.geometry.hilbert as module

        encoded = []
        real = module.hilbert_xy_to_d_batch

        def counting(order, xs, ys):
            encoded.append(len(xs))
            return real(order, xs, ys)

        monkeypatch.setattr(module, "hilbert_xy_to_d_batch", counting)
        grid = HilbertGrid(5, self.BOUNDS)
        for i in range(20):
            grid.value_span(Rect(i, 3.0, i + 4.0, 9.0))
            for run in grid.aligned_blocks(i, 40 * i + 3, min_cells=4):
                grid.block_rect(*run)
        # one batch encode, of all 32 x 32 cells
        assert encoded == [1024]

    @given(st.integers(1, 8), st.sampled_from([1, 4, 16]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_aligned_blocks_equal_the_scalar_decode(self, order, min_cells, data):
        grid = HilbertGrid(order, self.BOUNDS)
        lo = data.draw(st.integers(0, grid.cell_count - 1))
        hi = data.draw(st.integers(lo, min(grid.cell_count - 1, lo + 600)))
        assert [
            grid.block_rect(*run) for run in grid.aligned_blocks(lo, hi, min_cells)
        ] == scalar_blocks(grid, lo, hi, min_cells)
