"""Property tests for the aligned-block decomposition of Hilbert
ranges — the soundness basis of segment-download caching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import HilbertGrid, Rect, hilbert_d_to_xy, hilbert_xy_to_d


def make_grid(order=4):
    return HilbertGrid(order, Rect(0, 0, 16, 16))


def block_rects(grid, lo, hi, min_cells=1):
    """The square extent of each aligned run of ``[lo, hi]``."""
    runs = grid.aligned_blocks(lo, hi, min_cells)
    return [grid.block_rect(*run) for run in runs]


class TestAlignedBlocks:
    def test_invalid_range_raises(self):
        grid = make_grid()
        with pytest.raises(GeometryError):
            grid.aligned_blocks(5, 3)
        with pytest.raises(GeometryError):
            grid.aligned_blocks(-1, 3)
        with pytest.raises(GeometryError):
            grid.aligned_blocks(0, 16**2)

    def test_full_range_is_one_block(self):
        grid = make_grid(order=3)
        blocks = block_rects(grid, 0, 63)
        assert len(blocks) == 1
        assert blocks[0] == grid.bounds

    def test_single_cell(self):
        grid = make_grid()
        blocks = block_rects(grid, 7, 7)
        assert len(blocks) == 1
        cx, cy = hilbert_d_to_xy(4, 7)
        assert blocks[0] == grid.cell_rect(cx, cy)

    def test_min_cells_filter(self):
        grid = make_grid()
        all_blocks = block_rects(grid, 1, 30, min_cells=1)
        big_blocks = block_rects(grid, 1, 30, min_cells=4)
        assert len(big_blocks) <= len(all_blocks)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120, deadline=None)
    def test_blocks_partition_the_range(self, order, data):
        cells = (1 << order) ** 2
        lo = data.draw(st.integers(0, cells - 1))
        hi = data.draw(st.integers(lo, cells - 1))
        grid = HilbertGrid(order, Rect(0, 0, 1 << order, 1 << order))
        blocks = block_rects(grid, lo, hi, min_cells=1)

        # Soundness: every cell inside a block has value in [lo, hi];
        # completeness: every value in [lo, hi] lies in some block.
        covered = set()
        for block in blocks:
            x1 = round(block.x1)
            y1 = round(block.y1)
            x2 = round(block.x2)
            y2 = round(block.y2)
            for cx in range(x1, x2):
                for cy in range(y1, y2):
                    d = hilbert_xy_to_d(order, cx, cy)
                    assert lo <= d <= hi
                    covered.add(d)
        assert covered == set(range(lo, hi + 1))

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_blocks_are_squares(self, order, data):
        cells = (1 << order) ** 2
        lo = data.draw(st.integers(0, cells - 1))
        hi = data.draw(st.integers(lo, cells - 1))
        grid = HilbertGrid(order, Rect(0, 0, 1 << order, 1 << order))
        for block in block_rects(grid, lo, hi, min_cells=1):
            assert block.width == pytest.approx(block.height)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_count_is_logarithmic(self, order, data):
        # The decomposition of any range into maximal aligned runs has
        # O(log of the range length) pieces.
        cells = (1 << order) ** 2
        lo = data.draw(st.integers(0, cells - 1))
        hi = data.draw(st.integers(lo, cells - 1))
        grid = HilbertGrid(order, Rect(0, 0, 1 << order, 1 << order))
        blocks = block_rects(grid, lo, hi, min_cells=1)
        length = hi - lo + 1
        bound = 6 * max(1, length.bit_length())
        assert len(blocks) <= bound
