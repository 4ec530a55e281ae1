"""Hilbert space-filling curve encoding.

The broadcast server (Zheng et al. [17], Section 2.1 of the paper)
orders POIs on the channel by their Hilbert value because the curve
preserves locality: cells that are close in the plane tend to be close
on the curve, so a spatial query touches a short broadcast segment.

The functions here implement the classic iterative transform between a
cell index ``(x, y)`` on a ``2^order x 2^order`` grid and the distance
``d`` along the curve, plus helpers to map continuous coordinates into
cells of an arbitrary bounding rectangle.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from .point import Point
from .rect import Rect


def _rotate(side: int, x: int, y: int, rx: int, ry: int) -> tuple[int, int]:
    """Rotate/flip a quadrant so the curve orientation is preserved."""
    if ry == 0:
        if rx == 1:
            x = side - 1 - x
            y = side - 1 - y
        x, y = y, x
    return x, y


def hilbert_xy_to_d(order: int, x: int, y: int) -> int:
    """Distance along the Hilbert curve of cell ``(x, y)``."""
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise GeometryError(f"cell ({x}, {y}) outside a {side}x{side} Hilbert grid")
    d = 0
    s = side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s //= 2
    return d


def hilbert_d_to_xy(order: int, d: int) -> tuple[int, int]:
    """Cell ``(x, y)`` at distance ``d`` along the Hilbert curve."""
    side = 1 << order
    if not (0 <= d < side * side):
        raise GeometryError(f"distance {d} outside a {side}x{side} Hilbert grid")
    x = y = 0
    t = d
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def hilbert_xy_to_d_batch(
    order: int, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`hilbert_xy_to_d` over int arrays.

    Runs the same iterative transform with one numpy operation per
    curve level instead of one Python loop per cell — exact integer
    arithmetic, bit-identical to the scalar function.
    """
    side = 1 << order
    x = np.asarray(xs, dtype=np.int64).copy()
    y = np.asarray(ys, dtype=np.int64).copy()
    if x.shape != y.shape:
        raise GeometryError("xs and ys must have matching shapes")
    if x.size and (
        x.min() < 0 or x.max() >= side or y.min() < 0 or y.max() >= side
    ):
        raise GeometryError(f"cell outside a {side}x{side} Hilbert grid")
    d = np.zeros(x.shape, dtype=np.int64)
    s = side // 2
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # _rotate, vectorised: flip within the quadrant, then swap axes.
        swap = ry == 0
        flip = swap & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        s //= 2
    return d


def hilbert_d_to_xy_batch(
    order: int, ds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`hilbert_d_to_xy` over an int array."""
    side = 1 << order
    t = np.asarray(ds, dtype=np.int64).copy()
    if t.size and (t.min() < 0 or t.max() >= side * side):
        raise GeometryError(f"distance outside a {side}x{side} Hilbert grid")
    x = np.zeros(t.shape, dtype=np.int64)
    y = np.zeros(t.shape, dtype=np.int64)
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        swap = ry == 0
        flip = swap & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


class HilbertGrid:
    """A Hilbert curve laid over an arbitrary bounding rectangle.

    Continuous coordinates are binned into ``2^order x 2^order`` cells;
    each cell has a curve index in ``[0, 4^order)``.

    The curve over a grid never changes, so the window reads
    (:meth:`value_span`, :meth:`block_rect`) go through
    two tables built on first use: ``table[cy, cx]`` is the value of
    cell ``(cx, cy)`` and ``inverse[d]`` is the flat index
    ``cy * side + cx`` of the cell with value ``d`` — ``8 * 4^order``
    bytes each (512 KB at order 8, the largest order the repo builds).
    """

    __slots__ = ("order", "bounds", "side", "_cell_w", "_cell_h", "_tables")

    def __init__(self, order: int, bounds: Rect) -> None:
        if order < 1:
            raise GeometryError("Hilbert order must be >= 1")
        if bounds.is_degenerate():
            raise GeometryError("Hilbert grid over a degenerate rectangle")
        self.order = order
        self.bounds = bounds
        self.side = 1 << order
        self._cell_w = bounds.width / self.side
        self._cell_h = bounds.height / self.side
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def _curve_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(table, inverse)``, encoded once per grid."""
        if self._tables is None:
            cells = np.arange(self.side, dtype=np.int64)
            gx, gy = np.meshgrid(cells, cells)
            table = hilbert_xy_to_d_batch(self.order, gx.ravel(), gy.ravel())
            self._tables = (
                table.reshape(self.side, self.side),
                np.argsort(table),
            )
        return self._tables

    @property
    def cell_count(self) -> int:
        return self.side * self.side

    @property
    def cell_diagonal(self) -> float:
        """Length of a cell diagonal (uncertainty of index-only positions)."""
        return (self._cell_w**2 + self._cell_h**2) ** 0.5

    def cell_of_point(self, p: Point) -> tuple[int, int]:
        """The grid cell containing ``p`` (clamped to the grid edge)."""
        cx = int((p.x - self.bounds.x1) / self._cell_w)
        cy = int((p.y - self.bounds.y1) / self._cell_h)
        cx = max(0, min(self.side - 1, cx))
        cy = max(0, min(self.side - 1, cy))
        return cx, cy

    def value_of_point(self, p: Point) -> int:
        """Hilbert value of the cell containing ``p``."""
        cx, cy = self.cell_of_point(p)
        return hilbert_xy_to_d(self.order, cx, cy)

    def values_of_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Batch :meth:`value_of_point` over coordinate arrays.

        The same float expressions as :meth:`cell_of_point`, truncated
        toward zero and clamped to the grid edge, then one vectorised
        curve encode — bit-identical to the scalar path.
        """
        top = self.side - 1
        cx = np.trunc((np.asarray(xs, np.float64) - self.bounds.x1) / self._cell_w)
        cy = np.trunc((np.asarray(ys, np.float64) - self.bounds.y1) / self._cell_h)
        return hilbert_xy_to_d_batch(
            self.order,
            np.clip(cx, 0, top).astype(np.int64),
            np.clip(cy, 0, top).astype(np.int64),
        )

    def cell_rect(self, cx: int, cy: int) -> Rect:
        """The spatial extent of cell ``(cx, cy)``."""
        x1 = self.bounds.x1 + cx * self._cell_w
        y1 = self.bounds.y1 + cy * self._cell_h
        return Rect(x1, y1, x1 + self._cell_w, y1 + self._cell_h)

    def rect_of_value(self, d: int) -> Rect:
        """The spatial extent of the cell with Hilbert value ``d``."""
        cx, cy = hilbert_d_to_xy(self.order, d)
        return self.cell_rect(cx, cy)

    def rects_of_values(
        self, ds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batch :meth:`rect_of_value`: ``(x1, y1, x2, y2)`` arrays.

        One vectorised curve decode for the whole array, then the same
        float expressions as :meth:`cell_rect` applied elementwise —
        every coordinate is bit-identical to the scalar path.
        """
        cx, cy = hilbert_d_to_xy_batch(self.order, np.asarray(ds, np.int64))
        x1 = self.bounds.x1 + cx * self._cell_w
        y1 = self.bounds.y1 + cy * self._cell_h
        return x1, y1, x1 + self._cell_w, y1 + self._cell_h

    def aligned_blocks(
        self, lo: int, hi: int, min_cells: int = 1
    ) -> list[tuple[int, int]]:
        """The maximal 4^m-aligned runs inside ``[lo, hi]``, as ``(start, size)``.

        A run of Hilbert values aligned at a multiple of ``4^m`` and of
        length ``4^m`` occupies exactly one ``2^m x 2^m`` square of
        cells (:meth:`block_rect`), a region whose cells all lie inside
        the value range — the sound cacheable regions of a contiguous
        broadcast-segment download.  Runs smaller than ``min_cells``
        are dropped.
        """
        if not (0 <= lo <= hi < self.cell_count):
            raise GeometryError(f"invalid Hilbert range [{lo}, {hi}]")
        runs: list[tuple[int, int]] = []
        cur = lo
        while cur <= hi:
            size = 1
            while cur % (size * 4) == 0 and cur + size * 4 - 1 <= hi:
                size *= 4
            if size >= min_cells:
                runs.append((cur, size))
            cur += size
        return runs

    def block_rect(self, start: int, size: int) -> Rect:
        """The square extent of the aligned run ``(start, size)``."""
        side = int(round(size**0.5))
        cy, cx = divmod(int(self._curve_tables()[1][start]), self.side)
        bx = (cx // side) * side
        by = (cy // side) * side
        low = self.cell_rect(bx, by)
        high = self.cell_rect(bx + side - 1, by + side - 1)
        return low.union_mbr(high)

    def value_span(self, window: Rect) -> tuple[int, int] | None:
        """The least and greatest Hilbert value of the cells ``window``
        touches (``None`` outside the bounds).

        They bound the broadcast segment the on-air window algorithm
        must listen to.
        """
        clipped = window.intersection(self.bounds)
        if clipped is None:
            return None
        cx1, cy1 = self.cell_of_point(Point(clipped.x1, clipped.y1))
        cx2, cy2 = self.cell_of_point(Point(clipped.x2, clipped.y2))
        cells = self._curve_tables()[0][cy1 : cy2 + 1, cx1 : cx2 + 1]
        return int(cells.min()), int(cells.max())
