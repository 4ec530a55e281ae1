"""A uniform grid over moving objects for fast disc queries.

The simulator asks "which mobile hosts are within ``TxRange`` of q?"
thousands of times per run.  Host positions live in numpy arrays; the
grid bins them into square cells of roughly the transmission range so
a disc query only inspects a 3x3 cell neighbourhood.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..errors import GeometryError
from ..geometry import Point, Rect


class UniformGrid:
    """A rebuildable uniform grid over ``n`` points.

    Parameters
    ----------
    bounds:
        The world rectangle.  Points outside are clamped into the edge
        cells (they remain queryable).
    cell_size:
        Edge length of a grid cell; pick the typical query radius.
    """

    def __init__(self, bounds: Rect, cell_size: float):
        if cell_size <= 0:
            raise GeometryError(f"cell_size must be positive, got {cell_size}")
        if bounds.is_degenerate():
            raise GeometryError("grid bounds must have positive area")
        self.bounds = bounds
        self.cell_size = cell_size
        self.cols = max(1, math.ceil(bounds.width / cell_size))
        self.rows = max(1, math.ceil(bounds.height / cell_size))
        self._xs: np.ndarray | None = None
        self._ys: np.ndarray | None = None
        self._cell_of: np.ndarray | None = None
        self._order: np.ndarray | None = None
        self._starts: np.ndarray | None = None

    # ------------------------------------------------------------------
    def rebuild(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """(Re)index the point set; arrays are referenced, not copied."""
        if xs.shape != ys.shape or xs.ndim != 1:
            raise GeometryError("xs and ys must be equal-length 1-D arrays")
        self._xs = xs
        self._ys = ys
        cx = np.clip(
            ((xs - self.bounds.x1) / self.cell_size).astype(np.int64),
            0,
            self.cols - 1,
        )
        cy = np.clip(
            ((ys - self.bounds.y1) / self.cell_size).astype(np.int64),
            0,
            self.rows - 1,
        )
        cells = cy * self.cols + cx
        order = np.argsort(cells, kind="stable")
        self._cell_of = cells
        self._order = order
        sorted_cells = cells[order]
        starts = np.searchsorted(
            sorted_cells, np.arange(self.cols * self.rows + 1)
        )
        self._starts = starts

    @property
    def size(self) -> int:
        return 0 if self._xs is None else int(self._xs.shape[0])

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The indexed coordinate arrays ``(xs, ys)`` (not copies)."""
        if self._xs is None or self._ys is None:
            raise GeometryError("grid queried before rebuild()")
        return self._xs, self._ys

    def _cell_indices(self, cell: int) -> np.ndarray:
        assert self._order is not None and self._starts is not None
        return self._order[self._starts[cell] : self._starts[cell + 1]]

    # ------------------------------------------------------------------
    def query_disc(self, center: Point, radius: float) -> np.ndarray:
        """Indices of all points within ``radius`` of ``center``."""
        if self._xs is None:
            raise GeometryError("grid queried before rebuild()")
        if radius < 0:
            raise GeometryError(f"radius must be non-negative, got {radius}")
        reach = math.ceil(radius / self.cell_size)
        cx = min(
            self.cols - 1,
            max(0, int((center.x - self.bounds.x1) / self.cell_size)),
        )
        cy = min(
            self.rows - 1,
            max(0, int((center.y - self.bounds.y1) / self.cell_size)),
        )
        candidates: list[np.ndarray] = []
        for gy in range(max(0, cy - reach), min(self.rows, cy + reach + 1)):
            row_base = gy * self.cols
            for gx in range(max(0, cx - reach), min(self.cols, cx + reach + 1)):
                idx = self._cell_indices(row_base + gx)
                if idx.size:
                    candidates.append(idx)
        if not candidates:
            return np.empty(0, dtype=np.int64)
        idx = np.concatenate(candidates)
        dx = self._xs[idx] - center.x
        dy = self._ys[idx] - center.y
        mask = dx * dx + dy * dy <= radius * radius
        return idx[mask]
