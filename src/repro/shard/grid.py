"""The shard grid: a near-square factoring of the service area.

``N`` shards tile the world in a ``cols x rows`` grid with
``cols * rows == N`` and the factoring as square as possible — thin
halos make boundary exchange cheap, and a square-ish tile minimises
boundary length per unit area.  The halo width derives from the radio
model: a host can only interact with peers within
``p2p_hops * TxRange``, so mirroring that band of foreign hosts around
each tile lets every in-range interaction be evaluated shard-locally.
At the paper's parameters (TxRange <= 200 m on a 20 mi side) a
single-hop halo is ~1.2 % of the tile side at 4 shards — the thinness
the ISSUE banks on.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExperimentError
from ..geometry import Rect


def near_square_factoring(n: int) -> tuple[int, int]:
    """``(cols, rows)`` with ``cols * rows == n``, as square as possible.

    Prefers the wider orientation on non-square factorings
    (``cols >= rows``); primes degrade to ``n x 1`` strips.
    """
    if n < 1:
        raise ExperimentError(f"shard count must be >= 1, got {n}")
    best = (n, 1)
    for rows in range(1, int(n**0.5) + 1):
        if n % rows == 0:
            best = (n // rows, rows)
    return best


class ShardGrid:
    """Rectangular decomposition of ``bounds`` into ``n`` shard tiles."""

    def __init__(self, bounds: Rect, n: int, halo_width: float):
        if halo_width <= 0:
            raise ExperimentError(
                f"halo width must be positive, got {halo_width}"
            )
        self.bounds = bounds
        self.n = int(n)
        self.halo_width = float(halo_width)
        self.cols, self.rows = near_square_factoring(self.n)
        self.tile_w = bounds.width / self.cols
        self.tile_h = bounds.height / self.rows
        if self.n > 1 and halo_width >= min(self.tile_w, self.tile_h):
            # Not a correctness problem (halos may overlap arbitrarily
            # many tiles), but the halo mask below only scans the
            # expanded rectangle, which is exact regardless — this
            # guard just flags configurations where sharding cannot
            # pay off because every host would be mirrored everywhere.
            raise ExperimentError(
                f"halo width {halo_width:g} exceeds the shard tile"
                f" ({self.tile_w:g} x {self.tile_h:g}); use fewer shards"
            )

    # ------------------------------------------------------------------
    def rect_of(self, shard: int) -> Rect:
        """The tile rectangle owned by ``shard``."""
        self._check(shard)
        row, col = divmod(shard, self.cols)
        x1 = self.bounds.x1 + col * self.tile_w
        y1 = self.bounds.y1 + row * self.tile_h
        # The last column/row absorbs float residue so tiles exactly
        # tile the world.
        x2 = self.bounds.x2 if col == self.cols - 1 else x1 + self.tile_w
        y2 = self.bounds.y2 if row == self.rows - 1 else y1 + self.tile_h
        return Rect(x1, y1, x2, y2)

    def owner_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised tile assignment: one owner shard per position.

        Bin edges follow the uniform-grid convention (half-open cells,
        the top/right world edge clamped into the last tile), so every
        in-bounds position has exactly one owner.
        """
        cols = np.clip(
            ((xs - self.bounds.x1) / self.tile_w).astype(np.int64),
            0,
            self.cols - 1,
        )
        rows = np.clip(
            ((ys - self.bounds.y1) / self.tile_h).astype(np.int64),
            0,
            self.rows - 1,
        )
        return rows * self.cols + cols

    def member_mask(
        self, shard: int, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Mask of positions inside the shard's halo-expanded tile."""
        rect = self.rect_of(shard)
        h = self.halo_width
        return (
            (xs >= rect.x1 - h)
            & (xs <= rect.x2 + h)
            & (ys >= rect.y1 - h)
            & (ys <= rect.y2 + h)
        )

    def _check(self, shard: int) -> None:
        if not (0 <= shard < self.n):
            raise ExperimentError(f"unknown shard {shard} of {self.n}")
