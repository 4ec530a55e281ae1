"""The broadcast server: Hilbert-ordered data file construction.

The server owns the ground-truth POI database and serialises it for
the wireless channel: POIs are sorted by the Hilbert value of their
cell and packed into fixed-capacity buckets; the index segment lists
every occupied Hilbert value with its bucket.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from ..errors import BroadcastError
from ..geometry import HilbertGrid, Rect
from ..model import POI
from .packets import DataBucket, IndexEntry, IndexSegment


class BroadcastServer:
    """Builds and owns the broadcast data file for a POI database."""

    def __init__(
        self,
        pois: Sequence[POI],
        bounds: Rect,
        hilbert_order: int = 8,
        bucket_capacity: int = 8,
        entries_per_index_packet: int = 64,
    ):
        if not pois:
            raise BroadcastError("cannot broadcast an empty database")
        if bucket_capacity < 1:
            raise BroadcastError("bucket_capacity must be >= 1")
        self.bounds = bounds
        self.grid = HilbertGrid(hilbert_order, bounds)
        self.bucket_capacity = bucket_capacity
        self.pois = tuple(pois)

        # The data file, built from arrays: every POI's cell value in
        # one vectorised encode, the (value, poi id) order by lexsort,
        # and each bucket's extent as the min / max over its POIs' cell
        # rectangles — one reduceat per side.
        n = len(self.pois)
        ids = np.fromiter((p.poi_id for p in self.pois), np.int64, count=n)
        xs = np.fromiter((p.location.x for p in self.pois), np.float64, count=n)
        ys = np.fromiter((p.location.y for p in self.pois), np.float64, count=n)
        h_all = self.grid.values_of_points(xs, ys)
        order = np.lexsort((ids, h_all))
        h = h_all[order]
        self._sorted_hvalues = h.tolist()
        sorted_pois = [self.pois[i] for i in order.tolist()]

        starts = np.arange(0, n, bucket_capacity)
        x1, y1, x2, y2 = self.grid.rects_of_values(h)
        extents = zip(
            np.minimum.reduceat(x1, starts).tolist(),
            np.minimum.reduceat(y1, starts).tolist(),
            np.maximum.reduceat(x2, starts).tolist(),
            np.maximum.reduceat(y2, starts).tolist(),
        )
        hvalues = self._sorted_hvalues
        self.buckets: list[DataBucket] = [
            DataBucket(
                bucket_id=bucket_id,
                h_min=hvalues[start],
                h_max=hvalues[min(start + bucket_capacity, n) - 1],
                pois=tuple(sorted_pois[start : start + bucket_capacity]),
                extent=Rect(*extent),
            )
            for bucket_id, (start, extent) in enumerate(
                zip(starts.tolist(), extents)
            )
        ]

        # One index entry per occupied value: its first position in the
        # file names its bucket, the run length its POI count.
        first = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        counts = np.diff(np.r_[first, n])
        index_entries = [
            IndexEntry(value, self.bucket_of_position(position), count)
            for value, position, count in zip(
                h[first].tolist(), first.tolist(), counts.tolist()
            )
        ]
        self.index = IndexSegment(
            entries=tuple(index_entries),
            entries_per_packet=entries_per_index_packet,
        )

        # Precomputed index geometry.  The broadcast schedule is
        # immutable for the life of the server (the (1, m) data file
        # never changes mid-run), so the curve decode of every occupied
        # value happens exactly once here: one published cell centre
        # per POI (its entry's cell, once per POI in that cell, exactly
        # what the index publishes), as two float64 columns in Hilbert
        # order for the radius estimate's selection.
        self.index_center_x = (x1 + x2) / 2.0
        self.index_center_y = (y1 + y2) / 2.0

    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        return len(self.buckets)

    def bucket_of_position(self, sorted_position: int) -> int:
        """Bucket id of the POI at a position in the Hilbert-sorted file."""
        return sorted_position // self.bucket_capacity

    def buckets_in_range(self, lo: int, hi: int) -> list[int]:
        """Ids of every bucket whose Hilbert range intersects ``[lo, hi]``.

        This is the *segment* retrieval of the basic on-air algorithms
        [17]: the client listens to the whole broadcast run between the
        first and last candidate value (Figures 4 and 8 of the paper).
        """
        if lo > hi:
            raise BroadcastError(f"inverted Hilbert range [{lo}, {hi}]")
        start = bisect_left(self._sorted_hvalues, lo)
        stop = bisect_right(self._sorted_hvalues, hi)
        if start == stop:
            return []
        first = self.bucket_of_position(start)
        last = self.bucket_of_position(stop - 1)
        return list(range(first, last + 1))

    def pois_in_bucket(self, bucket_id: int) -> tuple[POI, ...]:
        if not (0 <= bucket_id < len(self.buckets)):
            raise BroadcastError(f"unknown bucket id {bucket_id}")
        return self.buckets[bucket_id].pois
