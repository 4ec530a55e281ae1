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

        decorated = sorted(
            ((self.grid.value_of_point(p.location), p.poi_id, p) for p in pois)
        )
        self._sorted_hvalues = [h for h, _, _ in decorated]

        self.buckets: list[DataBucket] = []
        for start in range(0, len(decorated), bucket_capacity):
            chunk = decorated[start : start + bucket_capacity]
            cell_rects = [self.grid.rect_of_value(h) for h, _, _ in chunk]
            self.buckets.append(
                DataBucket(
                    bucket_id=len(self.buckets),
                    h_min=chunk[0][0],
                    h_max=chunk[-1][0],
                    pois=tuple(p for _, _, p in chunk),
                    extent=Rect.bounding(cell_rects),
                )
            )
        self._bucket_h_mins = [b.h_min for b in self.buckets]

        index_entries: list[IndexEntry] = []
        i = 0
        while i < len(decorated):
            h = decorated[i][0]
            j = i
            while j < len(decorated) and decorated[j][0] == h:
                j += 1
            bucket_id = self.bucket_of_position(i)
            index_entries.append(IndexEntry(h, bucket_id, j - i))
            i = j
        self.index = IndexSegment(
            entries=tuple(index_entries),
            entries_per_packet=entries_per_index_packet,
        )

        # Precomputed index geometry.  The broadcast schedule is
        # immutable for the life of the server (the (1, m) data file
        # never changes mid-run), so the curve decode of every occupied
        # value happens exactly once here, vectorised: one published
        # cell centre per POI (each entry repeated per POI in its cell,
        # exactly what the index publishes), as two float64 columns in
        # Hilbert order for the radius estimate's selection.
        h_arr = np.fromiter(
            (e.h_value for e in index_entries), np.int64, count=len(index_entries)
        )
        counts = np.fromiter(
            (e.poi_count for e in index_entries), np.int64, count=len(index_entries)
        )
        cx1, cy1, cx2, cy2 = self.grid.rects_of_values(h_arr)
        self.index_center_x = np.repeat((cx1 + cx2) / 2.0, counts)
        self.index_center_y = np.repeat((cy1 + cy2) / 2.0, counts)

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
