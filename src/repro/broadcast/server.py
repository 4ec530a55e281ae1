"""The broadcast server: Hilbert-ordered data file construction.

The server owns the ground-truth POI database and serialises it for
the wireless channel: POIs are sorted by the Hilbert value of their
cell and packed into fixed-capacity buckets; the index segment lists
every occupied Hilbert value with its bucket.  The file never changes
for the life of the server, so everything that depends on it alone is
built once per server: the file as one tuple in broadcast order, and
each aligned block's ``(region, POIs)`` pair on its first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Container, Iterable, Sequence

import numpy as np

from ..errors import BroadcastError
from ..geometry import HilbertGrid, Rect
from ..model import POI
from .packets import DataBucket, IndexEntry, IndexSegment


# An aligned block's certified region and the file's POIs inside it.
Block = tuple[Rect, tuple[POI, ...]]


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
        self.file = tuple([self.pois[i] for i in order.tolist()])
        self._file_x, self._file_y = xs[order], ys[order]
        self._blocks: dict[tuple[int, int], tuple[Block, tuple]] = {}

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
                pois=self.file[start : start + bucket_capacity],
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

    def download(self, bucket_ids: Sequence[int]) -> tuple[POI, ...]:
        """The POIs of ``bucket_ids`` in that order: one slice of the
        file per contiguous run of bucket ids."""
        runs: list[list[int]] = []
        for bucket_id in bucket_ids:
            if runs and runs[-1][1] == bucket_id:
                runs[-1][1] += 1
            else:
                runs.append([bucket_id, bucket_id + 1])
        cap = self.bucket_capacity
        return tuple(
            chain.from_iterable(self.file[a * cap : z * cap] for a, z in runs)
        )

    def blocks(
        self, runs: Iterable[tuple[int, int]], downloaded: Container[int]
    ) -> tuple[Block, ...]:
        """The pair each aligned run ``(start, size)`` certifies when the
        buckets in ``downloaded`` are taken off the air.

        A plan that certifies a run downloads every POI of the run; a
        POI on the block's edge from outside the run is in the download
        only when ``downloaded`` took its bucket.  The pair is the
        memo's own object whenever no such POI is missing.
        """
        pairs = []
        for run in runs:
            pair, edge = self._blocks.get(run) or self._block(*run)
            missing = [poi_id for poi_id, b in edge if b not in downloaded]
            if missing:
                rect, pois = pair
                pair = (rect, tuple([p for p in pois if p.poi_id not in missing]))
            pairs.append(pair)
        return tuple(pairs)

    def _block(self, start: int, size: int) -> tuple[Block, tuple]:
        """Memo a run's pair: the block's closed rectangle and the
        file's POIs inside it in file order, plus ``(poi id, bucket)``
        for each of those POIs whose value lies outside the run."""
        rect = self.grid.block_rect(start, size)
        xs, ys = self._file_x, self._file_y
        inside = np.flatnonzero(
            (rect.x1 <= xs) & (xs <= rect.x2) & (rect.y1 <= ys) & (ys <= rect.y2)
        ).tolist()
        edge = tuple(
            (self.file[i].poi_id, self.bucket_of_position(i))
            for i in inside
            if not start <= self._sorted_hvalues[i] < start + size
        )
        entry = self._blocks[start, size] = (
            (rect, tuple([self.file[i] for i in inside])),
            edge,
        )
        return entry
