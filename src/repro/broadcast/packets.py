"""Broadcast frame structures: data buckets and index segments.

The server serialises its POI database into a *data file*: a sequence
of fixed-capacity buckets holding POIs in Hilbert-curve order
(Zheng et al. [17]).  An *index segment* describing every occupied
Hilbert value is interleaved ``m`` times per cycle according to the
(1, m) allocation of Imielinski et al. [10].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import BroadcastError
from ..geometry import Rect
from ..model import POI


@dataclass(frozen=True, slots=True)
class DataBucket:
    """One broadcast data packet: a run of Hilbert-consecutive POIs.

    ``h_min``/``h_max`` are the Hilbert values of the first and last
    POI in the bucket; ``extent`` is the MBR of the bucket's POIs'
    cells, used by the data-filtering optimisation (a bucket fully
    inside the verified lower-bound circle need not be downloaded).
    """

    bucket_id: int
    h_min: int
    h_max: int
    pois: tuple[POI, ...]
    extent: Rect

    def __post_init__(self) -> None:
        if self.h_min > self.h_max:
            raise BroadcastError("bucket with inverted Hilbert range")
        if not self.pois:
            raise BroadcastError("empty data bucket")


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One index record: an occupied Hilbert value and its bucket."""

    h_value: int
    bucket_id: int
    poi_count: int


@dataclass(frozen=True, slots=True)
class IndexSegment:
    """The full broadcast index: every occupied Hilbert value, sorted.

    A client that reads the whole segment knows the (cell-quantised)
    position of every object on the channel — this is the information
    the on-air kNN algorithm's first scan extracts.
    """

    entries: tuple[IndexEntry, ...]
    entries_per_packet: int

    def __post_init__(self) -> None:
        if self.entries_per_packet < 1:
            raise BroadcastError("entries_per_packet must be >= 1")
        values = [e.h_value for e in self.entries]
        if values != sorted(values):
            raise BroadcastError("index entries must be sorted by Hilbert value")

    @property
    def packet_count(self) -> int:
        """Number of broadcast packets occupied by one index copy."""
        if not self.entries:
            return 1
        return math.ceil(len(self.entries) / self.entries_per_packet)

    @property
    def tree_probe_packets(self) -> int:
        """Packets read when descending the index as a B+-tree.

        Window queries do not need the whole index — just a root-to-leaf
        path (plus the root packet); kNN's first scan reads everything.
        """
        if not self.entries:
            return 1
        height = max(
            1,
            math.ceil(
                math.log(max(2, len(self.entries)))
                / math.log(max(2, self.entries_per_packet))
            ),
        )
        return min(self.packet_count, height)
