"""The SBNN result heap ``H`` (Table 2 of the paper).

``H`` keeps up to ``k`` candidate nearest neighbours in ascending
distance order.  Each entry is either *verified* (provably a top-k NN
by Lemma 3.1) or *unverified*; unverified entries carry the Lemma 3.2
correctness probability and the surpassing ratio once annotated.

After NNV runs, ``H`` is in one of the six states of Section 3.3.3,
from which the broadcast-channel search bounds follow.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum

from ..errors import ReproError
from ..model import POI


class HeapState(Enum):
    """The six possible states of ``H`` after NNV (Section 3.3.3)."""

    FULL_MIXED = 1  # full, verified + unverified
    FULL_UNVERIFIED = 2  # full, only unverified
    PARTIAL_MIXED = 3  # not full, verified + unverified
    PARTIAL_VERIFIED = 4  # not full, only verified
    PARTIAL_UNVERIFIED = 5  # not full, only unverified
    EMPTY = 6  # no entries


@dataclass(slots=True)
class HeapEntry:
    """One candidate NN: POI, distance, verification status, and the
    approximate-answer annotations of Section 3.3.2.

    ``correctness`` / ``surpassing_ratio`` stay ``None`` on a verified
    entry, on every entry of a heap the annotation pass skipped, and
    on the unverified entries nearer than the one at which an
    early-stopped pass refused the approximate answer
    (:func:`~repro.core.approx.annotate_heap`): within one heap the
    annotated unverified entries are always the farthest ones.
    """

    poi: POI
    distance: float
    verified: bool
    correctness: float | None = None
    surpassing_ratio: float | None = None

    def sort_key(self) -> tuple[float, int]:
        return (self.distance, self.poi.poi_id)


class ResultHeap:
    """Up to ``k`` candidates in ascending distance order."""

    def __init__(self, k: int):
        if k < 1:
            raise ReproError(f"heap capacity k must be >= 1, got {k}")
        self.k = k
        self._entries: list[HeapEntry] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> list[HeapEntry]:
        return list(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.k

    @property
    def verified_entries(self) -> list[HeapEntry]:
        return [e for e in self._entries if e.verified]

    @property
    def unverified_entries(self) -> list[HeapEntry]:
        return [e for e in self._entries if not e.verified]

    @property
    def verified_count(self) -> int:
        return sum(1 for e in self._entries if e.verified)

    def add(self, entry: HeapEntry) -> bool:
        """Insert in distance order; reject when full. Returns success."""
        if self.is_full:
            return False
        if any(e.poi.poi_id == entry.poi.poi_id for e in self._entries):
            return False
        keys = [e.sort_key() for e in self._entries]
        self._entries.insert(bisect.bisect(keys, entry.sort_key()), entry)
        return True

    # ------------------------------------------------------------------
    @property
    def state(self) -> HeapState:
        """Which of the six Section-3.3.3 states ``H`` is in."""
        verified = self.verified_count
        unverified = len(self._entries) - verified
        if not self._entries:
            return HeapState.EMPTY
        if self.is_full:
            if verified and unverified:
                return HeapState.FULL_MIXED
            if verified:
                # All k verified: the query is fulfilled; grouped with
                # FULL_MIXED for bound purposes but callers check
                # verified_count == k before ever asking for bounds.
                return HeapState.FULL_MIXED
            return HeapState.FULL_UNVERIFIED
        if verified and unverified:
            return HeapState.PARTIAL_MIXED
        if verified:
            return HeapState.PARTIAL_VERIFIED
        return HeapState.PARTIAL_UNVERIFIED

    @property
    def last_distance(self) -> float | None:
        """Distance of the final (farthest) entry, if any."""
        return self._entries[-1].distance if self._entries else None

    @property
    def last_verified_distance(self) -> float | None:
        """Distance of the farthest *verified* entry, if any."""
        verified = self.verified_entries
        return verified[-1].distance if verified else None

    def results(self) -> list[HeapEntry]:
        """The heap content as the (possibly approximate) query answer."""
        return self.entries
