"""Broadcast-channel data filtering — Section 3.3.3.

When NNV cannot fully answer a kNN query, the partial heap still pays
for itself: its six possible states map to search bounds that shrink
the on-air retrieval.

======  ============================  =======================
State   Heap condition                Bounds inferred
======  ============================  =======================
1       full, verified+unverified     upper *and* lower
2       full, only unverified         upper only
3       partial, verified+unverified  lower only
4       partial, only verified        lower only
5       partial, only unverified      none
6       empty                         none
======  ============================  =======================

*Upper bound* — the last heap entry's distance: the true k-th NN can
be no farther, so the on-air search circle needs no larger radius.
*Lower bound* — the last verified entry's distance: the disc ``Ci`` of
that radius is fully known, so data packets wholly inside it are
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .heap import HeapState, ResultHeap


@dataclass(frozen=True, slots=True)
class SearchBounds:
    """Bounds handed to the on-air kNN retrieval."""

    lower: float | None
    upper: float | None


def search_bounds(heap: ResultHeap) -> SearchBounds:
    """Derive the Section-3.3.3 bounds from the heap's state."""
    state = heap.state
    if state is HeapState.FULL_MIXED:
        return SearchBounds(
            lower=heap.last_verified_distance, upper=heap.last_distance
        )
    if state is HeapState.FULL_UNVERIFIED:
        return SearchBounds(lower=None, upper=heap.last_distance)
    if state in (HeapState.PARTIAL_MIXED, HeapState.PARTIAL_VERIFIED):
        return SearchBounds(lower=heap.last_verified_distance, upper=None)
    return SearchBounds(lower=None, upper=None)
