"""Approximate-answer quality estimates — Section 3.3.2 / Lemma 3.2.

An unverified candidate ``o`` at distance ``r'`` from the query point
might be beaten by an undiscovered POI hiding in the *unverified
region*: the part of the disc ``C(q, r')`` the MVR does not cover.
With POIs Poisson distributed at density ``λ``, the probability that
the unverified region of area ``u`` is empty — i.e. that ``o`` really
holds its rank — is ``exp(-λ·u)``.

The *surpassing ratio* ``r'/r`` compares an unverified candidate to
the last verified one: if the candidate turns out wrong, the true
answer is at most a factor ``r'/r`` farther than the verified anchor
(the motorist's "two extra miles" of the paper's Table 2 example).
"""

from __future__ import annotations

import math

from ..errors import ReproError
from ..geometry import Circle, Point, SlabUnion
from .heap import ResultHeap


def unverified_region_area(
    query: Point, candidate_distance: float, mvr: SlabUnion
) -> float:
    """Area ``u`` of ``C(q, r') - MVR`` (exact, holes included)."""
    if candidate_distance < 0:
        raise ReproError("candidate distance must be non-negative")
    return mvr.disc_uncovered_area(Circle(query, candidate_distance))


def correctness_probability(
    query: Point,
    candidate_distance: float,
    mvr: SlabUnion,
    poi_density: float,
) -> float:
    """Lemma 3.2: ``P(candidate holds its rank) = exp(-λ·u)``."""
    if poi_density < 0:
        raise ReproError(f"POI density must be non-negative, got {poi_density}")
    u = unverified_region_area(query, candidate_distance, mvr)
    return math.exp(-poi_density * u)


def surpassing_ratio(
    candidate_distance: float, last_verified_distance: float | None
) -> float | None:
    """``r'/r`` against the last verified entry; ``None`` without one."""
    if last_verified_distance is None or last_verified_distance <= 0:
        return None
    if candidate_distance < last_verified_distance:
        raise ReproError(
            "unverified candidate closer than the last verified entry"
        )
    return candidate_distance / last_verified_distance


def annotate_heap(
    query: Point, heap: ResultHeap, mvr: SlabUnion, poi_density: float
) -> None:
    """Fill in correctness probability and surpassing ratio for every
    unverified heap entry (they are memorised in ``H`` — Table 2)."""
    anchor = heap.last_verified_distance
    for entry in heap:
        if entry.verified:
            continue
        entry.correctness = correctness_probability(
            query, entry.distance, mvr, poi_density
        )
        entry.surpassing_ratio = surpassing_ratio(entry.distance, anchor)


def expected_detour(
    candidate_distance: float,
    last_verified_distance: float | None,
) -> float | None:
    """Worst-case extra travel if the unverified candidate is wrong.

    The paper's Table 2 example: a motorist taking the unverified 3rd
    NN (ratio 1.67 over a 3-mile verified anchor) risks driving about
    ``3 × (1.67 − 1) ≈ 2`` extra miles — i.e. the detour bound is
    ``(ratio − 1) × last_verified_distance = r' − r``.
    """
    ratio = surpassing_ratio(candidate_distance, last_verified_distance)
    if ratio is None:
        return None
    return (ratio - 1.0) * last_verified_distance
