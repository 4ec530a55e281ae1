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
    query: Point,
    heap: ResultHeap,
    mvr: SlabUnion,
    poi_density: float,
    min_correctness: float = 0.0,
) -> dict[str, int]:
    """Fill in correctness probability and surpassing ratio for the
    unverified heap entries (they are memorised in ``H`` — Table 2).

    The discs ``C(q, r')`` of one heap are concentric, so their areas
    are one batched read of the MVR
    (:meth:`~repro.geometry.SlabUnion.disc_pieces`), and ``exp(-λu)``
    only falls as ``r'`` grows: the entries are walked from the
    farthest inwards and the walk stops at the first one below
    ``min_correctness`` — that entry alone refuses the approximate
    answer, and the nearer ones, which nothing reads then, keep
    ``correctness=None``.  The default ``0.0`` annotates every entry.
    Each value is what :func:`correctness_probability` returns.

    Returns the counts the ``core.annotate`` span carries: unverified
    ``entries``, how many were ``annotated``, the MVR's ``pieces`` and
    the ``pieces_near`` the farthest disc.
    """
    if poi_density < 0:
        raise ReproError(f"POI density must be non-negative, got {poi_density}")
    unverified = heap.unverified_entries
    if not unverified:
        return {"entries": 0, "annotated": 0}
    anchor = heap.last_verified_distance
    discs = mvr.disc_pieces(query, unverified[-1].distance)
    for annotated, entry in enumerate(reversed(unverified), start=1):
        u = discs.uncovered_area(entry.distance)
        entry.correctness = math.exp(-poi_density * u)
        entry.surpassing_ratio = surpassing_ratio(entry.distance, anchor)
        if entry.correctness < min_correctness:
            break
    return {
        "entries": len(unverified),
        "annotated": annotated,
        "pieces": len(mvr.piece_table()[0]),
        "pieces_near": len(discs.near),
    }


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
