"""Nearest Neighbour Verification — Algorithm 1 of the paper.

Given the share responses of the peers, NNV merges their verified
regions into the MVR, sorts the received POIs by distance, and marks a
POI verified when Lemma 3.1 applies: the query point lies inside the
MVR and the POI is no farther than the nearest MVR boundary edge
``e_s`` (so the whole disc out to the POI is verified territory).

Two performance layers sit under the algorithm:

* the candidate pipeline is vectorised — one :func:`numpy.hypot` over
  the coordinate arrays of all peer POIs (cached per immutable
  response) replaces the per-POI Python loop; ``nnv_scalar`` keeps the
  loop-based reference implementation, asserted byte-identical in the
  equivalence tests;
* :func:`merge_verified_regions` builds the MVR: a lazy
  :class:`~repro.geometry.SlabUnion` that lives for one query.  NNV
  asks it which received POIs lie inside and how far the query point
  is from its boundary; both are read off one coverage grid, and no
  slab structure is built.  Both answers are asked once per query:
  they travel on the :class:`PeerRead` NNV returns, which the host's
  gossip and broadcast steps read instead of the union;
* overheard results make neighbours hold the same POIs — a dense
  query receives ~7 copies of each — so the containment read asks
  about one copy per distinct ``(id, x, y)``, not every copy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from ..check import invariants
from ..geometry import Point, Rect, SlabUnion
from ..model import POI
from ..p2p import ShareResponse
from .heap import HeapEntry, ResultHeap

def merge_verified_regions(responses: Sequence[ShareResponse]) -> SlabUnion:
    """The MVR: union of every peer's verified-region MBRs.

    This is the MapOverlay step of Algorithm 1 (line 4), exact for the
    rectangle inputs the protocol carries.
    """
    rects = [rect for response in responses for rect in response.regions]
    return SlabUnion.from_rects(rects)


class MVRMemo:
    """The merge step of the host pipeline; it remembers nothing.

    Every query merges the regions it was sent into a fresh union and
    drops it with the query: memoising unions on the peers'
    ``(peer_id, generation)`` stamps retained one union per query and
    hit on none (DESIGN section 7.3).  The class, and the constant
    ``hits``, are what the benchmark's tracer reads.
    """

    __slots__ = ()
    hits = 0

    def merged(self, responses: Sequence[ShareResponse]) -> SlabUnion:
        return merge_verified_regions(responses)


def collect_candidates(
    responses: Sequence[ShareResponse], mvr: SlabUnion
) -> list[POI]:
    """The candidate set ``O``: received POIs that lie inside the MVR.

    Duplicates (the same POI from several peers) collapse to one; when
    copies of an id disagree on containment (stale peer data), the
    first *contained* copy wins, as in the scalar reference.
    """
    by_id: dict[int, POI] = {}
    for response in responses:
        for poi in response.pois:
            if poi.poi_id not in by_id and mvr.contains_point(poi.location):
                by_id[poi.poi_id] = poi
    return list(by_id.values())


def _columns(
    pieces: Sequence[ShareResponse],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(ids, xs, ys)`` arrays of ``pieces``, concatenated in order."""
    arrays = [r.poi_arrays() for r in pieces]
    return (
        np.concatenate([a[0] for a in arrays]),
        np.concatenate([a[1] for a in arrays]),
        np.concatenate([a[2] for a in arrays]),
    )


def _first_copies(ids: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The ascending indices of ``kept`` that hold each id's first copy."""
    if kept.size > 1:
        # np.unique keeps the first occurrence of each id in array
        # order — the same copy the scalar dict insertion keeps.
        _, first = np.unique(ids[kept], return_index=True)
        first.sort()
        kept = kept[first]
    return kept


def first_contained(
    responses: Sequence[ShareResponse],
    mvr: SlabUnion,
    within: Rect | None = None,
) -> tuple[list[ShareResponse], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The batch form of :func:`collect_candidates`, from scratch.

    Returns ``(pieces, ids, xs, ys, sel)``: the responses that carry
    POIs, their coordinate arrays concatenated, and the ascending flat
    indices of the candidate set — per id, the first copy inside the
    MVR (and inside the closed rectangle ``within``, tested first).
    The query path answers the same question from its one
    :class:`PeerRead`; this is the referee ``REPRO_CHECK=1`` and the
    tests hold it to.
    """
    pieces = [r for r in responses if r.pois]
    if not pieces:
        nothing = np.empty(0)
        return pieces, nothing, nothing, nothing, np.empty(0, np.int64)
    ids, xs, ys = _columns(pieces)
    if within is None:
        kept = mvr.contains_points(xs, ys).nonzero()[0]
    else:
        kept = (
            (within.x1 <= xs)
            & (xs <= within.x2)
            & (within.y1 <= ys)
            & (ys <= within.y2)
        ).nonzero()[0]
        if kept.size:
            kept = kept[mvr.contains_points(xs[kept], ys[kept])]
    return pieces, ids, xs, ys, _first_copies(ids, kept)


def pois_at(
    pieces: Sequence[ShareResponse], flat: np.ndarray
) -> list[POI]:
    """The POI objects at flat indices of the concatenated arrays."""
    offsets = list(accumulate([len(r.pois) for r in pieces], initial=0))
    found = []
    for index in flat.tolist():
        piece = bisect_right(offsets, index) - 1
        found.append(pieces[piece].pois[index - offsets[piece]])
    return found


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Where each run of equal adjacent ``values`` starts."""
    heads = np.empty(values.size, dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def _distinct_copies(
    ids: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Ascending indices of the first copy of each distinct ``(id, x, y)``,
    and whether some id arrives at two places (a stale copy).

    Containment depends on a copy's coordinates only, so these copies
    answer for every other.  Overheard results make neighbours hold
    the same POIs: most ids arrive several times at one place, and the
    first copy of each id is the whole answer — one stable sort by id,
    with no id among the copies twice.  Only when some id arrives at
    two places are equal triples brought together, lowest index first,
    by a lexsort.
    """
    order = ids.argsort(kind="stable")
    heads = _run_heads(ids[order])
    sx, sy = xs[order], ys[order]
    stale = bool(((sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1]))[~heads[1:]].any())
    if stale:
        order = np.lexsort((ys, xs, ids))
        heads = (
            _run_heads(ids[order]) | _run_heads(xs[order]) | _run_heads(ys[order])
        )
    copies = order[heads]
    copies.sort()
    return copies, stale


@dataclass(slots=True)
class PeerRead:
    """One query's read of its peers' replies (Algorithm 1, lines 4-6).

    ``ids`` / ``xs`` / ``ys`` concatenate the columns of the responses
    that carry POIs (``pieces``), every copy of every id included.
    The MVR is asked about one copy per distinct ``(id, x, y)``
    (:func:`_distinct_copies`), once: ``candidates`` holds, ascending,
    the flat indices of those inside it.  ``boundary_distance`` is
    Lemma 3.1's ``d*``, the query point's distance to the MVR
    boundary: ``-inf`` when the point is outside the MVR, and also
    when NNV had no candidate to verify (no reader asks then — a
    peer-resolved query has candidates).  ``stale`` records that some
    id arrived at two places; without one the candidates' ids are
    distinct.  Built by :func:`nnv`, it
    rides on the :class:`~repro.core.SBNNOutcome` to every later
    reader of the same query, and dies with the query.
    """

    pieces: list[ShareResponse]
    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    candidates: np.ndarray
    mvr: SlabUnion
    boundary_distance: float = -np.inf
    stale: bool = False

    @classmethod
    def gather(
        cls, responses: Sequence[ShareResponse], mvr: SlabUnion
    ) -> "PeerRead":
        """Concatenate the responses' columns and ask ``mvr`` which
        distinct copies it contains."""
        pieces = [r for r in responses if r.pois]
        if not pieces:
            nothing = np.empty(0)
            return cls(
                pieces, nothing, nothing, nothing, np.empty(0, np.int64), mvr
            )
        ids, xs, ys = _columns(pieces)
        copies, stale = _distinct_copies(ids, xs, ys)
        inside = mvr.contains_points(xs[copies], ys[copies])
        return cls(pieces, ids, xs, ys, copies[inside], mvr, stale=stale)

    def first(self, within: Rect | None = None) -> np.ndarray:
        """Ascending flat indices of the first copy per id inside the
        MVR (and the closed rectangle ``within``): the same indices as
        :func:`first_contained`, stale copies included — an id's first
        contained copy is the first of its ``(id, x, y)``, so it is
        among the candidates.  Without a stale copy the candidates
        hold each id once, and are already the answer."""
        kept = self.candidates
        if within is not None:
            xs = self.xs[kept]
            ys = self.ys[kept]
            kept = kept[
                (within.x1 <= xs)
                & (xs <= within.x2)
                & (within.y1 <= ys)
                & (ys <= within.y2)
            ]
        return _first_copies(self.ids, kept) if self.stale else kept

    def pois_within(self, within: Rect) -> list[POI]:
        """Peer POIs inside both ``within`` and the MVR (hence complete).

        First contained copy wins on duplicate ids, in response order
        (POI order within a response) — the order cached-region POI
        tuples inherit downstream.
        """
        found = pois_at(self.pieces, self.first(within))
        if invariants.check_enabled():
            pieces, _, _, _, sel = first_contained(self.pieces, self.mvr, within)
            invariants.check_same_pois(
                found, pois_at(pieces, sel), f"peer POIs within {within!r}"
            )
        return found


def nnv(
    query: Point,
    responses: Sequence[ShareResponse],
    k: int,
    mvr: SlabUnion | None = None,
) -> tuple[ResultHeap, PeerRead]:
    """Algorithm 1 (NNV): build the heap ``H`` from peer data.

    Returns the heap and the :class:`PeerRead` — the MVR, the peer
    POIs' columns with their contained distinct copies, and ``d*`` —
    which callers reuse for the approximate-answer probabilities, the
    gossiped disc and the cached peer POIs.  When the query point is
    outside the MVR, Lemma 3.1 cannot apply and every candidate enters
    unverified.  Pass an already merged ``mvr`` (see
    :meth:`MVRMemo.merged`) to skip the merge.

    The candidate pipeline is one batch computation: concatenate the
    per-response coordinate arrays, ask the MVR about each distinct
    copy once, deduplicate ids by first contained occurrence
    (:meth:`PeerRead.first`), one ``np.hypot`` over the survivors, one
    lexsort — only the top ``k`` POI objects are ever touched in
    Python.
    """
    if mvr is None:
        mvr = merge_verified_regions(responses)
    if invariants.check_enabled():
        invariants.check_union(mvr, query)
    heap = ResultHeap(k)
    read = PeerRead.gather(responses, mvr)
    sel = read.first()
    if not sel.size:
        return heap, read
    distances = np.hypot(read.xs[sel] - query.x, read.ys[sel] - query.y)
    order = np.lexsort((read.ids[sel], distances))[: min(k, sel.size)]
    if not mvr.is_empty and mvr.contains_point(query):
        read.boundary_distance = mvr.distance_to_boundary(query)
    boundary_distance = read.boundary_distance
    for position, poi in zip(order, pois_at(read.pieces, sel[order])):
        distance = float(distances[position])
        heap.add(HeapEntry(poi, distance, distance <= boundary_distance))
    return heap, read


def nnv_scalar(
    query: Point,
    responses: Sequence[ShareResponse],
    k: int,
    mvr: SlabUnion | None = None,
) -> tuple[ResultHeap, SlabUnion]:
    """Loop-based reference implementation of :func:`nnv`.

    Kept for the equivalence tests (and as readable documentation of
    the algorithm): one POI at a time, same ``hypot`` kernel, so the
    vectorised path must reproduce it byte for byte.
    """
    if mvr is None:
        mvr = merge_verified_regions(responses)
    heap = ResultHeap(k)
    candidates = collect_candidates(responses, mvr)
    candidates.sort(
        key=lambda poi: (
            float(np.hypot(poi.x - query.x, poi.y - query.y)),
            poi.poi_id,
        )
    )
    if mvr.is_empty or not mvr.contains_point(query):
        boundary_distance = None
    else:
        boundary_distance = mvr.distance_to_boundary(query)
    for poi in candidates:
        if heap.is_full:
            break
        distance = float(np.hypot(poi.x - query.x, poi.y - query.y))
        verified = (
            boundary_distance is not None and distance <= boundary_distance
        )
        heap.add(HeapEntry(poi, distance, verified))
    return heap, mvr
