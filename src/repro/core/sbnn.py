"""Sharing-Based Nearest Neighbour queries — Algorithm 2.

``sbnn`` runs the peer-side part of the pipeline: NNV over the share
responses, Lemma 3.2 annotation of the unverified entries, and the
resolution decision:

* ``VERIFIED``    — all ``k`` answers verified by peers; done.
* ``APPROXIMATE`` — the heap is full and the inquirer accepts
  approximate answers whose correctness probability clears the
  threshold (the experiments use 50 %); done, approximately.
* ``BROADCAST``   — otherwise; the outcome carries the Section-3.3.3
  search bounds and the verified POIs so the on-air retrieval
  (:func:`repro.broadcast.onair_knn`) can be filtered.

The broadcast step itself lives with the channel code; keeping this
function channel-free makes the decision logic unit-testable in
isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ..check import invariants
from ..errors import ReproError
from ..geometry import Point, SlabUnion
from ..model import POI
from ..p2p import ShareResponse
from .approx import annotate_heap
from .filtering import SearchBounds, search_bounds
from .heap import ResultHeap
from .nnv import PeerRead, nnv


class Resolution(Enum):
    """How a sharing-based query got (or will get) its answer."""

    VERIFIED = "verified"  # exact answer from peers
    APPROXIMATE = "approximate"  # probabilistic answer from peers
    BROADCAST = "broadcast"  # must fall back to the channel


@dataclass(slots=True)
class SBNNOutcome:
    """Everything Algorithm 2 decides before (maybe) going on-air.

    ``read`` is NNV's one read of the peers' replies (the MVR, the
    candidate columns with their MVR mask, ``d*``); the host's later
    steps answer from it instead of asking the union again.

    ``annotated`` says whether the Lemma 3.2 annotation pass ran for
    this outcome — untraced, it is skipped exactly when it cannot
    decide the approximate path, which leaves ``correctness=None`` on
    the heap entries.  When it ran untraced and the outcome is
    ``BROADCAST``, it stopped at the farthest entry below the
    threshold: that entry and those beyond it are annotated, the
    nearer ones are not.  An ``APPROXIMATE`` outcome, and any traced
    one, has every unverified entry annotated.
    """

    resolution: Resolution
    heap: ResultHeap
    read: PeerRead
    bounds: SearchBounds
    annotated: bool = False

    @property
    def verified_pois(self) -> tuple[POI, ...]:
        """POIs usable as known data during filtered on-air retrieval."""
        return tuple(e.poi for e in self.heap.verified_entries)


def sbnn(
    query: Point,
    responses: Sequence[ShareResponse],
    k: int,
    poi_density: float,
    accept_approximate: bool = True,
    min_correctness: float = 0.5,
    mvr: SlabUnion | None = None,
    tracer=None,
) -> SBNNOutcome:
    """Algorithm 2 (SBNN), up to the broadcast-channel hand-off.

    ``mvr`` optionally supplies the already merged verified region
    (the MapOverlay step, done by the caller).

    The Lemma 3.2 correctness annotations cost a disc/region area
    computation per unverified entry, so they are computed when they
    can decide the approximate path (heap full, approximation
    accepted) — and, under a ``tracer``, whenever any unverified entry
    exists: a query headed for ``BROADCAST`` otherwise carries
    ``correctness=None``, fine for the decision, useless for a trace
    consumer asking *why* the peers fell short.  Annotating never
    changes the resolution, because the approximate path already
    required a full heap.  Untraced, the pass is handed
    ``min_correctness`` and stops at the entry that decides it
    (:func:`~repro.core.approx.annotate_heap`); ``all(...)`` below is
    order-independent, so the resolution is the one annotating every
    entry gives.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; when given,
    the NNV pass and the annotation pass each get a span
    (``core.nnv`` / ``core.annotate``).
    """
    if not (0.0 <= min_correctness <= 1.0):
        raise ReproError(
            f"min_correctness must be in [0, 1], got {min_correctness}"
        )
    if tracer is None:
        heap, read = nnv(query, responses, k, mvr=mvr)
    else:
        with tracer.span("core.nnv") as span:
            heap, read = nnv(query, responses, k, mvr=mvr)
            span.set(
                responses=len(responses),
                k=k,
                heap_size=len(heap),
                verified=heap.verified_count,
            )
    mvr = read.mvr
    needs_annotation = (
        not mvr.is_empty
        and bool(heap.unverified_entries)
        and (tracer is not None or (accept_approximate and heap.is_full))
    )
    if needs_annotation:
        if invariants.check_enabled():
            invariants.check_union(
                mvr, query, radii=[e.distance for e in heap.unverified_entries]
            )
        if tracer is None:
            annotate_heap(query, heap, mvr, poi_density, min_correctness)
        else:
            with tracer.span("core.annotate") as span:
                span.set(**annotate_heap(query, heap, mvr, poi_density))

    if heap.verified_count >= k:
        resolution = Resolution.VERIFIED
    elif (
        accept_approximate
        and heap.is_full
        and all(
            (e.correctness or 0.0) >= min_correctness
            for e in heap.unverified_entries
        )
    ):
        resolution = Resolution.APPROXIMATE
    else:
        resolution = Resolution.BROADCAST
    if invariants.check_enabled():
        accepted = resolution is Resolution.APPROXIMATE
        invariants.check_heap(heap, min_correctness if accepted else None)
    return SBNNOutcome(
        resolution=resolution,
        heap=heap,
        read=read,
        bounds=search_bounds(heap),
        annotated=needs_annotation,
    )
