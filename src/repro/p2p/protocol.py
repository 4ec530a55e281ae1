"""Peer-to-peer sharing protocol messages.

A query host broadcasts a :class:`ShareRequest` to its single-hop
neighbours; each replies with a :class:`ShareResponse` carrying its
verified-region MBRs and cached POIs (Section 3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ProtocolError
from ..geometry import Rect
from ..model import DEFAULT_CATEGORY, POI


@dataclass(frozen=True, slots=True)
class ShareRequest:
    """A request for cached spatial data of one POI category.

    ``category`` filters responders — a host only answers requests for
    the category it caches.  ``issued_at`` anchors the fault layer's
    response deadline: a reply sampled to arrive later than
    ``issued_at + peer_timeout`` is a deadline miss.
    """

    requester_id: int
    category: str = DEFAULT_CATEGORY
    issued_at: float = 0.0

    def deadline(self, peer_timeout: float) -> float:
        """Latest acceptable response arrival time under a timeout."""
        if peer_timeout <= 0:
            raise ProtocolError(
                f"peer_timeout must be positive, got {peer_timeout}"
            )
        return self.issued_at + peer_timeout


@dataclass(frozen=True, slots=True)
class ShareResponse:
    """One peer's contribution: its VR rectangles and cached POIs.

    ``_poi_arrays`` holds the ``(ids, xs, ys)`` columns of ``pois``:
    a host's response is built with them, copied from its cache's
    coordinate mirror; one decoded off the wire (a halo mirror) builds
    them on first use (:meth:`poi_arrays`).

    ``generation`` stamps the responder's cache content at build time
    (-1 when unknown); responses with the same ``(peer_id, generation)``
    are guaranteed identical, which the responder exploits to build
    each response once and a shard to re-sync only the mirrors that
    moved.

    It is also all that crosses a shard boundary for a halo mirror:
    the *querier* merges the rectangles into the MVR (Algorithm 1
    line 4), so no pre-merged union travels with them.
    """

    peer_id: int
    regions: tuple[Rect, ...]
    pois: tuple[POI, ...]
    generation: int = -1
    _poi_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for r in self.regions:
            if r.x2 == r.x1 or r.y2 == r.y1:
                raise ProtocolError("degenerate verified region in response")

    @property
    def is_empty(self) -> bool:
        return not self.regions and not self.pois

    def poi_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, xs, ys)`` of this response's POIs, built once.

        The response is immutable, so arrays it was not built with are
        computed on first use and cached for every later query
        against it.
        """
        if self._poi_arrays is None:
            locations = [p.location for p in self.pois]
            arrays = (
                np.array([p.poi_id for p in self.pois], np.int64),
                np.array([p.x for p in locations], np.float64),
                np.array([p.y for p in locations], np.float64),
            )
            object.__setattr__(self, "_poi_arrays", arrays)
        return self._poi_arrays
