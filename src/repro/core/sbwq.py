"""Sharing-Based Window Queries — Algorithm 3.

The query host merges the peers' verified regions into the MVR and
intersects it with the query window ``w``:

* ``w ⊆ MVR`` — the window query is fully answered by the peers' POIs
  (WQ1 in Figure 9);
* otherwise — the verified POIs answer the covered part, and the
  *reduced* windows ``w' = w − MVR`` (disjoint rectangles) go to the
  on-air window algorithm, shrinking the broadcast segment that must
  be listened to (Section 3.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..geometry import Point, Rect, SlabUnion
from ..model import POI
from ..p2p import ShareResponse
from .nnv import merge_verified_regions
from .sbnn import Resolution


@dataclass(slots=True)
class SBWQOutcome:
    """Everything Algorithm 3 decides before (maybe) going on-air."""

    resolution: Resolution
    verified_pois: tuple[POI, ...]
    remainder_windows: tuple[Rect, ...]
    mvr: SlabUnion
    window: Rect | None = None

    @property
    def covered_fraction_missing(self) -> float:
        """Area *share* of the window still needing the channel, in [0, 1].

        The remainder rectangles are disjoint by construction, so
        their summed area over the window area is the uncovered
        fraction.  A zero-area (degenerate) window has nothing left to
        cover when it resolved and is wholly uncovered otherwise; the
        result is clamped against floating-point drift either way.
        """
        if self.window is None or self.window.area <= 0.0:
            return 0.0 if not self.remainder_windows else 1.0
        missing = sum(r.area for r in self.remainder_windows)
        return min(1.0, max(0.0, missing / self.window.area))


def sbwq(
    window: Rect,
    responses: Sequence[ShareResponse],
    mvr: SlabUnion | None = None,
) -> SBWQOutcome:
    """Algorithm 3 (SBWQ), up to the broadcast-channel hand-off.

    The returned ``verified_pois`` are the peer POIs inside both the
    window and the MVR — exactly the part of the answer the peers can
    vouch for.  ``remainder_windows`` is empty iff the query resolved.
    ``mvr`` optionally supplies the already merged verified region.

    The filter stays a loop on purpose: the window test comes first and
    rejects nearly every peer POI, so the MVR is rarely asked.
    """
    if mvr is None:
        mvr = merge_verified_regions(responses)
    seen: dict[int, POI] = {}
    for response in responses:
        for poi in response.pois:
            if (
                poi.poi_id not in seen
                and window.contains_point(poi.location)
                and mvr.contains_point(poi.location)
            ):
                seen[poi.poi_id] = poi
    verified = tuple(sorted(seen.values(), key=lambda p: p.poi_id))

    if not mvr.is_empty and mvr.covers_rect(window):
        return SBWQOutcome(
            resolution=Resolution.VERIFIED,
            verified_pois=verified,
            remainder_windows=(),
            mvr=mvr,
            window=window,
        )
    remainder = tuple(mvr.subtract_from_rect(window))
    return SBWQOutcome(
        resolution=Resolution.BROADCAST,
        verified_pois=verified,
        remainder_windows=remainder,
        mvr=mvr,
        window=window,
    )
