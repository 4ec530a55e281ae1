"""Shard-local fleet state as structure-of-arrays.

A spatial shard owns a contiguous *subset* of the fleet: its own hosts
plus a halo of hosts owned by neighbouring shards.  The coordinator
broadcasts one position/heading snapshot per refresh epoch; this class
holds that snapshot in parallel arrays (the same layout
:class:`~repro.mobility.WaypointFleet` uses for the whole fleet) keyed
by *global* host id.

Rows are sorted by ascending global id.  That ordering is load-bearing:
the shard-local :class:`~repro.p2p.PeerNetwork` built over these arrays
then enumerates disc neighbours in exactly the order the full-fleet
grid would (cell-scan order, ascending id within a cell), which the
sharded simulator's bit-identity contract requires.
"""

from __future__ import annotations

import numpy as np

from ..errors import MobilityError
from ..geometry import Point


class ShardFleetSoA:
    """One shard's per-epoch fleet snapshot (owned + halo hosts)."""

    __slots__ = (
        "ids",
        "xs",
        "ys",
        "hx",
        "hy",
        "owned_mask",
        "_id_to_local",
    )

    def __init__(
        self,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        hx: np.ndarray,
        hy: np.ndarray,
        owned_mask: np.ndarray,
    ):
        ids = np.asarray(ids, dtype=np.int64)
        arrays = [np.asarray(a, dtype=np.float64) for a in (xs, ys, hx, hy)]
        owned_mask = np.asarray(owned_mask, dtype=bool)
        for a in (*arrays, owned_mask):
            if a.shape != ids.shape or a.ndim != 1:
                raise MobilityError("shard fleet arrays must be parallel 1-D")
        if ids.size > 1 and not bool(np.all(np.diff(ids) > 0)):
            raise MobilityError("shard fleet ids must be strictly ascending")
        self.ids = ids
        self.xs, self.ys, self.hx, self.hy = arrays
        self.owned_mask = owned_mask
        self._id_to_local = {
            int(gid): local for local, gid in enumerate(ids.tolist())
        }

    # ------------------------------------------------------------------
    @property
    def owned_ids(self) -> np.ndarray:
        return self.ids[self.owned_mask]

    @property
    def halo_ids(self) -> np.ndarray:
        return self.ids[~self.owned_mask]

    def local_of(self, gid: int) -> int:
        """Local row index of a global host id."""
        try:
            return self._id_to_local[int(gid)]
        except KeyError:
            raise MobilityError(f"host {gid} not in this shard's snapshot")

    def position_of(self, gid: int) -> Point:
        local = self.local_of(gid)
        return Point(float(self.xs[local]), float(self.ys[local]))

    def heading_of(self, gid: int) -> tuple[float, float]:
        local = self.local_of(gid)
        return (float(self.hx[local]), float(self.hy[local]))
