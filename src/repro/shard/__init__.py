"""Spatial sharding: the 20 mi x 20 mi world split across workers.

The shard layer scales the single-process :class:`~repro.experiments.
Simulation` to the paper's full Table 3 populations by partitioning
the region into a grid of spatial shards (:class:`ShardGrid`), each
owning the mobile hosts inside its rectangle.  A coordinator
(:class:`ShardedSimulation`) owns everything random — the world RNG,
the POI field, the mobility fleet, and the query workload — and the
shard workers (:class:`ShardWorld`) own the hosts' caches and execute
queries against a halo-extended local peer network, through the same
pipeline object the single-process simulator runs
(:class:`~repro.experiments.world.QueryWorld`).  What crosses a shard
boundary for a halo mirror is the owner's :class:`~repro.p2p.
ShareResponse` and nothing else; the pipe RPC has an opcode per worker
method and never pickles.

Determinism contract: in ``exchange="event"`` (lockstep) mode the
recorded metrics, per-query records, and final cache states are
bit-identical to a single-process run at the same seed; in
``exchange="cycle"`` mode halo cache mirrors are batched per refresh
epoch, which keeps runs deterministic in (seed, shard count) but
relaxes bit-identity with the single-process simulator.  See
DESIGN.md section 13.
"""

from .grid import ShardGrid
from .sim import ShardedSimulation
from .worker import EventOutcome, OverhearOp, ShardWorld

__all__ = [
    "EventOutcome",
    "OverhearOp",
    "ShardGrid",
    "ShardWorld",
    "ShardedSimulation",
]
