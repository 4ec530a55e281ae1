"""Cross-shard exchange message types.

These are the records that travel between the coordinator and shard
workers (and, in the process backend, across multiprocessing pipes as
binary codec frames — see :mod:`repro.codec.types` and
:mod:`repro.shard.rpc`).  They live in a leaf module so the codec can
import them without dragging in the worker's full execution stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..experiments.metrics import QueryRecord
from ..geometry import Rect
from ..model import POI

SharedRegions = tuple[tuple[Rect, tuple[POI, ...]], ...]


@dataclass(frozen=True, slots=True)
class OverhearOp:
    """An overheard result adoption to replay on the target's owner.

    ``event_index`` orders ops globally (the single-process simulator
    applies overhear inserts at event time); ``position`` / ``heading``
    are the *target's* snapshot state, read from the origin shard's
    epoch snapshot — bit-identical to the owner's, both being slices of
    the same coordinator refresh.
    """

    event_index: int
    target: int
    now: float
    position: tuple[float, float]
    heading: tuple[float, float]
    shared: SharedRegions


@dataclass(frozen=True, slots=True)
class EventOutcome:
    """What one executed event sends back to the coordinator.

    Read back from a process worker, ``remote_ops`` are
    :class:`~repro.shard.rpc.EncodedOverhearOp` handles: the
    coordinator routes them without decoding.
    """

    event_index: int
    record: QueryRecord
    remote_ops: tuple[OverhearOp, ...]
    # (host id, new cache generation) for every owned host this event
    # observably mutated — the coordinator re-exports exactly these
    # payloads to shards mirroring them.
    dirty: tuple[tuple[int, int], ...]
