"""The one channel read: a shared scan for a batch of plans.

Every query that ends on the channel — a one-shot kNN or window query,
or the standing re-evaluations a tick pushes to the same broadcast
cycle — is a member of one :func:`batch_scan`.  The (1, m) schedule
airs each bucket once per cycle regardless of how many listeners want
it, so the scan prices **one** retrieval over the union of the
members' segments (after BRkNN-light's batch grouping): one index
probe using the widest member's index read, one pass over the merged
bucket list, every bucket downloaded once.

Answer isolation is preserved exactly: each member's download is
reassembled from *its own* plan's buckets, in its own plan order, so a
member's POI sequence does not depend on who else was in the batch.
A batch of one is the solo scan — plan ids are ascending, so its
union, index read, cost and fault draws are the member's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..check import invariants
from ..errors import BroadcastError
from ..model import POI
from ..obs import NO_TRACER
from .schedule import BroadcastSchedule, RetrievalCost
from .server import BroadcastServer


@dataclass(frozen=True, slots=True)
class BatchMember:
    """One query's share of a scan: its buckets and its index read."""

    member_id: int
    bucket_ids: tuple[int, ...]
    index_read_packets: int


@dataclass(frozen=True, slots=True)
class BatchScanResult:
    """One shared retrieval serving every member of the batch.

    ``downloads`` maps each ``member_id`` to the POI sequence that
    member would have downloaded solo (its own buckets, its own plan
    order); ``cost`` is the single shared channel bill.
    """

    cost: RetrievalCost
    bucket_ids: tuple[int, ...]
    downloads: dict[int, tuple[POI, ...]]

    @property
    def width(self) -> int:
        return len(self.downloads)


def batch_scan(
    server: BroadcastServer,
    schedule: BroadcastSchedule,
    members: Sequence[BatchMember],
    t_query: float,
    channel=None,
    tracer=None,
    **plan_attributes,
) -> BatchScanResult:
    """Run one shared index/data scan for a batch of members.

    The union bucket list is sorted (broadcast order — the schedule
    catches each bucket on its next airing), the index read is the
    widest any member needs, and lost buckets are recovered once for
    the whole batch (``channel`` is an optional unreliable-broadcast
    fault model; recovery re-tunes at the next index segment and shows
    up in the cost).  Duplicate ``member_id`` values are rejected: the
    downloads map could silently drop one member's plan.

    ``tracer`` is an optional :class:`repro.obs.Tracer`: the first
    scan, the data scan and any fault recovery each get a span whose
    ``sim_s`` shares sum to the cost's access latency;
    ``plan_attributes`` are what the caller wants the index-scan span
    to say about the plan it read the index for.
    """
    if not members:
        raise BroadcastError("batch scan needs at least one member")
    ids = [member.member_id for member in members]
    if len(set(ids)) != len(ids):
        raise BroadcastError(f"duplicate batch member ids: {sorted(ids)}")
    union_ids = sorted({b for member in members for b in member.bucket_ids})
    index_read = max(member.index_read_packets for member in members)
    if tracer is None:
        tracer = NO_TRACER
    with tracer.span("broadcast.index_scan") as index_span:
        cost = schedule.retrieve_with_recovery(
            t_query,
            union_ids,
            index_read,
            channel=channel,
            recovery_index_packets=server.index.tree_probe_packets,
        )
        index_span.set(
            index_packets=index_read,
            buckets_planned=len(union_ids),
            width=len(members),
            sim_s=cost.index_latency,
            **plan_attributes,
        )
    with tracer.span("broadcast.data_scan") as data_span:
        downloads = {
            member.member_id: server.download(member.bucket_ids)
            for member in members
        }
        data_span.set(
            buckets=cost.buckets_downloaded,
            tuning_packets=cost.tuning_packets,
            sim_s=cost.data_latency,
        )
    if cost.retunes and tracer.enabled:
        with tracer.span("broadcast.recovery") as recovery_span:
            recovery_span.set(
                retunes=cost.retunes,
                buckets_lost=cost.buckets_lost,
                sim_s=cost.recovery_latency,
            )
    if invariants.check_enabled():
        invariants.check_retrieval_cost(cost, len(union_ids))
    return BatchScanResult(
        cost=cost,
        bucket_ids=tuple(union_ids),
        downloads=downloads,
    )
