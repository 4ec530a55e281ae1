"""(1, m) broadcast-cycle timing arithmetic.

One broadcast cycle interleaves ``m`` copies of the index with the
data file split into ``m`` chunks (Imielinski et al. [10], Figure 2 of
the paper)::

    | index | chunk 0 | index | chunk 1 | ... | index | chunk m-1 |

Two client-side metrics characterise the model:

* **access latency** — time from posing the query until the last
  required packet has been received;
* **tuning time** — number of packets actually listened to (initial
  probe + index packets + data buckets), a proxy for client power
  consumption.

All schedule arithmetic is closed-form; nothing here advances a
simulation clock, so the experiment harness can price millions of
queries cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import BroadcastError


@dataclass(frozen=True, slots=True)
class RetrievalCost:
    """Outcome of one on-air retrieval.

    The total ``access_latency`` decomposes into three phases the
    observability layer reports separately: ``index_latency`` (probe,
    wait for the next index segment, read it), ``recovery_latency``
    (extra air time spent re-tuning after lost buckets), and the data
    scan (the remainder).  ``retunes`` and ``buckets_lost`` are
    nonzero only on an unreliable channel: each lost data bucket
    forces the client back to the next index segment (the (1, m)
    design's crash-recovery property), and every such re-tune adds
    waiting time and tuning packets.
    """

    access_latency: float
    tuning_packets: int
    finish_time: float
    buckets_downloaded: int
    retunes: int = 0
    buckets_lost: int = 0
    index_latency: float = 0.0
    recovery_latency: float = 0.0

    @property
    def data_latency(self) -> float:
        """The data-scan share of ``access_latency`` (never negative)."""
        return max(
            0.0, self.access_latency - self.index_latency - self.recovery_latency
        )


class BroadcastSchedule:
    """Timing layout of a (1, m) broadcast cycle."""

    def __init__(
        self,
        data_bucket_count: int,
        index_packet_count: int,
        m: int = 4,
        packet_time: float = 0.1,
    ):
        if data_bucket_count < 1:
            raise BroadcastError("schedule needs at least one data bucket")
        if index_packet_count < 1:
            raise BroadcastError("schedule needs a non-empty index")
        if m < 1:
            raise BroadcastError("m must be >= 1")
        if packet_time <= 0:
            raise BroadcastError("packet_time must be positive")
        self.data_bucket_count = data_bucket_count
        self.index_packet_count = index_packet_count
        self.m = min(m, data_bucket_count)
        self.packet_time = packet_time

        chunk = math.ceil(data_bucket_count / self.m)
        self._chunks: list[int] = []
        remaining = data_bucket_count
        for _ in range(self.m):
            take = min(chunk, remaining)
            self._chunks.append(take)
            remaining -= take
        self._chunks = [c for c in self._chunks if c > 0]
        self._segments = len(self._chunks)

        # Packet offset (within a cycle) of each segment's index start
        # and of each data bucket.
        self._index_starts: list[int] = []
        self._bucket_offsets: list[int] = [0] * data_bucket_count
        offset = 0
        bucket = 0
        for chunk_size in self._chunks:
            self._index_starts.append(offset)
            offset += index_packet_count
            for _ in range(chunk_size):
                self._bucket_offsets[bucket] = offset
                bucket += 1
                offset += 1
        self.cycle_packets = offset

    # ------------------------------------------------------------------
    @property
    def cycle_duration(self) -> float:
        """Wall-clock duration of one full broadcast cycle."""
        return self.cycle_packets * self.packet_time

    def bucket_offset(self, bucket_id: int) -> int:
        """Packet offset of a bucket within the cycle."""
        if not (0 <= bucket_id < self.data_bucket_count):
            raise BroadcastError(f"unknown bucket id {bucket_id}")
        return self._bucket_offsets[bucket_id]

    def next_index_start(self, t: float) -> float:
        """Earliest index-segment start time at or after ``t``."""
        cycle = self.cycle_duration
        base = math.floor(t / cycle) * cycle
        for _ in range(2):
            for start_offset in self._index_starts:
                start = base + start_offset * self.packet_time
                if start >= t - 1e-12:
                    return start
            base += cycle
        raise BroadcastError("unreachable: no index start found")  # pragma: no cover

    def next_bucket_end(self, bucket_id: int, t: float) -> float:
        """Earliest completion time of a bucket's broadcast at/after ``t``.

        The bucket must be listened to from its start, so the next
        usable occurrence begins at or after ``t``.
        """
        cycle = self.cycle_duration
        offset = self.bucket_offset(bucket_id) * self.packet_time
        base = math.floor((t - offset) / cycle) * cycle + offset
        if base < t - 1e-12:
            base += cycle
        return base + self.packet_time

    # ------------------------------------------------------------------
    def retrieve(
        self,
        t_query: float,
        bucket_ids: Sequence[int],
        index_read_packets: int | None = None,
    ) -> RetrievalCost:
        """Price a full on-air retrieval starting at ``t_query``.

        Protocol (Section 2.1): initial probe (one packet to learn the
        schedule), wait for the next index segment, read
        ``index_read_packets`` of it (defaults to the full index — the
        kNN first scan; window queries pass the B+-tree probe depth),
        then catch every required bucket as it comes around.
        """
        if index_read_packets is None:
            index_read_packets = self.index_packet_count
        if not (1 <= index_read_packets <= self.index_packet_count):
            raise BroadcastError(
                f"index_read_packets must be in [1, {self.index_packet_count}]"
            )
        probe_end = (
            math.ceil(t_query / self.packet_time + 1e-12) + 1
        ) * self.packet_time
        index_start = self.next_index_start(probe_end)
        index_end = index_start + index_read_packets * self.packet_time
        finish = index_end
        for bucket_id in bucket_ids:
            finish = max(finish, self.next_bucket_end(bucket_id, index_end))
        return RetrievalCost(
            access_latency=finish - t_query,
            tuning_packets=1 + index_read_packets + len(bucket_ids),
            finish_time=finish,
            buckets_downloaded=len(bucket_ids),
            index_latency=index_end - t_query,
        )

    def retrieve_with_recovery(
        self,
        t_query: float,
        bucket_ids: Sequence[int],
        index_read_packets: int | None = None,
        *,
        channel=None,
        recovery_index_packets: int = 1,
    ) -> RetrievalCost:
        """Price a retrieval on a channel that can corrupt buckets.

        ``channel`` is a :class:`~repro.faults.ChannelModel` (or any
        object with ``split_received`` and ``config.max_retunes``);
        ``None`` degrades to :meth:`retrieve` exactly.  When a bucket
        is lost the client re-tunes at the next index segment — the
        (1, m) index repeats every chunk, so recovery costs one wait
        until the segment start, ``recovery_index_packets`` index reads
        to re-locate the lost buckets, and their re-download when they
        come around again.  After ``max_retunes`` rounds the residual
        loss is waived so the retrieval always completes (the counters
        still record every loss).
        """
        cost = self.retrieve(t_query, bucket_ids, index_read_packets)
        if channel is None or not bucket_ids:
            return cost
        if not (1 <= recovery_index_packets <= self.index_packet_count):
            raise BroadcastError(
                "recovery_index_packets must be in "
                f"[1, {self.index_packet_count}]"
            )
        _, lost = channel.split_received(list(bucket_ids))
        if not lost:
            return cost
        finish = cost.finish_time
        tuning = cost.tuning_packets
        downloaded = cost.buckets_downloaded
        retunes = 0
        lost_total = 0
        while lost:
            retunes += 1
            lost_total += len(lost)
            index_start = self.next_index_start(finish)
            index_end = index_start + recovery_index_packets * self.packet_time
            finish = index_end
            for bucket_id in lost:
                finish = max(finish, self.next_bucket_end(bucket_id, index_end))
            tuning += recovery_index_packets + len(lost)
            downloaded += len(lost)
            if retunes >= channel.config.max_retunes:
                break
            _, lost = channel.split_received(lost)
        return RetrievalCost(
            access_latency=finish - t_query,
            tuning_packets=tuning,
            finish_time=finish,
            buckets_downloaded=downloaded,
            retunes=retunes,
            buckets_lost=lost_total,
            index_latency=cost.index_latency,
            recovery_latency=finish - cost.finish_time,
        )
