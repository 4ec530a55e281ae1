"""Experiment metrics: per-query records and aggregate collectors.

The paper's headline metric is the share of queries resolved by each
path — SBNN / approximate SBNN / broadcast channel (Figures 10–15).
We additionally track access latency and tuning time so the filtering
ablation (Section 3.3.3) has something to measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import TYPE_CHECKING

from ..core import Resolution
from ..errors import ExperimentError
from ..workloads import QueryKind

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """Everything measured about one executed query.

    ``covered_fraction_missing`` is the window-query area share (in
    [0, 1]) the peers could *not* cover — the part priced on the
    broadcast channel; it stays 0.0 for kNN queries and fully resolved
    windows.  The trailing fault counters stay zero in a
    perfect-channel run: ``p2p_drops`` (lost messages and churned
    peers), ``p2p_retries`` (extra request broadcasts),
    ``p2p_deadline_misses`` (responses past the deadline),
    ``recovery_retunes`` (index-segment re-tunes after a lost data
    bucket), and ``buckets_lost`` (data buckets re-downloaded because
    a copy was corrupted).
    """

    time: float
    host_id: int
    kind: QueryKind
    resolution: Resolution
    access_latency: float
    tuning_packets: int
    buckets_downloaded: int
    peer_count: int
    k: int = 0
    window_area: float = 0.0
    result_size: int = 0
    covered_fraction_missing: float = 0.0
    p2p_drops: int = 0
    p2p_retries: int = 0
    p2p_deadline_misses: int = 0
    recovery_retunes: int = 0
    buckets_lost: int = 0


class MetricsCollector:
    """Aggregates query records into the figures' percentages.

    Empty-collector contract: every aggregate over *all* records
    (``percentage``, ``summary``, the ``mean_*`` family) raises
    :class:`~repro.errors.ExperimentError` when nothing has been
    collected — a silent 0.0 used to poison sweep aggregates.  A
    *filtered* mean over a non-empty collector whose filter matches
    nothing (e.g. broadcast latency in a run every query resolved
    peer-side) is a genuine "no such cost" and stays 0.0.

    ``registry`` optionally names a :class:`repro.obs.MetricsRegistry`
    every added record is mirrored into — the single sink unifying the
    query, retrieval-cost, and fault counters.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.records: list[QueryRecord] = []
        self.registry = registry

    def add(self, record: QueryRecord) -> None:
        self.records.append(record)
        if self.registry is not None:
            self._observe(record)

    def _observe(self, record: QueryRecord) -> None:
        from ..obs import LATENCY_BUCKETS_S, TUNING_BUCKETS

        registry = self.registry
        registry.counter(f"query.resolved.{record.resolution.value}").inc()
        registry.histogram(
            "query.access_latency_s", LATENCY_BUCKETS_S
        ).observe(record.access_latency)
        registry.histogram(
            "query.tuning_packets", TUNING_BUCKETS
        ).observe(record.tuning_packets)
        registry.counter("broadcast.buckets_downloaded").inc(
            record.buckets_downloaded
        )
        registry.counter("p2p.peers_responded").inc(record.peer_count)
        if record.kind is QueryKind.WINDOW:
            registry.histogram(
                "query.covered_fraction_missing",
                (0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
            ).observe(record.covered_fraction_missing)
        registry.counter("faults.p2p_drops").inc(record.p2p_drops)
        registry.counter("faults.p2p_retries").inc(record.p2p_retries)
        registry.counter("faults.p2p_deadline_misses").inc(
            record.p2p_deadline_misses
        )
        registry.counter("faults.recovery_retunes").inc(record.recovery_retunes)
        registry.counter("faults.buckets_lost").inc(record.buckets_lost)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def count(self, resolution: Resolution) -> int:
        return sum(1 for r in self.records if r.resolution is resolution)

    def percentage(self, resolution: Resolution) -> float:
        """Share of queries resolved by the given path, in percent."""
        self._require_records()
        return 100.0 * self.count(resolution) / len(self.records)

    @property
    def pct_verified(self) -> float:
        return self.percentage(Resolution.VERIFIED)

    @property
    def pct_approximate(self) -> float:
        return self.percentage(Resolution.APPROXIMATE)

    @property
    def pct_broadcast(self) -> float:
        return self.percentage(Resolution.BROADCAST)

    # ------------------------------------------------------------------
    def _require_records(self) -> None:
        if not self.records:
            raise ExperimentError("no records collected")

    def mean_latency(self, resolution: Resolution | None = None) -> float:
        self._require_records()
        latencies = [
            r.access_latency
            for r in self.records
            if resolution is None or r.resolution is resolution
        ]
        return mean(latencies) if latencies else 0.0

    def mean_peer_count(self) -> float:
        self._require_records()
        return mean(r.peer_count for r in self.records)

    # ------------------------------------------------------------------
    # Fault-layer aggregates (all zero on a perfect channel)
    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        """Share of queries answered without the channel, in percent."""
        return self.pct_verified + self.pct_approximate

    def total_drops(self) -> int:
        return sum(r.p2p_drops for r in self.records)

    def total_retries(self) -> int:
        return sum(r.p2p_retries for r in self.records)

    def total_deadline_misses(self) -> int:
        return sum(r.p2p_deadline_misses for r in self.records)

    def total_retunes(self) -> int:
        return sum(r.recovery_retunes for r in self.records)

    def total_buckets_lost(self) -> int:
        return sum(r.buckets_lost for r in self.records)

    def fault_summary(self) -> dict[str, float]:
        """The degradation benchmark's counters, as a flat dict."""
        self._require_records()
        return {
            "hit_ratio": self.hit_ratio,
            "drops": float(self.total_drops()),
            "retries": float(self.total_retries()),
            "deadline_misses": float(self.total_deadline_misses()),
            "recovery_retunes": float(self.total_retunes()),
            "buckets_lost": float(self.total_buckets_lost()),
        }
