"""The benchmark's names: workloads, end-to-end and per-layer metrics.

This table is the single source of the names later issues use;
``BENCHMARK.json`` at the repo root is ``manifest()`` written out (the
smoke test fails when the two drift apart).  Each per-layer entry also
says which end-to-end metric on which workload it is expected to move
— that column lives here and in ``bench/README.md`` because the
manifest format has no room for it.
"""

from __future__ import annotations

import statistics

RUN_SECONDS = 10

# (name, why) — ``why`` is the manifest's one-line reason.
WORKLOADS = [
    (
        "la-full-cold",
        "Full LA City (93,300 hosts), 2 process shards, from an empty"
        " world: cache insert/evict dominates; only workload crossing"
        " shard RPC, codec and mobility at Table-3 scale",
    ),
    (
        "la-dense-warm-knn",
        "Warmed dense world (LA x0.1, ~15 responding peers/query, ~88%"
        " peer-verified): MVR merge + NNV dominate; mirror image of the"
        " cold workload",
    ),
    (
        "riverside-sparse-window",
        "Warmed sparse world (Riverside x0.25, ~1.5 peers/query, ~68%"
        " on-air): SBWQ cover/subtract, big inserts and the broadcast"
        " scan's largest share anywhere",
    ),
    (
        "riverside-wire-knn",
        "BaseStationServer subprocess over loopback: the only workload"
        " with serve framing/admission, the wire codec and asyncio on"
        " the path; open loop for latency, closed loop for capacity",
    ),
]

# (name, unit, better, bound) — bound is the share of the parent's
# median by which the metric may worsen before it is a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("latency_ms_p50", "ms", "lower", 0.25),
]

_SIM = "la-full-cold, la-dense-warm-knn, riverside-sparse-window"

# (name, unit, better, moves) — ``moves`` names the end-to-end metric
# and workload the layer metric should move.  A value of 0 in a run
# means the layer is not on that workload's path.
PER_LAYER = [
    ("geometry.union_build_s", "s", "lower", "queries_per_s, cpu_ms_per_query on la-dense-warm-knn"),
    ("geometry.union_build_calls", "count", "lower", "queries_per_s on la-dense-warm-knn"),
    ("geometry.union_rects_in_mean", "count", "lower", "queries_per_s on la-dense-warm-knn"),
    ("geometry.boundary_distance_s", "s", "lower", "queries_per_s on la-dense-warm-knn"),
    ("geometry.window_cover_s", "s", "lower", "queries_per_s on riverside-sparse-window"),
    ("cache.insert_s", "s", "lower", "queries_per_s on la-full-cold, then riverside-sparse-window"),
    ("cache.insert_calls", "count", "lower", "queries_per_s on la-full-cold"),
    ("cache.evictions", "count", "lower", "queries_per_s on la-full-cold"),
    ("cache.share_s", "s", "lower", "queries_per_s on la-full-cold"),
    ("cache.items_per_host_mean", "count", "lower", "peak_rss_mb on all simulator workloads"),
    ("cache.regions_per_host_mean", "count", "lower", "peak_rss_mb on all simulator workloads"),
    ("core.mvr_merge_s", "s", "lower", "queries_per_s on la-dense-warm-knn"),
    ("core.mvr_memo_hit_ratio", "ratio", "higher", "queries_per_s on la-dense-warm-knn"),
    ("core.nnv_s", "s", "lower", "queries_per_s on la-dense-warm-knn"),
    ("core.sbnn_s", "s", "lower", "queries_per_s on la-dense-warm-knn"),
    ("core.annotate_s", "s", "lower", "queries_per_s on la-dense-warm-knn"),
    ("core.sbwq_s", "s", "lower", "queries_per_s on riverside-sparse-window"),
    ("broadcast.onair_knn_s", "s", "lower", "queries_per_s on la-full-cold"),
    ("broadcast.onair_window_s", "s", "lower", "queries_per_s on riverside-sparse-window"),
    ("broadcast.scans", "count", "lower", "queries_per_s on riverside-sparse-window"),
    ("broadcast.buckets_downloaded", "count", "lower", "queries_per_s on riverside-sparse-window"),
    ("broadcast.tuning_packets_mean", "count", "lower", "queries_per_s on riverside-sparse-window"),
    ("p2p.collect_s", "s", "lower", "queries_per_s on la-full-cold"),
    ("p2p.update_positions_s", "s", "lower", "queries_per_s, setup_s on la-full-cold"),
    ("p2p.peers_per_query_mean", "count", "higher", "queries_per_s on la-dense-warm-knn"),
    ("mobility.advance_s", "s", "lower", "queries_per_s, setup_s on la-full-cold"),
    ("mobility.refreshes", "count", "lower", "queries_per_s on la-full-cold"),
    ("experiments.execute_query_ms_p50", "ms", "lower", f"queries_per_s on {_SIM}"),
    ("experiments.execute_query_ms_p99", "ms", "lower", f"queries_per_s on {_SIM}"),
    ("experiments.host_self_s", "s", "lower", f"queries_per_s on {_SIM}"),
    ("sim.kernel_self_s", "s", "lower", f"queries_per_s on {_SIM}"),
    ("shard.coordinator_cpu_s", "s", "lower", "queries_per_s on la-full-cold"),
    ("shard.worker_cpu_s", "s", "lower", "cpu_ms_per_query on la-full-cold"),
    ("shard.worker_cpu_skew", "ratio", "lower", "queries_per_s on la-full-cold"),
    ("shard.coordinator_wait_share", "ratio", "lower", "queries_per_s on la-full-cold"),
    ("shard.begin_epoch_s", "s", "lower", "queries_per_s on la-full-cold"),
    ("shard.execute_batch_s", "s", "lower", "queries_per_s on la-full-cold"),
    ("shard.exchange_s", "s", "lower", "queries_per_s on la-full-cold"),
    ("shard.epochs", "count", "lower", "queries_per_s on la-full-cold"),
    ("shard.migrated_hosts", "count", "lower", "queries_per_s on la-full-cold"),
    ("codec.encode_payload_us", "us", "lower", "cpu_ms_per_query on la-full-cold"),
    ("codec.decode_payload_us", "us", "lower", "cpu_ms_per_query on la-full-cold"),
    ("codec.payload_bytes_mean", "B", "lower", "cpu_ms_per_query on la-full-cold"),
    ("codec.records_us_per_record", "us", "lower", "cpu_ms_per_query on la-full-cold"),
    ("codec.migration_bytes_mean", "B", "lower", "cpu_ms_per_query on la-full-cold"),
    ("serve.frame_encode_us", "us", "lower", "queries_per_s on riverside-wire-knn"),
    ("serve.frame_decode_us", "us", "lower", "queries_per_s on riverside-wire-knn"),
    ("serve.queries_per_s_json", "1/s", "higher", "queries_per_s on riverside-wire-knn"),
    ("serve.latency_ms_p99", "ms", "lower", "latency_ms_p50 on riverside-wire-knn"),
    ("serve.latency_ms_p50_r50", "ms", "lower", "latency_ms_p50 on riverside-wire-knn"),
    ("serve.latency_ms_p50_r200", "ms", "lower", "latency_ms_p50 on riverside-wire-knn"),
    ("serve.latency_ms_p99_r200", "ms", "lower", "latency_ms_p50 on riverside-wire-knn"),
    ("serve.max_rate_within_slo", "1/s", "higher", "latency_ms_p50 on riverside-wire-knn"),
    ("serve.generator_lag_ms_p99", "ms", "lower", "latency_ms_p50 on riverside-wire-knn"),
    ("serve.shed", "count", "lower", "queries_per_s on riverside-wire-knn"),
    ("serve.errors", "count", "lower", "queries_per_s on riverside-wire-knn"),
    ("serve.execute_ms_p50", "ms", "lower", "latency_ms_p50, queries_per_s on riverside-wire-knn"),
    ("serve.overhead_ms_p50", "ms", "lower", "latency_ms_p50, queries_per_s on riverside-wire-knn"),
    ("model.pct_verified", "%", "higher", "none: must repeat exactly at a fixed seed"),
    ("model.pct_approximate", "%", "lower", "none: must repeat exactly at a fixed seed"),
    ("model.pct_broadcast", "%", "lower", "none: must repeat exactly at a fixed seed"),
    ("model.access_latency_s_mean", "s", "lower", "none: must repeat exactly at a fixed seed"),
    ("model.tuning_packets_mean", "count", "lower", "none: must repeat exactly at a fixed seed"),
    ("trace.window_s", "s", "lower", "base of every layer share"),
    ("trace.overhead_share", "ratio", "lower", "none: cost of the shims"),
    ("trace.unattributed_share", "ratio", "lower", "none: root self time no layer covers"),
]

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
