"""Sharded-world scaling: throughput and the area-scaling edge effects.

Two questions the shard layer (PR 9) must answer honestly:

1. **Throughput** — how many host-seconds of simulated mobility does
   each configuration serve per wall-clock second, and how does that
   move with the shard count?  These are wall-clock numbers, so they
   are printed, not written: the results file keeps the world and
   query counts they were measured on.

2. **Edge effects** — the repo runs most experiments on area-scaled
   worlds (densities preserved, absolute geometry preserved).  With
   the sharded simulator a much larger world is affordable, so we can
   finally *measure* the residual small-world bias: resolution-share
   curves at small scales vs the same curve on a large world.  Points
   where ``scaled_parameters`` had to clamp the query window
   (``window_clamped``) are excluded from the comparison — their
   window geometry is not the paper's, so disagreement there is
   expected and meaningless (satellite 1 of PR 9 made that clamp loud
   for exactly this reason).
"""

import time
import warnings

from repro.shard import ShardedSimulation
from repro.workloads import (
    RIVERSIDE_COUNTY,
    QueryKind,
    ScalingClampWarning,
    scaled_parameters,
)

from _util import AREA_SCALE, MEASURE_QUERIES, WARMUP_QUERIES, emit

THROUGHPUT_SHARDS = (1, 2, 4)
# The clamping point (window_percent 3 needs area_scale >= 9e-4) is
# deliberately included: the benchmark must *show* it being excluded.
EDGE_SCALES = (4e-4, 0.02, 0.06, 0.1)
REFERENCE_SCALE = 0.25


def _scaled(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalingClampWarning)
        return scaled_parameters(RIVERSIDE_COUNTY, scale)


def _shares(params, shards, warmup, measure, seed=9):
    with ShardedSimulation(
        params, seed=seed, shards=shards, exchange="cycle"
    ) as sim:
        collector = sim.run_workload(QueryKind.WINDOW, warmup, measure)
        return {
            "local": collector.pct_verified + collector.pct_approximate,
            "broadcast": collector.pct_broadcast,
        }


def bench_throughput():
    """The throughput header for the results file; the timed lines go
    to stdout only (wall-clock numbers do not reproduce run to run)."""
    params = _scaled(AREA_SCALE)
    rows = []
    for shards in THROUGHPUT_SHARDS:
        start = time.perf_counter()
        with ShardedSimulation(
            params, seed=9, shards=shards, exchange="cycle"
        ) as sim:
            sim.run_workload(QueryKind.KNN, 0, MEASURE_QUERIES)
            wall = time.perf_counter() - start
            rows.append(
                {
                    "shards": shards,
                    "backend": sim.backend,
                    "wall_s": wall,
                    "hosts_per_sec": params.mh_number * sim._now / wall,
                }
            )
    header = (f"{params.name}: {params.mh_number} hosts,"
              f" {MEASURE_QUERIES} knn queries")
    print(f"\n{header} (wall clock, not written to results/)")
    for row in rows:
        print(
            f"  {row['shards']} shard(s) [{row['backend']:>9s}]:"
            f" {row['hosts_per_sec']:>12,.0f} host-seconds/s"
            f" ({row['wall_s']:.2f} s wall)"
        )
    return header


def bench_edge_effects():
    # Warm-up must scale with the population: the workload arrival
    # rate is proportional to the host count, so a *fixed* warm-up
    # budget would leave small worlds with far warmer per-host caches
    # than large ones and the comparison would measure cache warmth,
    # not edge effects.  Hold warm-up queries *per host* constant
    # against the reference instead.
    reference_params = _scaled(REFERENCE_SCALE)
    reference = _shares(
        reference_params, shards=4,
        warmup=WARMUP_QUERIES, measure=MEASURE_QUERIES,
    )
    rows = []
    for scale in EDGE_SCALES:
        params = _scaled(scale)
        warmup = max(
            10,
            round(WARMUP_QUERIES * scale / REFERENCE_SCALE),
        )
        shares = _shares(
            params, shards=1,
            warmup=warmup, measure=MEASURE_QUERIES,
        )
        rows.append(
            {
                "area_scale": scale,
                "mh_number": params.mh_number,
                "window_clamped": params.window_clamped,
                "local_pct": shares["local"],
                "delta_vs_reference": shares["local"] - reference["local"],
            }
        )
    lines = [
        f"reference: scale {REFERENCE_SCALE:g}"
        f" ({reference_params.mh_number} hosts, 4 shards):"
        f" {reference['local']:.1f}% locally resolved window queries"
    ]
    for row in rows:
        if row["window_clamped"]:
            verdict = "EXCLUDED (window clamped to scaled side)"
        else:
            verdict = f"delta {row['delta_vs_reference']:+.1f} pp"
        lines.append(
            f"  scale {row['area_scale']:<7g} ({row['mh_number']:>5d} hosts):"
            f" {row['local_pct']:5.1f}% local  {verdict}"
        )
    comparable = [r for r in rows if not r["window_clamped"]]
    worst = max(abs(r["delta_vs_reference"]) for r in comparable)
    lines.append(
        f"worst comparable deviation: {worst:.1f} pp over"
        f" {len(comparable)} scales"
        f" ({len(rows) - len(comparable)} clamped point(s) excluded)"
    )
    return "\n".join(lines)


def test_sharded_scaling():
    emit(
        "sharded scaling and edge effects",
        bench_throughput() + "\n\n" + bench_edge_effects(),
    )
