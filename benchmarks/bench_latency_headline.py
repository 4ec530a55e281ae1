"""The headline claim — access-latency reduction through sharing.

Abstract/Conclusions: the method "manages to reduce the latency
considerably" and "can reduce the access to the wireless broadcast
channel by a significant amount, for example up to 80% in a dense
urban area".  This bench runs the same kNN workload with sharing
enabled and with the pure on-air baseline (Zheng et al.), and reports
channel accesses and mean access latency for both.
"""

from repro.experiments import Simulation, format_table, scaled_parameters
from repro.workloads import LA_CITY, RIVERSIDE_COUNTY, SYNTHETIC_SUBURBIA, QueryKind

from _util import AREA_SCALE, MEASURE_QUERIES, WARMUP_QUERIES, emit


def run():
    rows = []
    reductions = {}
    for base in (LA_CITY, SYNTHETIC_SUBURBIA, RIVERSIDE_COUNTY):
        params = scaled_parameters(base, area_scale=AREA_SCALE)
        shared = Simulation(params, seed=8).run_workload(
            QueryKind.KNN, WARMUP_QUERIES, MEASURE_QUERIES
        )
        baseline = Simulation(
            params, seed=8, enable_sharing=False, overhear=False
        ).run_workload(QueryKind.KNN, 0, MEASURE_QUERIES)
        channel_share = shared.pct_broadcast
        reduction = 100.0 - channel_share  # baseline hits the channel 100%
        reductions[base.name] = reduction
        rows.append(
            [
                base.name,
                round(baseline.mean_latency(), 2),
                round(shared.mean_latency(), 2),
                round(channel_share, 1),
                round(reduction, 1),
            ]
        )
    table = format_table(
        [
            "region",
            "baseline latency [s]",
            "sharing latency [s]",
            "channel use [%]",
            "channel reduction [%]",
        ],
        rows,
        title="Headline: latency and channel-access reduction (kNN)",
    )
    return reductions, rows, table


def test_headline_channel_reduction():
    reductions, rows, table = run()
    emit("Headline latency reduction", table)

    # "up to 80% in a dense urban area": LA must clear a high bar.
    assert reductions["Los Angeles City"] > 70.0
    # Sharing reduces mean latency everywhere it finds peers.
    for row in rows:
        baseline_latency, sharing_latency = row[1], row[2]
        assert sharing_latency < baseline_latency
    # Density ordering of the reduction.
    assert (
        reductions["Los Angeles City"]
        >= reductions["Riverside County"]
    )
