"""Conclusion claim + future work — peer density and multi-hop.

The paper closes: "the higher the mobile peer density, the more
queries can be answered by peers", and names multi-hop sharing as
future work.  This bench sweeps host density (fractions of the LA
fleet) and compares one- vs two-hop sharing in the sparse regime.

All five simulation points are independent, so they run as one
:func:`run_points` batch (the seeds match the historical serial
loop, so the numbers are unchanged).
"""

from repro.experiments import (
    SweepPoint,
    format_table,
    run_points,
    scaled_parameters,
)
from repro.workloads import LA_CITY, RIVERSIDE_COUNTY, QueryKind

from _util import AREA_SCALE, MEASURE_QUERIES, WARMUP_QUERIES, emit

DENSITY_FRACTIONS = (0.25, 0.5, 1.0)
HOPS = (1, 2)
BUDGET = dict(
    area_scale=AREA_SCALE,
    warmup_queries=WARMUP_QUERIES,
    measure_queries=MEASURE_QUERIES,
)


def _points():
    points = []
    for index, fraction in enumerate(DENSITY_FRACTIONS):
        base = LA_CITY.replace(
            mh_number=round(LA_CITY.mh_number * fraction),
            query_rate_per_min=LA_CITY.query_rate_per_min * fraction,
        )
        points.append(
            SweepPoint(
                index=index,
                base=base,
                kind=QueryKind.KNN,
                overrides={},
                seed=6,
                **BUDGET,
            )
        )
    for offset, hops in enumerate(HOPS):
        points.append(
            SweepPoint(
                index=len(DENSITY_FRACTIONS) + offset,
                base=RIVERSIDE_COUNTY,
                kind=QueryKind.KNN,
                overrides={},
                seed=7,
                **BUDGET,
                sim_kwargs={"p2p_hops": hops},
            )
        )
    return points


def run():
    results = run_points(_points(), max_workers=2)
    density_results = results[: len(DENSITY_FRACTIONS)]
    hop_results = results[len(DENSITY_FRACTIONS) :]

    rows = []
    shares = []
    for fraction, result in zip(DENSITY_FRACTIONS, density_results):
        params = scaled_parameters(result.point.base, area_scale=AREA_SCALE)
        collector = result.collector
        resolved = collector.pct_verified + collector.pct_approximate
        shares.append(resolved)
        rows.append(
            [
                f"{fraction:g}x LA",
                round(params.mh_density, 0),
                round(collector.mean_peer_count(), 1),
                round(resolved, 1),
                round(collector.pct_broadcast, 1),
            ]
        )

    # Future work: two-hop sharing in the sparse Riverside regime.
    hop_rows = []
    hop_shares = {}
    for hops, result in zip(HOPS, hop_results):
        collector = result.collector
        resolved = collector.pct_verified + collector.pct_approximate
        hop_shares[hops] = resolved
        hop_rows.append(
            [hops, round(resolved, 1), round(collector.pct_broadcast, 1)]
        )

    table = format_table(
        ["fleet", "MH/mi^2", "responding peers", "peer-resolved %", "broadcast %"],
        rows,
        title="Peer density scalability (LA kNN workload)",
    )
    table += "\n\n" + format_table(
        ["hops", "peer-resolved %", "broadcast %"],
        hop_rows,
        title="Future work: multi-hop sharing (Riverside)",
    )
    return shares, hop_shares, table


def test_density_and_multihop_scalability():
    shares, hop_shares, table = run()
    emit("Density and multihop scalability", table)

    # Conclusion claim: peer-resolved share grows with host density.
    assert shares == sorted(shares)
    # Future work: a second hop cannot hurt, and usually helps the
    # sparse region.
    assert hop_shares[2] >= hop_shares[1] - 3.0
