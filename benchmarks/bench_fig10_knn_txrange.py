"""Figure 10 — percentage of kNN queries resolved by SBNN /
approximate SBNN / the broadcast channel, as a function of the
wireless transmission range (10–200 m), for all three Table 3 regions.

Expected shapes (paper): every region's peer-resolved share grows with
the range; the effect is strongest in dense LA, where at 200 m fewer
than ~20 % of queries still need the channel; sparse Riverside stays
broadcast-dominated.
"""

from repro.experiments import format_series, run_figure

from _util import emit, profile, series_payload, workers

TX_VALUES = (10, 50, 100, 200)


def run():
    p = profile()
    return run_figure(
        "fig10",
        values=TX_VALUES,
        area_scale=p.area_scale,
        warmup_queries=p.warmup_queries,
        measure_queries=p.measure_queries,
        seed=10,
        max_workers=workers(),
    )


def test_fig10_knn_vs_transmission_range(benchmark):
    panels = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n\n".join(format_series(panel) for panel in panels)
    emit("Figure 10 kNN vs transmission range", text, {"panels": series_payload(panels)})

    la, suburbia, riverside = panels
    la_sbnn = la.series["Solved by SBNN"]
    la_broadcast = la.series["Solved by Broadcast"]

    # Shape 1: more range -> more peer-resolved queries (all regions).
    for panel in panels:
        series = panel.series["Solved by SBNN"]
        assert series[-1] > series[0], panel.region

    # Shape 2: LA at 200 m leaves only a small broadcast share
    # (paper: "less than 20%"; we allow simulator slack).
    assert la_broadcast[-1] < 35.0

    # Shape 3: density ordering at full range — LA densest wins.
    assert (
        la_sbnn[-1]
        > riverside.series["Solved by SBNN"][-1]
    )
    assert (
        la_broadcast[-1]
        < riverside.series["Solved by Broadcast"][-1]
    )

    # Shape 4: at 10 m hardly anyone has peers; broadcast dominates.
    assert la_broadcast[0] > 60.0
