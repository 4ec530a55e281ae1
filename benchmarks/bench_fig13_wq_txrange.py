"""Figure 13 — percentage of window queries resolved by SBWQ vs the
broadcast channel, as a function of the transmission range (10–200 m).

Expected shapes (paper): "the trend of the simulation results is
similar to the kNN case" — more range, more peer-resolved windows,
with the density ordering LA > Suburbia > Riverside.
"""

from repro.experiments import format_series, run_figure

from _util import emit, profile, series_payload, workers

TX_VALUES = (10, 50, 100, 200)


def run():
    p = profile()
    return run_figure(
        "fig13",
        values=TX_VALUES,
        area_scale=p.area_scale,
        warmup_queries=p.wq_warmup_queries,
        measure_queries=p.measure_queries,
        seed=13,
        max_workers=workers(),
    )


def test_fig13_window_vs_transmission_range(benchmark):
    panels = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n\n".join(format_series(panel) for panel in panels)
    emit("Figure 13 window vs transmission range", text, {"panels": series_payload(panels)})

    la, suburbia, riverside = panels

    # Shape 1: more range -> more SBWQ-resolved windows (dense regions).
    for panel in (la, suburbia):
        series = panel.series["Solved by SBWQ"]
        assert series[-1] > series[0], panel.region

    # Shape 2: density ordering at full range.
    assert (
        la.series["Solved by SBWQ"][-1]
        >= riverside.series["Solved by SBWQ"][-1]
    )

    # Shape 3: at 10 m the channel dominates everywhere.
    for panel in panels:
        assert panel.series["Solved by Broadcast"][0] > 50.0, panel.region
