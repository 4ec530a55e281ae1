"""Figure 14 — percentage of window queries resolved by SBWQ vs the
broadcast channel, as a function of the cache capacity (6–30 items).

Expected shapes (paper): "with the increase of cache capacity, more
window queries can be fulfilled by peers", hence shorter access
latency.
"""

from repro.experiments import format_series, run_figure

from _util import emit, profile, series_payload, workers

CACHE_VALUES = (6, 14, 22, 30)


def run():
    p = profile()
    return run_figure(
        "fig14",
        values=CACHE_VALUES,
        area_scale=p.area_scale,
        warmup_queries=p.wq_warmup_queries,
        measure_queries=p.measure_queries,
        seed=14,
        max_workers=workers(),
    )


def test_fig14_window_vs_cache_capacity(benchmark):
    panels = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n\n".join(format_series(panel) for panel in panels)
    emit("Figure 14 window vs cache capacity", text, {"panels": series_payload(panels)})

    la, suburbia, riverside = panels

    # Shape 1: more cache -> more SBWQ hits in the dense regions.
    for panel in (la, suburbia):
        series = panel.series["Solved by SBWQ"]
        assert series[-1] > series[0], panel.region

    # Shape 2: the two series are complementary shares of 100 %.
    for panel in panels:
        for i in range(len(CACHE_VALUES)):
            total = (
                panel.series["Solved by SBWQ"][i]
                + panel.series["Solved by Broadcast"][i]
            )
            assert abs(total - 100.0) < 1e-6
