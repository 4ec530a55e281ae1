"""Figure 11 — percentage of kNN queries resolved by each path as a
function of the mobile-host cache capacity (6–30 cached items).

Expected shapes (paper): a "remarkable increase" of SBNN-resolved
queries with larger caches in LA and Suburbia; Riverside moves less
because its bottleneck is peer scarcity, not cache space.
"""

from repro.experiments import format_series, run_figure

from _util import emit, profile, series_payload, workers

CACHE_VALUES = (6, 14, 22, 30)


def run():
    p = profile()
    return run_figure(
        "fig11",
        values=CACHE_VALUES,
        area_scale=p.area_scale,
        warmup_queries=p.warmup_queries,
        measure_queries=p.measure_queries,
        seed=11,
        max_workers=workers(),
    )


def test_fig11_knn_vs_cache_capacity(benchmark):
    panels = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n\n".join(format_series(panel) for panel in panels)
    emit("Figure 11 kNN vs cache capacity", text, {"panels": series_payload(panels)})

    la, suburbia, riverside = panels

    # Shape 1: more cache -> more SBNN hits in the dense regions.
    for panel in (la, suburbia):
        series = panel.series["Solved by SBNN"]
        assert series[-1] > series[0], panel.region

    # Shape 2: broadcast share shrinks as caches grow (dense regions).
    assert (
        la.series["Solved by Broadcast"][-1]
        < la.series["Solved by Broadcast"][0]
    )

    # Shape 3: density ordering persists at every cache size.
    for i in range(len(CACHE_VALUES)):
        assert (
            la.series["Solved by SBNN"][i]
            >= riverside.series["Solved by SBNN"][i] - 5.0
        )
