"""Figure 12 — percentage of kNN queries resolved by each path as a
function of the number of requested neighbours k (3–15).

Expected shapes (paper): the technique is most effective for small k;
raising the mean k from 3 to 15 pushed LA's broadcast-resolved share
up by ~28 points and Riverside's by ~21 (its starting level was
already much higher).
"""

from repro.experiments import format_series, run_figure

from _util import emit, profile, series_payload, workers

K_VALUES = (3, 7, 11, 15)


def run():
    p = profile()
    return run_figure(
        "fig12",
        values=K_VALUES,
        area_scale=p.area_scale,
        warmup_queries=p.warmup_queries,
        measure_queries=p.measure_queries,
        seed=12,
        max_workers=workers(),
    )


def test_fig12_knn_vs_k(benchmark):
    panels = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n\n".join(format_series(panel) for panel in panels)
    emit("Figure 12 kNN vs k", text, {"panels": series_payload(panels)})

    la, suburbia, riverside = panels

    # Shape 1: bigger k -> more broadcast fallbacks, everywhere.
    for panel in panels:
        series = panel.series["Solved by Broadcast"]
        assert series[-1] > series[0], panel.region

    # Shape 2: the broadcast increase is substantial in LA (paper:
    # +28 points from k=3 to k=15 — accept anything clearly positive).
    la_broadcast = la.series["Solved by Broadcast"]
    assert la_broadcast[-1] - la_broadcast[0] > 8.0

    # Shape 3: Riverside starts from a much higher broadcast level.
    assert (
        riverside.series["Solved by Broadcast"][0]
        > la.series["Solved by Broadcast"][0]
    )
