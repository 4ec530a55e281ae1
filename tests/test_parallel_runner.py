"""Determinism and ordering tests for the parallel sweep runner.

The contract under test: a sweep's results depend only on its seeds —
never on the worker count or scheduling — because every point's seed
is fixed up-front and ``run_points`` restores grid order.
"""

import multiprocessing
from multiprocessing.process import BaseProcess

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    FIGURES,
    SweepPoint,
    parallel,
    run_figure,
    run_points,
    run_sweep,
)
from repro.workloads import ALL_REGIONS, QueryKind

TINY = dict(area_scale=0.02, warmup_queries=30, measure_queries=20)


def _series_view(panels):
    return [(p.region, p.xs, p.series) for p in panels]


def _records(panels):
    return [
        [collector.records for collector in panel.collectors]
        for panel in panels
    ]


class TestDeterminism:
    def test_four_workers_equal_serial(self):
        kwargs = dict(seed=5, **TINY)
        serial = run_sweep(
            "tx_range_m", [50, 150], QueryKind.KNN, ALL_REGIONS[:2], **kwargs
        )
        pooled = run_sweep(
            "tx_range_m", [50, 150], QueryKind.KNN, ALL_REGIONS[:2],
            max_workers=4, **kwargs,
        )
        assert _series_view(serial) == _series_view(pooled)
        assert _records(serial) == _records(pooled)

    def test_default_seeds_are_reproducible(self):
        runs = [
            run_sweep(
                "tx_range_m", [100], QueryKind.KNN, ALL_REGIONS[:1],
                seed=9, **TINY,
            )
            for _ in range(2)
        ]
        assert _series_view(runs[0]) == _series_view(runs[1])

    def test_one_seed_per_grid_position(self, monkeypatch):
        # The derivation behind every committed figure: a function of
        # the grid position alone, whatever the worker count.
        seen = []
        monkeypatch.setattr(
            parallel,
            "run_points",
            lambda points, workers: seen.append([p.seed for p in points]) or [],
        )
        for workers in (1, 3):
            with pytest.raises(ExperimentError, match="point results"):
                run_sweep(
                    "tx_range_m", [50, 100, 150], QueryKind.KNN,
                    ALL_REGIONS[:2], seed=7, max_workers=workers, **TINY,
                )
        assert seen == [[7, 8, 9, 1007, 1008, 1009]] * 2


class TestRunPoints:
    def _points(self, count):
        return [
            SweepPoint(
                index=i,
                base=ALL_REGIONS[0],
                kind=QueryKind.KNN,
                overrides={"tx_range_m": 50.0 + 50.0 * i},
                seed=i,
                area_scale=TINY["area_scale"],
                warmup_queries=TINY["warmup_queries"],
                measure_queries=TINY["measure_queries"],
            )
            for i in range(count)
        ]

    def test_results_preserve_grid_order(self):
        results = run_points(self._points(3), 2)
        assert [r.point.index for r in results] == [0, 1, 2]

    def test_wall_clock_recorded_per_point(self):
        results = run_points(self._points(2), 1)
        assert all(r.wall_clock_s > 0.0 for r in results)

    def test_empty_batch(self):
        assert run_points([], 2) == []


class TestValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ExperimentError, match="max_workers"):
            run_points(TestRunPoints()._points(1), 0)
        with pytest.raises(ExperimentError, match="max_workers"):
            run_sweep(
                "tx_range_m", [50], QueryKind.KNN, ALL_REGIONS[:1],
                max_workers=0, **TINY,
            )

    def test_pool_that_cannot_start_is_a_typed_error(self, monkeypatch):
        # The second worker fails to start: no silent serial re-run,
        # and the worker that did start is not left behind.
        real_start = BaseProcess.start
        started = []

        def flaky_start(process):
            if started:
                raise OSError("cannot fork")
            started.append(process)
            real_start(process)

        monkeypatch.setattr(BaseProcess, "start", flaky_start)
        points = TestRunPoints()._points(2)
        with pytest.raises(ExperimentError, match="2 worker processes") as info:
            run_points(points, 2)
        assert isinstance(info.value.__cause__, OSError)
        assert len(started) == 1
        assert multiprocessing.active_children() == []


class TestSweepSeriesTiming:
    def test_panels_carry_timings(self):
        panels = run_sweep(
            "tx_range_m", [50, 150], QueryKind.KNN, ALL_REGIONS[:1],
            seed=1, **TINY,
        )
        assert len(panels[0].wall_clock_s) == len(panels[0].xs)
        assert all(t > 0.0 for t in panels[0].wall_clock_s)


class TestFigures:
    def test_a_figure_is_its_row_of_the_table(self):
        vary, values, kind, x_label, _ = FIGURES["fig12"]
        assert (vary, values, kind) == ("knn_k", (3, 6, 9, 12, 15), QueryKind.KNN)
        kwargs = dict(regions=ALL_REGIONS[:1], seed=4, **TINY)
        figure = run_figure("fig12", [3, 9], **kwargs)
        sweep = run_sweep(vary, [3, 9], kind, x_label=x_label, **kwargs)
        assert _series_view(figure) == _series_view(sweep)
        assert _records(figure) == _records(sweep)
        assert figure[0].x_label == "Number of k"

    def test_rows_and_unknown_names(self):
        assert sorted(FIGURES) == [
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "figc",
        ]
        with pytest.raises(ExperimentError, match="fig99"):
            run_figure("fig99")
