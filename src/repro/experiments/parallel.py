"""Parallel sweep execution: fan independent sweep points across processes.

Every sweep point — one (region, parameter value) cell of a figure
grid — is an independent :class:`Simulation`, so the grid parallelises
embarrassingly.  :func:`run_sweep` derives one seed per point
up-front (``seed + 1000 * region_index + value_index``: a function of
the grid position, so the assignment never depends on scheduling),
fans the points over a ``ProcessPoolExecutor`` (:func:`run_points`),
and reassembles the results in grid order.
The output is therefore deterministic in the worker count: the same
seeds produce the same collectors whether the points ran serially, in
four workers, or in any interleaving.

``max_workers=1`` (the default) bypasses the pool entirely and runs
in-process — no pickling, no subprocess start-up —
which keeps unit tests and tiny sweeps fast.  That is the caller's
choice, never the environment's: a pool that cannot start is an
:class:`~repro.errors.ExperimentError`, not a silent serial run.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ExperimentError
from ..workloads import ALL_REGIONS, ParameterSet, QueryKind, scaled_parameters
from .metrics import MetricsCollector
from .simulator import Simulation

KNN_SERIES = ("Solved by SBNN", "Solved by Approximate SBNN", "Solved by Broadcast")
WQ_SERIES = ("Solved by SBWQ", "Solved by Broadcast")


@dataclass(slots=True)
class SweepSeries:
    """One figure panel: a region's series over the swept parameter.

    ``wall_clock_s`` holds the per-point simulation wall-clock times
    (same order as ``xs``).
    """

    region: str
    x_label: str
    xs: list[float]
    series: dict[str, list[float]]
    collectors: list[MetricsCollector] = field(default_factory=list)
    wall_clock_s: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class SweepPoint:
    """One independently simulable cell of a sweep grid.

    Carries everything a worker process needs: the base region, the
    parameter override, the derived seed, and the workload budgets.
    ``index`` is the row-major grid position used to restore order.
    """

    index: int
    base: ParameterSet
    kind: QueryKind
    overrides: dict
    seed: int
    area_scale: float = 0.1
    warmup_queries: int = 2500
    measure_queries: int = 600
    sim_kwargs: dict = field(default_factory=dict)

    def run(self) -> "PointResult":
        """Simulate this point; its metrics and wall-clock cost."""
        start = time.perf_counter()
        params = scaled_parameters(
            self.base, area_scale=self.area_scale, **self.overrides
        )
        sim_kwargs = dict(self.sim_kwargs)
        shards = sim_kwargs.pop("shards", None)
        exchange = sim_kwargs.pop("exchange", "cycle")
        shard_backend = sim_kwargs.pop("shard_backend", "auto")
        if shards is not None:
            from ..shard import ShardedSimulation

            with ShardedSimulation(
                params,
                seed=self.seed,
                shards=shards,
                exchange=exchange,
                backend=shard_backend,
                **sim_kwargs,
            ) as sim:
                collector = sim.run_workload(
                    self.kind, self.warmup_queries, self.measure_queries
                )
            return PointResult(self, collector, time.perf_counter() - start)
        sim = Simulation(params, seed=self.seed, **sim_kwargs)
        collector = sim.run_workload(
            self.kind, self.warmup_queries, self.measure_queries
        )
        return PointResult(self, collector, time.perf_counter() - start)


@dataclass(slots=True)
class PointResult:
    """A finished sweep point: its metrics plus the wall-clock cost."""

    point: SweepPoint
    collector: MetricsCollector
    wall_clock_s: float


def _execute_point(point):
    """Run one point; module-level so it pickles into worker processes."""
    return point.run()


def run_points(points: Sequence, max_workers: int = 1) -> list:
    """Run the points on ``max_workers`` processes; results in input order.

    A point is a :class:`SweepPoint` (its result a :class:`PointResult`)
    or any other picklable object whose ``run()`` simulates one
    independent cell (the continuous sweep's ``ContinuousPoint``).
    ``1`` runs serially in-process.  Results always come back in the
    order of ``points`` regardless of completion order.
    """
    if max_workers < 1:
        raise ExperimentError(f"max_workers must be >= 1, got {max_workers}")
    points = list(points)
    workers = min(max_workers, len(points))
    if workers <= 1:
        return [_execute_point(p) for p in points]
    already_running = set(multiprocessing.active_children())
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves input order, so the grid order
            # survives any parallel completion order.
            return list(pool.map(_execute_point, points))
    except OSError as exc:
        # A pool that failed part-way through starting its workers
        # never joins the ones it did start; reap them first.
        for child in set(multiprocessing.active_children()) - already_running:
            child.terminate()
            child.join()
        raise ExperimentError(
            f"could not run {len(points)} sweep points on a pool of"
            f" {workers} worker processes: {exc} (max_workers=1 runs"
            " them serially in this process)"
        ) from exc


def run_sweep(
    vary: str,
    values: Sequence[float],
    kind: QueryKind,
    regions: Sequence[ParameterSet] = ALL_REGIONS,
    *,
    area_scale: float = 0.1,
    seed: int = 0,
    warmup_queries: int = 2500,
    measure_queries: int = 600,
    x_label: str | None = None,
    max_workers: int = 1,
    **sim_kwargs,
) -> list[SweepSeries]:
    """Figure-style sweep: vary one field over ``regions`` × ``values``.

    The point at (``region_index``, ``value_index``) runs with seed
    ``seed + 1000 * region_index + value_index`` — the derivation
    behind every committed figure, CSV and EXPERIMENTS.md number,
    fixed by grid position and so independent of ``max_workers``.
    """
    values = list(values)
    regions = list(regions)
    points = [
        SweepPoint(
            index=region_index * len(values) + value_index,
            base=base,
            kind=kind,
            overrides={vary: value},
            seed=seed + 1000 * region_index + value_index,
            area_scale=area_scale,
            warmup_queries=warmup_queries,
            measure_queries=measure_queries,
            sim_kwargs=dict(sim_kwargs),
        )
        for region_index, base in enumerate(regions)
        for value_index, value in enumerate(values)
    ]
    results = run_points(points, max_workers)
    return assemble_series(results, regions, values, kind, x_label or vary)


def assemble_series(
    results: Sequence[PointResult],
    regions: Sequence[ParameterSet],
    values: Sequence[float],
    kind: QueryKind,
    x_label: str,
) -> list[SweepSeries]:
    """Fold row-major point results back into per-region figure panels."""
    if len(results) != len(regions) * len(values):
        raise ExperimentError(
            f"expected {len(regions) * len(values)} point results, "
            f"got {len(results)}"
        )
    names = KNN_SERIES if kind is QueryKind.KNN else WQ_SERIES
    out: list[SweepSeries] = []
    cursor = iter(results)
    for base in regions:
        series: dict[str, list[float]] = {name: [] for name in names}
        collectors: list[MetricsCollector] = []
        timings: list[float] = []
        for _ in values:
            result = next(cursor)
            collector = result.collector
            collectors.append(collector)
            timings.append(result.wall_clock_s)
            if kind is QueryKind.KNN:
                series[KNN_SERIES[0]].append(collector.pct_verified)
                series[KNN_SERIES[1]].append(collector.pct_approximate)
                series[KNN_SERIES[2]].append(collector.pct_broadcast)
            else:
                # The paper folds approximate answers out of the window
                # experiments: SBWQ either covers the window or not.
                series[WQ_SERIES[0]].append(
                    collector.pct_verified + collector.pct_approximate
                )
                series[WQ_SERIES[1]].append(collector.pct_broadcast)
        out.append(
            SweepSeries(
                region=base.name,
                x_label=x_label,
                xs=[float(v) for v in values],
                series=series,
                collectors=collectors,
                wall_clock_s=timings,
            )
        )
    return out
