"""Figure runners: the parameter sweeps behind Figures 10–15.

Each ``run_*`` function reproduces one figure: it sweeps one parameter
over the three Table 3 regions and returns, per region, the series the
paper plots (percentage of queries resolved by each path).

Scaling: the sweeps run on density-preserving scaled worlds (see
:func:`repro.workloads.scaled_parameters`); ``area_scale`` and the
warm-up/measurement budgets are exposed so tests run in seconds while
the benchmarks use more substantial defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..workloads import ALL_REGIONS, ParameterSet, QueryKind
from .metrics import MetricsCollector

KNN_SERIES = ("Solved by SBNN", "Solved by Approximate SBNN", "Solved by Broadcast")
WQ_SERIES = ("Solved by SBWQ", "Solved by Broadcast")
CONTINUOUS_SERIES = (
    "Safe-Region Hit Rate (%)",
    "Broadcast Access Ratio (naive/monitored)",
    "Mean Batch Width",
)


@dataclass(slots=True)
class SweepSeries:
    """One figure panel: a region's series over the swept parameter.

    ``wall_clock_s`` holds the per-point simulation wall-clock times
    (same order as ``xs``) when the sweep ran through the
    :class:`~repro.experiments.parallel.SweepRunner`.
    """

    region: str
    x_label: str
    xs: list[float]
    series: dict[str, list[float]]
    collectors: list[MetricsCollector] = field(default_factory=list)
    wall_clock_s: list[float] = field(default_factory=list)


def run_sweep(
    vary: str,
    values: Sequence[float],
    kind: QueryKind,
    regions: Sequence[ParameterSet] = ALL_REGIONS,
    area_scale: float = 0.1,
    seed: int = 0,
    warmup_queries: int = 2500,
    measure_queries: int = 600,
    x_label: str | None = None,
    max_workers: int = 1,
    **sim_kwargs,
) -> list[SweepSeries]:
    """Generic sweep: vary one ParameterSet field, measure resolutions.

    :meth:`~repro.experiments.parallel.SweepRunner.run_sweep` on a
    runner of ``max_workers`` processes (serial by default); the
    results are bit-identical for every ``max_workers``.
    """
    # Imported lazily: parallel.py imports SweepSeries from this module.
    from .parallel import SweepRunner

    return SweepRunner(max_workers=max_workers).run_sweep(
        vary,
        values,
        kind,
        regions,
        area_scale=area_scale,
        seed=seed,
        warmup_queries=warmup_queries,
        measure_queries=measure_queries,
        x_label=x_label,
        **sim_kwargs,
    )


# ----------------------------------------------------------------------
# Figure 10: kNN vs transmission range
# ----------------------------------------------------------------------
def run_knn_txrange(
    values: Sequence[float] = (10, 50, 100, 150, 200), **kwargs
) -> list[SweepSeries]:
    """Figure 10: kNN resolution shares vs transmission range."""
    kwargs.setdefault("x_label", "Transmission Range (m)")
    return run_sweep("tx_range_m", values, QueryKind.KNN, **kwargs)


# ----------------------------------------------------------------------
# Figure 11: kNN vs cache capacity
# ----------------------------------------------------------------------
def run_knn_cache(
    values: Sequence[float] = (6, 12, 18, 24, 30), **kwargs
) -> list[SweepSeries]:
    """Figure 11: kNN resolution shares vs cache capacity."""
    kwargs.setdefault("x_label", "Number of Cached Items")
    return run_sweep("cache_size", values, QueryKind.KNN, **kwargs)


# ----------------------------------------------------------------------
# Figure 12: kNN vs k
# ----------------------------------------------------------------------
def run_knn_k(
    values: Sequence[float] = (3, 6, 9, 12, 15), **kwargs
) -> list[SweepSeries]:
    """Figure 12: kNN resolution shares vs the number of neighbours k."""
    kwargs.setdefault("x_label", "Number of k")
    return run_sweep("knn_k", values, QueryKind.KNN, **kwargs)


# ----------------------------------------------------------------------
# Figure 13: window queries vs transmission range
# ----------------------------------------------------------------------
def run_wq_txrange(
    values: Sequence[float] = (10, 50, 100, 150, 200), **kwargs
) -> list[SweepSeries]:
    """Figure 13: window-query resolution shares vs transmission range."""
    kwargs.setdefault("x_label", "Transmission Range (m)")
    return run_sweep("tx_range_m", values, QueryKind.WINDOW, **kwargs)


# ----------------------------------------------------------------------
# Figure 14: window queries vs cache capacity
# ----------------------------------------------------------------------
def run_wq_cache(
    values: Sequence[float] = (6, 12, 18, 24, 30), **kwargs
) -> list[SweepSeries]:
    """Figure 14: window-query resolution shares vs cache capacity."""
    kwargs.setdefault("x_label", "Number of Cached Items")
    return run_sweep("cache_size", values, QueryKind.WINDOW, **kwargs)


# ----------------------------------------------------------------------
# Continuous workload: batched-sharing gains vs standing-query count
# ----------------------------------------------------------------------
def run_continuous_sharing(
    values: Sequence[float] = (25, 50, 100),
    regions: Sequence[ParameterSet] = ALL_REGIONS,
    area_scale: float = 0.1,
    seed: int = 0,
    warmup_queries: int = 2500,
    measure_queries: int = 400,
    x_label: str | None = None,
    max_workers: int = 1,
    tick_interval: float = 5.0,
    **sim_kwargs,
) -> list[SweepSeries]:
    """Continuous-monitoring sweep: sharing gains vs standing queries.

    For each (region, standing-query count) point, one monitored run
    (safe regions + batched scans) and one naive recompute-per-tick
    run execute the identical workload on identically seeded worlds;
    the series chart the safe-region hit rate, the broadcast-access
    ratio (naive tuning packets over monitored — the batching win),
    and the mean batch width.

    ``measure_queries`` maps to the tick budget (one tick re-evaluates
    every standing query, so 400 "measured queries" ≈ 20 ticks);
    ``max_workers`` is accepted for CLI symmetry but the A/B pairs run
    serially — each point is two full simulations already.
    """
    from ..workloads import scaled_parameters
    from .simulator import Simulation

    del max_workers
    values = list(values)
    ticks = max(2, measure_queries // 20)
    panels: list[SweepSeries] = []
    for region_index, base in enumerate(regions):
        params = scaled_parameters(base, area_scale=area_scale)
        xs: list[float] = []
        series: dict[str, list[float]] = {name: [] for name in CONTINUOUS_SERIES}
        wall_clock: list[float] = []
        for value_index, standing in enumerate(values):
            point_seed = seed + 1000 * region_index + value_index
            point_start = time.perf_counter()
            stats = {}
            for label, flags in (("monitored", True), ("naive", False)):
                sim = Simulation(
                    params,
                    seed=point_seed,
                    accept_approximate=False,
                    overhear=False,
                    **sim_kwargs,
                )
                stats[label] = sim.run_continuous(
                    QueryKind.KNN,
                    standing=int(standing),
                    ticks=ticks,
                    tick_interval=tick_interval,
                    use_safe_regions=flags,
                    batch_scans=flags,
                    warmup_queries=warmup_queries,
                ).stats
            monitored, naive = stats["monitored"], stats["naive"]
            ratio = (
                naive.tuning_packets / monitored.tuning_packets
                if monitored.tuning_packets
                else float("inf")
            )
            xs.append(float(standing))
            series[CONTINUOUS_SERIES[0]].append(
                100.0 * monitored.safe_hit_rate
            )
            series[CONTINUOUS_SERIES[1]].append(ratio)
            series[CONTINUOUS_SERIES[2]].append(monitored.mean_batch_width)
            wall_clock.append(time.perf_counter() - point_start)
        panels.append(
            SweepSeries(
                region=params.name,
                x_label=x_label or "Standing Queries",
                xs=xs,
                series=series,
                wall_clock_s=wall_clock,
            )
        )
    return panels


# ----------------------------------------------------------------------
# Figure 15: window queries vs window size
# ----------------------------------------------------------------------
def run_wq_size(
    values: Sequence[float] = (1, 2, 3, 4, 5), **kwargs
) -> list[SweepSeries]:
    """Figure 15: window-query resolution shares vs window size."""
    kwargs.setdefault("x_label", "Query Window Size (%)")
    return run_sweep("window_percent", values, QueryKind.WINDOW, **kwargs)
