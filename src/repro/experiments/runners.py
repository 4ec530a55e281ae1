"""Figure runners: the parameter sweeps behind Figures 10–15.

:data:`FIGURES` has one row per figure — the swept parameter, the
values the paper plots, the query kind and the axis label — and
:func:`run_figure` runs a row over the three Table 3 regions,
returning per region the series the paper plots (percentage of
queries resolved by each path).

Scaling: the sweeps run on density-preserving scaled worlds (see
:func:`repro.workloads.scaled_parameters`); ``area_scale`` and the
warm-up/measurement budgets are exposed so tests run in seconds while
the benchmarks use more substantial defaults.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..errors import ExperimentError
from ..workloads import ALL_REGIONS, ParameterSet, QueryKind, scaled_parameters
from .parallel import SweepSeries, run_sweep
from .simulator import Simulation

CONTINUOUS_SERIES = (
    "Safe-Region Hit Rate (%)",
    "Broadcast Access Ratio (naive/monitored)",
    "Mean Batch Width",
)

# name -> (swept ParameterSet field, default values, query kind, axis
# label).  ``figc`` sweeps no field: its values are standing-query
# counts and :func:`run_continuous_sharing` runs it.
_KNN, _WQ = QueryKind.KNN, QueryKind.WINDOW
FIGURES: dict[str, tuple[str | None, tuple[float, ...], QueryKind, str]] = {
    "fig10": ("tx_range_m", (10, 50, 100, 150, 200), _KNN, "Transmission Range (m)"),
    "fig11": ("cache_size", (6, 12, 18, 24, 30), _KNN, "Number of Cached Items"),
    "fig12": ("knn_k", (3, 6, 9, 12, 15), _KNN, "Number of k"),
    "fig13": ("tx_range_m", (10, 50, 100, 150, 200), _WQ, "Transmission Range (m)"),
    "fig14": ("cache_size", (6, 12, 18, 24, 30), _WQ, "Number of Cached Items"),
    "fig15": ("window_percent", (1, 2, 3, 4, 5), _WQ, "Query Window Size (%)"),
    "figc": (None, (25, 50, 100), _KNN, "Standing Queries"),
}


def run_figure(
    name: str, values: Sequence[float] | None = None, **kwargs
) -> list[SweepSeries]:
    """Run one :data:`FIGURES` row (``values`` replaces the row's own).

    ``kwargs`` are :func:`~repro.experiments.parallel.run_sweep`'s:
    ``regions``, ``area_scale``, ``seed``, the warm-up / measurement
    budgets, ``max_workers`` and any ``Simulation`` option.
    """
    if name not in FIGURES:
        raise ExperimentError(f"unknown figure {name!r}")
    vary, default, kind, x_label = FIGURES[name]
    values = default if values is None else values
    kwargs.setdefault("x_label", x_label)
    if vary is None:
        return run_continuous_sharing(values, **kwargs)
    return run_sweep(vary, values, kind, **kwargs)


# ----------------------------------------------------------------------
# Continuous workload: batched-sharing gains vs standing-query count
# ----------------------------------------------------------------------
def run_continuous_sharing(
    values: Sequence[float] = FIGURES["figc"][1],
    regions: Sequence[ParameterSet] = ALL_REGIONS,
    area_scale: float = 0.1,
    seed: int = 0,
    warmup_queries: int = 2500,
    measure_queries: int = 400,
    x_label: str = FIGURES["figc"][3],
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
            for label, naive in (("monitored", False), ("naive", True)):
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
                    naive=naive,
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
                x_label=x_label,
                xs=xs,
                series=series,
                wall_clock_s=wall_clock,
            )
        )
    return panels
