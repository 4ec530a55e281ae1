"""Figure runners: the parameter sweeps behind Figures 10–15.

:data:`FIGURES` has one row per figure — the swept parameter, the
values the paper plots, the query kind, the axis label and the paper's
claims about it — and :func:`run_figure` runs a row over the three
Table 3 regions, returning per region the series the paper plots
(percentage of queries resolved by each path).  :func:`check_claims`
judges a run's panels against the row's claims.

Scaling: the sweeps run on density-preserving scaled worlds (see
:func:`repro.workloads.scaled_parameters`); ``area_scale`` and the
warm-up/measurement budgets are exposed so tests run in seconds while
``make experiments`` uses more substantial ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import ExperimentError
from ..workloads import ALL_REGIONS, ParameterSet, QueryKind, scaled_parameters
from .parallel import KNN_SERIES, WQ_SERIES, SweepSeries, run_points, run_sweep
from .simulator import Simulation

CONTINUOUS_SERIES = (
    "Safe-Region Hit Rate (%)",
    "Broadcast Access Ratio (naive/monitored)",
    "Mean Batch Width",
)

# A claim is the paper sentence it checks (with the simulator's slack)
# and a predicate over the series dicts of the LA, Suburbia and
# Riverside panels, in that order.
Claim = tuple[str, Callable[..., bool]]
SBNN, SBWQ, AIR = KNN_SERIES[0], WQ_SERIES[0], WQ_SERIES[1]
RATIO = CONTINUOUS_SERIES[1]


def _rises(name: str, *regions: dict[str, list[float]]) -> bool:
    return all(series[name][-1] > series[name][0] for series in regions)


def _at_least(name: str, a: dict, b: dict, slack: float) -> bool:
    return all(x >= y - slack for x, y in zip(a[name], b[name]))


# name -> (swept ParameterSet field, default values, query kind, axis
# label, claims).  ``figc`` sweeps no field: its values are
# standing-query counts and :func:`run_continuous_sharing` runs it.
_KNN, _WQ = QueryKind.KNN, QueryKind.WINDOW
FIGURES: dict[
    str, tuple[str | None, tuple[float, ...], QueryKind, str, tuple[Claim, ...]]
] = {
    "fig10": ("tx_range_m", (10, 50, 100, 150, 200), _KNN, "Transmission Range (m)", (
        ("SBNN rises with range in every region",
         lambda la, su, ri: _rises(SBNN, la, su, ri)),
        ('LA broadcast < 35 % at the longest range (paper: "less than 20 %")',
         lambda la, su, ri: la[AIR][-1] < 35.0),
        ("LA beats Riverside on SBNN at the longest range",
         lambda la, su, ri: la[SBNN][-1] > ri[SBNN][-1]),
        ("LA beats Riverside on broadcast at the longest range",
         lambda la, su, ri: la[AIR][-1] < ri[AIR][-1]),
        ("LA broadcast > 60 % at the shortest range",
         lambda la, su, ri: la[AIR][0] > 60.0),
    )),
    "fig11": ("cache_size", (6, 12, 18, 24, 30), _KNN, "Number of Cached Items", (
        ('SBNN rises with capacity in LA and Suburbia ("remarkable increase")',
         lambda la, su, ri: _rises(SBNN, la, su)),
        ("LA broadcast falls with capacity",
         lambda la, su, ri: la[AIR][-1] < la[AIR][0]),
        ("LA SBNN >= Riverside - 5 at every capacity",
         lambda la, su, ri: _at_least(SBNN, la, ri, 5.0)),
    )),
    "fig12": ("knn_k", (3, 6, 9, 12, 15), _KNN, "Number of k", (
        ("broadcast rises with k in every region",
         lambda la, su, ri: _rises(AIR, la, su, ri)),
        ("LA broadcast rises by > 8 points (paper: +28)",
         lambda la, su, ri: la[AIR][-1] - la[AIR][0] > 8.0),
        ('Riverside starts above LA on broadcast ("starting level was much higher")',
         lambda la, su, ri: ri[AIR][0] > la[AIR][0]),
    )),
    "fig13": ("tx_range_m", (10, 50, 100, 150, 200), _WQ, "Transmission Range (m)", (
        ('SBWQ rises with range in LA and Suburbia ("similar to the kNN case")',
         lambda la, su, ri: _rises(SBWQ, la, su)),
        ("LA SBWQ >= Riverside at the longest range",
         lambda la, su, ri: la[SBWQ][-1] >= ri[SBWQ][-1]),
        ("broadcast > 50 % at the shortest range in every region",
         lambda *regions: all(series[AIR][0] > 50.0 for series in regions)),
    )),
    "fig14": ("cache_size", (6, 12, 18, 24, 30), _WQ, "Number of Cached Items", (
        ('SBWQ rises with capacity in LA and Suburbia ("more window queries'
         ' can be fulfilled by peers")',
         lambda la, su, ri: _rises(SBWQ, la, su)),
    )),
    "fig15": ("window_percent", (1, 2, 3, 4, 5), _WQ, "Query Window Size (%)", (
        ('LA\'s best SBWQ share > 50 % ("over 50 % ... fulfilled through our'
         ' sharing mechanism")',
         lambda la, su, ri: max(la[SBWQ]) > 50.0),
        ("LA SBWQ >= Riverside - 5 at every window size",
         lambda la, su, ri: _at_least(SBWQ, la, ri, 5.0)),
    )),
    "figc": (None, (25, 50, 100), _KNN, "Standing Queries", (
        ("broadcast-access ratio (naive / monitored) > 1 at every standing"
         " count in every region",
         lambda *regions: all(min(series[RATIO]) > 1.0 for series in regions)),
        ("broadcast-access ratio rises with the standing count in every region",
         lambda la, su, ri: _rises(RATIO, la, su, ri)),
    )),
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
    vary, default, kind, x_label, _ = FIGURES[name]
    values = default if values is None else values
    kwargs.setdefault("x_label", x_label)
    if vary is None:
        return run_continuous_sharing(values, **kwargs)
    return run_sweep(vary, values, kind, **kwargs)


def check_claims(name: str, panels: Sequence[SweepSeries]) -> list[tuple[bool, str]]:
    """``(holds, text)`` per claim of ``name``'s row, judged on ``panels``.

    ``panels`` are the LA, Suburbia and Riverside panels of one run.
    """
    regions = [panel.series for panel in panels]
    return [(bool(holds(*regions)), text) for text, holds in FIGURES[name][4]]


# ----------------------------------------------------------------------
# Continuous workload: batched-sharing gains vs standing-query count
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContinuousPoint:
    """One (region, standing-query count) cell of the continuous sweep.

    Its :meth:`run` is the A/B pair on two identically seeded worlds;
    like a :class:`~repro.experiments.parallel.SweepPoint` it pickles
    into :func:`~repro.experiments.parallel.run_points`' pool.
    """

    params: ParameterSet
    standing: int
    seed: int
    ticks: int
    tick_interval: float
    warmup_queries: int
    sim_kwargs: dict

    def run(self) -> tuple[object, object, float]:
        """``(monitored stats, naive stats, wall-clock seconds)``."""
        start = time.perf_counter()
        stats = [
            Simulation(
                self.params,
                seed=self.seed,
                accept_approximate=False,
                overhear=False,
                **self.sim_kwargs,
            ).run_continuous(
                QueryKind.KNN,
                standing=self.standing,
                ticks=self.ticks,
                tick_interval=self.tick_interval,
                naive=naive,
                warmup_queries=self.warmup_queries,
            ).stats
            for naive in (False, True)
        ]
        return stats[0], stats[1], time.perf_counter() - start


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
    every standing query, so 400 "measured queries" ≈ 20 ticks).  The
    points run on :func:`~repro.experiments.parallel.run_points`'
    ``max_workers`` processes; each point's seed is fixed by its grid
    position, so the series do not depend on the worker count.
    """
    values = list(values)
    ticks = max(2, measure_queries // 20)
    points = [
        ContinuousPoint(
            params=scaled_parameters(base, area_scale=area_scale),
            standing=int(standing),
            seed=seed + 1000 * region_index + value_index,
            ticks=ticks,
            tick_interval=tick_interval,
            warmup_queries=warmup_queries,
            sim_kwargs=sim_kwargs,
        )
        for region_index, base in enumerate(regions)
        for value_index, standing in enumerate(values)
    ]
    results = iter(run_points(points, max_workers))
    panels: list[SweepSeries] = []
    for base in regions:
        series: dict[str, list[float]] = {name: [] for name in CONTINUOUS_SERIES}
        wall_clock: list[float] = []
        for _ in values:
            monitored, naive, wall = next(results)
            series[CONTINUOUS_SERIES[0]].append(
                100.0 * monitored.safe_hit_rate
            )
            series[CONTINUOUS_SERIES[1]].append(
                naive.tuning_packets / monitored.tuning_packets
                if monitored.tuning_packets
                else float("inf")
            )
            series[CONTINUOUS_SERIES[2]].append(monitored.mean_batch_width)
            wall_clock.append(wall)
        panels.append(
            SweepSeries(
                region=base.name,
                x_label=x_label,
                xs=[float(standing) for standing in values],
                series=series,
                wall_clock_s=wall_clock,
            )
        )
    return panels
