"""Differential referee for the continuous-monitoring engine.

The engine's whole claim is that its two cost levers — safe regions
and batched scans — change *nothing* about the answers.  This module
makes that falsifiable: one campaign drives two identically seeded
worlds, one with both levers on (monitored) and one with both off
(the per-tick recompute-from-scratch baseline), tick by tick, and
referees every standing query's answer on every tick three ways:

* monitored answer == naive answer (bit-identical id sequences);
* both == the exhaustive oracle over the full POI database;
* periodically, the :func:`repro.check.metamorphic.
  safe_region_contract` relations on live safe regions drawn from the
  monitored fleet's caches.

It also reports the broadcast-access ratio (naive tuning packets over
monitored tuning packets) — the quantity the incremental scheme
exists to improve — so ``repro.cli check`` fails loudly if sharing
ever stops paying for itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from ..experiments import Simulation
from ..geometry import Point
from ..workloads import QueryKind
from .differential import PARAM_SETS, _build_world
from .metamorphic import safe_region_contract
from .oracles import oracle_knn_ids, oracle_window_ids


@dataclass(slots=True)
class ContinuousCampaignReport:
    """Outcome of one continuous A/B campaign leg."""

    params_name: str
    seed: int
    area_scale: float
    standing: int
    ticks: int
    evaluations_checked: int = 0
    contract_checks: int = 0
    safe_hits: int = 0
    monitored_tuning: int = 0
    naive_tuning: int = 0
    mean_batch_width: float = 0.0
    mismatches: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def broadcast_access_ratio(self) -> float:
        """Naive tuning packets per monitored tuning packet (>1 = win)."""
        if self.monitored_tuning <= 0:
            return float("inf") if self.naive_tuning > 0 else 1.0
        return self.naive_tuning / self.monitored_tuning


def _standing_mix(params, seed: int, count: int):
    """Half kNN / half window standing queries with disjoint ids.

    Drawn from dedicated generators (as ``run_continuous`` does) so
    the two sims of the A/B get byte-identical templates.
    """
    from ..continuous import standing_queries

    n_knn = max(1, count // 2)
    n_win = max(1, count - n_knn)
    knn = standing_queries(
        params, QueryKind.KNN, np.random.default_rng((seed, 0xC017, 1)), n_knn
    )
    win = standing_queries(
        params,
        QueryKind.WINDOW,
        np.random.default_rng((seed, 0xC017, 2)),
        n_win,
    )
    for offset, query in enumerate(win):
        query.query_id = n_knn + offset
    return knn + win


def run_continuous_campaign(
    params_name: str,
    seed: int = 0,
    standing: int = 40,
    ticks: int = 12,
    tick_interval: float = 5.0,
    area_scale: float = 0.02,
    warmup_queries: int = 60,
    contract_every: int = 4,
    max_mismatches: int = 5,
) -> ContinuousCampaignReport:
    """Referee monitored vs naive vs oracle over a shared tick stream."""
    from ..continuous import ContinuousMonitor

    if params_name not in PARAM_SETS:
        raise ReproError(
            f"unknown parameter set {params_name!r};"
            f" choose from {sorted(PARAM_SETS)}"
        )
    if standing < 2 or ticks < 1:
        raise ReproError("continuous campaign needs standing >= 2, ticks >= 1")
    started = time.perf_counter()
    pois, params = _build_world(params_name, seed, area_scale)

    def build() -> Simulation:
        return Simulation(
            params,
            seed=seed,
            pois=list(pois),
            accept_approximate=False,
            overhear=False,
        )

    sim_mon = build()
    sim_naive = build()
    if warmup_queries:
        sim_mon.run_workload(QueryKind.KNN, 0, warmup_queries)
        sim_naive.run_workload(QueryKind.KNN, 0, warmup_queries)
    mon = ContinuousMonitor(
        sim_mon,
        _standing_mix(params, seed, standing),
    )
    naive = ContinuousMonitor(
        sim_naive,
        _standing_mix(params, seed, standing),
        naive=True,
    )
    report = ContinuousCampaignReport(
        params_name=params_name,
        seed=seed,
        area_scale=area_scale,
        standing=len(mon.queries),
        ticks=ticks,
    )
    by_id = {q.query_id: q for q in mon.queries}
    start = sim_mon.env.now
    for i in range(ticks):
        t = start + (i + 1) * tick_interval
        answers_mon = mon.tick(t)
        answers_naive = naive.tick(t)
        for query_id, query in by_id.items():
            report.evaluations_checked += 1
            ids_mon = tuple(p.poi_id for p in answers_mon[query_id])
            ids_naive = tuple(p.poi_id for p in answers_naive[query_id])
            position = sim_mon.host_position(query.host_id)
            if query.kind is QueryKind.KNN:
                oracle = tuple(
                    oracle_knn_ids(sim_mon.pois, position, query.template.k)
                )
                got_mon, got_naive = ids_mon, ids_naive
            else:
                window = query.template.window_for(
                    position, sim_mon.params.bounds
                )
                oracle = tuple(oracle_window_ids(sim_mon.pois, window))
                got_mon = tuple(sorted(ids_mon))
                got_naive = tuple(sorted(ids_naive))
            if got_mon != got_naive:
                report.mismatches.append(
                    f"tick {i} query {query_id} ({query.kind.value}):"
                    f" monitored {got_mon} != naive {got_naive}"
                )
            if got_mon != oracle:
                report.mismatches.append(
                    f"tick {i} query {query_id} ({query.kind.value}):"
                    f" monitored {got_mon} != oracle {oracle}"
                )
            if got_naive != oracle:
                report.mismatches.append(
                    f"tick {i} query {query_id} ({query.kind.value}):"
                    f" naive {got_naive} != oracle {oracle}"
                )
            if len(report.mismatches) >= max_mismatches:
                break
        if len(report.mismatches) >= max_mismatches:
            break
        if contract_every and (i + 1) % contract_every == 0:
            for query in mon.queries:
                if query.safe is None:
                    continue
                report.contract_checks += 1
                anchor = query.safe.anchor
                position = sim_mon.host_position(query.host_id)
                probes = [
                    anchor,
                    position,
                    Point(
                        (anchor.x + position.x) / 2.0,
                        (anchor.y + position.y) / 2.0,
                    ),
                ]
                k = query.template.k if query.kind is QueryKind.KNN else 2
                violations = safe_region_contract(
                    sim_mon.hosts[query.host_id].cache,
                    sim_mon.pois,
                    anchor,
                    k,
                    probes,
                    window_side=0.25 * query.safe.r_known,
                )
                for violation in violations:
                    report.mismatches.append(
                        f"tick {i} query {query.query_id}: {violation}"
                    )
    report.safe_hits = mon.stats.safe_hits
    report.monitored_tuning = mon.stats.tuning_packets
    report.naive_tuning = naive.stats.tuning_packets
    report.mean_batch_width = mon.stats.mean_batch_width
    report.elapsed_s = time.perf_counter() - started
    return report
