"""Contribution (d) — the probabilistic hit-ratio analysis.

Compares three estimates of P(kNN query resolved by peers) across the
Table 3 regions: the closed-form model, its Monte-Carlo geometry
check, and the full simulator.  The model is an approximation — what
must hold is the *ordering* (LA > Suburbia > Riverside) and the
qualitative agreement with the simulation.
"""

import numpy as np

from repro.analysis import knn_hit_ratio_for, model_inputs, simulate_knn_hit_ratio
from repro.experiments import Simulation, format_table, scaled_parameters
from repro.workloads import ALL_REGIONS, QueryKind

from _util import AREA_SCALE, MEASURE_QUERIES, WARMUP_QUERIES, emit


def run():
    rows = []
    estimates = {}
    for base in ALL_REGIONS:
        model = knn_hit_ratio_for(base)
        mc = simulate_knn_hit_ratio(
            model_inputs(base), np.random.default_rng(3), trials=1200
        )
        params = scaled_parameters(base, area_scale=AREA_SCALE)
        sim = Simulation(params, seed=3)
        collector = sim.run_workload(
            QueryKind.KNN, WARMUP_QUERIES, MEASURE_QUERIES
        )
        simulated = (
            collector.pct_verified + collector.pct_approximate
        ) / 100.0
        estimates[base.name] = (model, mc, simulated)
        rows.append(
            [
                base.name,
                f"{model:.2f}",
                f"{mc:.2f}",
                f"{simulated:.2f}",
            ]
        )
    table = format_table(
        ["region", "model", "Monte Carlo", "full simulation"],
        rows,
        title="kNN hit-ratio: analysis vs simulation",
    )
    return estimates, table


def test_hitratio_model_vs_simulation():
    estimates, table = run()
    emit("Hit-ratio analysis vs simulation", table)

    la = estimates["Los Angeles City"]
    sub = estimates["Synthetic Suburbia"]
    riv = estimates["Riverside County"]
    # Ordering must agree across all three estimators.
    for idx in range(3):
        assert la[idx] >= sub[idx] >= riv[idx]
    # The dense region resolves a clear majority by sharing in the
    # simulator; the sparse one does not reach LA's level.
    assert la[2] > 0.5
    assert riv[2] < la[2]
