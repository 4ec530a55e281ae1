"""Ablation — the cache replacement policy of Section 4.1.

The paper replaces cache entries "based on the current moving
direction and the data distance" (after Ren & Dunham).  This ablation
runs the same LA-density kNN workload under the paper's policy, LRU,
and FIFO, and reports the resolution mix.  The direction+distance
policy should be at least competitive (it keeps data the host is
driving toward).
"""

from repro.cache import DirectionDistancePolicy, FIFOPolicy, LRUPolicy
from repro.experiments import Simulation, format_table, scaled_parameters
from repro.workloads import LA_CITY, QueryKind

from _util import AREA_SCALE, MEASURE_QUERIES, WARMUP_QUERIES, emit

POLICIES = {
    "direction+distance": lambda: DirectionDistancePolicy(),
    "LRU": lambda: LRUPolicy(),
    "FIFO": lambda: FIFOPolicy(),
}


def run():
    # Small caches make the replacement policy actually matter.
    params = scaled_parameters(LA_CITY, area_scale=AREA_SCALE, cache_size=10)
    rows = []
    shares = {}
    for name, factory in POLICIES.items():
        sim = Simulation(params, seed=4, policy_factory=factory)
        collector = sim.run_workload(
            QueryKind.KNN, WARMUP_QUERIES, MEASURE_QUERIES
        )
        resolved = collector.pct_verified + collector.pct_approximate
        shares[name] = resolved
        rows.append(
            [
                name,
                round(collector.pct_verified, 1),
                round(collector.pct_approximate, 1),
                round(collector.pct_broadcast, 1),
            ]
        )
    table = format_table(
        ["policy", "SBNN %", "approx %", "broadcast %"],
        rows,
        title="Cache replacement policy ablation (LA, CSize=10)",
    )
    return shares, table


def test_replacement_policy_ablation():
    shares, table = run()
    emit("Cache policy ablation", table)

    # The paper's policy must be competitive with the generic ones
    # (within noise), and every policy must resolve a non-trivial
    # share — the mechanism itself does the heavy lifting.
    best = max(shares.values())
    assert shares["direction+distance"] >= best - 12.0
    for name, value in shares.items():
        assert value > 10.0, name
