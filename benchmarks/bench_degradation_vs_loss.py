"""Graceful degradation under an unreliable wireless medium.

Sweeps the per-link loss rate from 0 % to 30 % (churn scales along at
half the loss rate, and broadcast buckets are lost at the same rate)
over a Synthetic-Suburbia world and reports, per point, the sharing
hit ratio, the mean access latency, and the fault-layer counters
(drops, retries, deadline misses, index-segment recovery re-tunes).

Every point runs the *same* simulation seed, so the worlds, query
streams, and caches are identical and the only difference is the
fault stream — the cleanest way to see the degradation curve.  The
expected shape: the hit ratio falls monotonically with the loss rate
(fewer peer responses survive), while latency rises (retry backoff
plus broadcast re-tunes).
"""

from __future__ import annotations

from repro.experiments import Simulation, scaled_parameters
from repro.faults import FaultConfig
from repro.workloads import SYNTHETIC_SUBURBIA, QueryKind

from _util import AREA_SCALE, MEASURE_QUERIES, WARMUP_QUERIES, emit

LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)
SEED = 42
FAULT_SEED = 7
RETRIES = 2
# ~1.8 % of responses (exponential delay, mean 0.02 s) miss this
# deadline, so the miss counter is exercised at every lossy point.
PEER_TIMEOUT = 0.08
# The hit ratio is a percentage over MEASURE_QUERIES (400) samples: a
# single query flipping resolution
# moves it by 0.25 pp, so adjacent sweep points may wobble by a flip
# or two even though the overall trend is cleanly downward.
NOISE_TOL = 0.5


def run_point(loss_rate: float) -> dict:
    """One sweep point: a full simulation at the given loss rate."""
    params = scaled_parameters(SYNTHETIC_SUBURBIA, area_scale=AREA_SCALE)
    fault_config = (
        FaultConfig(
            loss_rate=loss_rate,
            churn_rate=loss_rate / 2.0,
            peer_timeout=PEER_TIMEOUT,
            retries=RETRIES,
            seed=FAULT_SEED,
        )
        if loss_rate > 0.0
        else None
    )
    sim = Simulation(params, seed=SEED, fault_config=fault_config)
    collector = sim.run_workload(QueryKind.KNN, WARMUP_QUERIES, MEASURE_QUERIES)
    return {
        "loss_rate": loss_rate,
        "mean_latency": collector.mean_latency(),
        **collector.fault_summary(),
    }


def format_rows(rows: list[dict]) -> str:
    header = (
        f"{'loss':>5} {'hit %':>7} {'latency':>8} {'drops':>6} "
        f"{'retries':>7} {'misses':>6} {'retunes':>7} {'lost':>5}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['loss_rate']:>5.2f} {row['hit_ratio']:>7.2f}"
            f" {row['mean_latency']:>8.3f} {row['drops']:>6.0f}"
            f" {row['retries']:>7.0f} {row['deadline_misses']:>6.0f}"
            f" {row['recovery_retunes']:>7.0f} {row['buckets_lost']:>5.0f}"
        )
    return "\n".join(lines)


def test_degradation_vs_loss():
    rows = [run_point(rate) for rate in LOSS_RATES]
    emit("Degradation vs loss rate", format_rows(rows))

    baseline = rows[0]
    assert baseline["loss_rate"] == 0.0
    for key in ("drops", "retries", "recovery_retunes", "buckets_lost"):
        assert baseline[key] == 0, f"perfect channel reported {key}"
    # Faults fire and are accounted once the loss rate is substantial.
    lossy = [row for row in rows if row["loss_rate"] >= 0.2]
    for row in lossy:
        assert row["drops"] > 0 and row["retries"] > 0, row
        assert row["recovery_retunes"] > 0, row
    # Graceful degradation: the hit ratio decays monotonically with
    # the loss rate (same world and query stream at every point),
    # modulo single-query sampling noise between adjacent points.
    ratios = [row["hit_ratio"] for row in rows]
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a + NOISE_TOL, f"hit ratio rose under higher loss: {ratios}"
    for ratio in ratios[1:]:
        assert ratio <= ratios[0] + NOISE_TOL, ratios
    assert ratios[-1] < ratios[0], "no measurable degradation at 30% loss"
    # Latency rises under loss: retry backoff plus recovery re-tunes.
    assert rows[-1]["mean_latency"] > baseline["mean_latency"]
