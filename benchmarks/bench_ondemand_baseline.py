"""Section 1 baseline — on-demand vs broadcast scalability.

The paper dismisses the point-to-point model because "it may not scale
to very large systems".  This bench measures that claim: the same kNN
workload is priced against (a) the broadcast channel (load-independent
latency) and (b) an on-demand server with c uplink channels, at arrival
rates chosen from its measured capacity ``c * mu`` — below it, near it
and beyond it — both by the FCFS queue itself and by the M/M/c closed
form.
"""

import numpy as np

from repro.broadcast import OnAirClient
from repro.errors import ExperimentError
from repro.experiments import format_table
from repro.geometry import Point, Rect
from repro.ondemand import OnDemandServer, mmc_wait_time
from repro.workloads import generate_pois

from _util import emit

BOUNDS = Rect(0, 0, 20, 20)
CHANNELS = 8
K = 5
HORIZON = 120.0  # seconds of arrivals per rate
LOADS = (0.5, 0.9, 1.0, 1.5)  # arrival rate / capacity


def poisson_arrivals(rng, rate):
    """(time, query point, k) requests at ``rate`` per second."""
    t = float(rng.exponential(1.0 / rate))
    while t < HORIZON:
        yield t, Point(*rng.uniform(1, 19, 2)), K
        t += float(rng.exponential(1.0 / rate))


def run():
    rng = np.random.default_rng(6)
    pois = generate_pois(BOUNDS, 1000, rng)
    client = OnAirClient.build(pois, BOUNDS, hilbert_order=6, bucket_capacity=8)
    server = OnDemandServer(pois, channels=CHANNELS)

    # Broadcast latency: independent of load by construction.
    broadcast_lat = float(
        np.mean(
            [
                client.knn(
                    Point(*rng.uniform(1, 19, 2)), K, t_query=float(t)
                ).cost.access_latency
                for t in rng.uniform(0, 200, 40)
            ]
        )
    )

    # Service is deterministic for a fixed k, so capacity is exact.
    service = server.service_time(K)
    service_rate = 1.0 / service
    capacity = CHANNELS * service_rate

    rows = []
    measured = {}
    for load in LOADS:
        rate = load * capacity
        answers = server.serve(poisson_arrivals(rng, rate))
        queue_latency = float(np.mean([a.latency for a in answers]))
        try:
            model_latency = mmc_wait_time(rate, service_rate, CHANNELS) + service
        except ExperimentError:  # unstable: no stationary wait exists
            model_latency = float("inf")
        measured[load] = (queue_latency, model_latency)
        rows.append(
            [
                round(rate, 1),
                f"{load:.2f}",
                len(answers),
                f"{queue_latency:.3f}",
                f"{model_latency:.3f}",
                f"{broadcast_lat:.2f}",
            ]
        )
    table = format_table(
        [
            "arrival rate [1/s]",
            "rate / capacity",
            "requests",
            "on-demand latency (FCFS queue) [s]",
            "on-demand latency (M/M/c) [s]",
            "broadcast latency [s]",
        ],
        rows,
        title=(
            f"On-demand ({CHANNELS} channels, capacity {capacity:.0f} req/s)"
            " vs broadcast scalability"
        ),
    )
    return measured, broadcast_lat, table


def test_ondemand_does_not_scale(benchmark):
    measured, broadcast_lat, table = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit("On-demand vs broadcast scalability", table)

    queue = {load: latency for load, (latency, _) in measured.items()}
    below = [load for load in LOADS if load < 1.0]
    beyond = [load for load in LOADS if load >= 1.5]
    assert below and beyond
    # Below capacity a request is served almost as fast as unloaded,
    # far quicker than a broadcast cycle, and the M/M/c form (random
    # service) bounds the deterministic-service queue from above.
    for load in below:
        assert queue[load] < broadcast_lat
        assert queue[load] <= measured[load][1] + 1e-9
    # On-demand latency grows with load; broadcast's is flat by design.
    latencies = [queue[load] for load in LOADS]
    assert latencies == sorted(latencies)
    # Past saturation (rate >= 1.5 c mu) the queue blows up, far beyond
    # the load-independent broadcast latency.
    for load in beyond:
        assert measured[load][1] == float("inf")
        assert queue[load] > 2 * broadcast_lat
