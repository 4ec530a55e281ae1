"""Why broadcast at all? The on-demand model under load.

Section 1 of the paper rejects point-to-point on-demand access because
it "may not scale to very large systems".  This example loads an
on-demand spatial server with increasing request rates — from well
below its capacity of ``channels / service time`` to well above it —
and contrasts its latency against the load-independent broadcast
channel, and then shows what the paper's sharing buys on top of
broadcast.

Run:  python examples/ondemand_vs_broadcast.py
"""

import numpy as np

from repro.broadcast import OnAirClient
from repro.errors import ExperimentError
from repro.geometry import Point, Rect
from repro.ondemand import OnDemandServer, mmc_wait_time
from repro.workloads import generate_pois

BOUNDS = Rect(0, 0, 20, 20)
CHANNELS = 4
K = 5
HORIZON = 60.0  # seconds of arrivals per rate
LOADS = (0.1, 0.5, 0.9, 1.1, 1.5)  # arrival rate / capacity


def poisson_arrivals(rng, rate):
    """(time, query point, k) requests at ``rate`` per second."""
    t = float(rng.exponential(1.0 / rate))
    while t < HORIZON:
        yield t, Point(*rng.uniform(1, 19, 2)), K
        t += float(rng.exponential(1.0 / rate))


def main() -> None:
    rng = np.random.default_rng(9)
    pois = generate_pois(BOUNDS, 800, rng)
    client = OnAirClient.build(pois, BOUNDS, hilbert_order=6)
    server = OnDemandServer(pois, channels=CHANNELS)

    broadcast = np.mean(
        [
            client.knn(Point(*rng.uniform(1, 19, 2)), K, t_query=float(t))
            .cost.access_latency
            for t in rng.uniform(0, 100, 30)
        ]
    )
    service = server.service_time(K)
    capacity = CHANNELS / service
    print(f"broadcast latency (any load): {broadcast:.2f} s")
    print(f"on-demand service time (unloaded): {service:.3f} s")
    print(f"on-demand capacity: {CHANNELS} channels / {service:.3f} s"
          f" = {capacity:.0f} requests/s\n")

    print(f"rate [1/s] | on-demand mean latency [s] ({CHANNELS} uplink channels)")
    measured = {}
    for load in LOADS:
        rate = load * capacity
        answers = server.serve(poisson_arrivals(rng, rate))
        measured[load] = float(np.mean([a.latency for a in answers]))
        try:
            model = f"{mmc_wait_time(rate, 1.0 / service, CHANNELS) + service:.2f}"
            marker = ""
        except ExperimentError:  # unstable: no stationary wait exists
            model, marker = "unstable", "  <-- past saturation"
        print(f"{rate:10.0f} | measured {measured[load]:7.2f}   M/M/c {model}{marker}")

    scales = measured[LOADS[0]] < broadcast < measured[LOADS[-1]]
    print(f"\non-demand beats broadcast below capacity and loses above it: {scales}")
    print("The broadcast channel serves any population at the same"
          f" ~{broadcast:.1f} s — and the paper's P2P sharing removes even"
          " that wait for the majority of queries (see the Figure 10"
          " benchmark).")
    if not scales:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
