"""Road-network mobility: a vehicle driving shortest paths on a
street grid (the paper maps its random-waypoint trajectories onto the
Southern-California road network; we use a jittered lattice).

The trip is sampled once a minute; at each sample the vehicle asks for
its nearest gas station against a static POI field, using only its own
accumulating cache plus the broadcast channel — a miniature single-
vehicle version of the big simulation, useful for understanding the
caching dynamics in isolation.

Run:  python examples/roadnet_trip.py
"""

import numpy as np

from repro.broadcast import OnAirClient
from repro.cache import POICache
from repro.core import Resolution, sbnn
from repro.geometry import Rect
from repro.mobility import GridRoadNetwork, RoadTrajectory
from repro.p2p import ShareResponse
from repro.workloads import generate_pois

BOUNDS = Rect(0, 0, 20, 20)
MILES_PER_SECOND_40MPH = 40.0 / 3600.0


def main() -> None:
    rng = np.random.default_rng(5)
    network = GridRoadNetwork(BOUNDS, spacing=2.0, rng=rng)
    print(f"road network: {network.node_count} intersections")
    trip = RoadTrajectory(
        network,
        np.random.default_rng(6),
        speed_range=(MILES_PER_SECOND_40MPH, MILES_PER_SECOND_40MPH),
        pause_range=(0.0, 0.0),
    )

    pois = generate_pois(BOUNDS, 140, rng)
    client = OnAirClient.build(pois, BOUNDS, hilbert_order=6)
    cache = POICache(capacity=30, max_regions=8)
    density = len(pois) / BOUNDS.area

    own_hits = 0
    channel_trips = 0
    for minute in range(0, 30):
        t = minute * 60.0
        position = trip.position_at(t)
        heading = trip.heading_at(t)
        regions, cached = cache.share()
        responses = (
            [ShareResponse(0, tuple(regions), tuple(cached))] if regions else []
        )
        outcome = sbnn(position, responses, k=1, poi_density=density)
        if outcome.resolution is not Resolution.BROADCAST:
            own_hits += 1
            source = "own cache"
            latency = 0.0
        else:
            channel_trips += 1
            onair = client.knn(
                position,
                1,
                t_query=t,
                upper_bound=outcome.bounds.upper,
                lower_bound=outcome.bounds.lower,
                known_pois=outcome.verified_pois,
            )
            latency = onair.cost.access_latency
            source = "broadcast"
            covered = onair.plan.search_mbr
            inside = [p for p in onair.downloaded if covered.contains_point(p.location)]
            cache.insert_result(
                [(covered, inside)],
                t,
                position,
                heading,
            )
        print(f"t={minute:2d} min ({position.x:5.1f}, {position.y:5.1f}):"
              f" nearest via {source:9s} latency {latency:5.2f} s")

    print(f"\n{own_hits}/30 answers came straight from the vehicle's own"
          f" accumulated cache; {channel_trips} needed the channel.")
    cache.check_soundness(pois)
    print("cache soundness invariant verified.")


if __name__ == "__main__":
    main()
