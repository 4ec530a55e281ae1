"""Replay the (1, m) broadcast channel packet by packet.

Replays the base station's channel one packet at a time, lets a client
execute the on-air access protocol of Section 2.1 — initial probe,
index search, data retrieval — against the replayed packets, and
confirms the observed access latency matches the closed-form schedule
arithmetic the experiment harness uses.

Run:  python examples/broadcast_replay.py
"""

import numpy as np

from repro.experiments import BaseStation
from repro.geometry import Point, Rect
from repro.workloads import generate_pois

BOUNDS = Rect(0, 0, 20, 20)


def main() -> None:
    rng = np.random.default_rng(11)
    pois = generate_pois(BOUNDS, 200, rng)
    station = BaseStation(pois, BOUNDS, m=4, packet_time=0.2)
    schedule = station.schedule
    print(f"data file: {schedule.data_bucket_count} buckets,"
          f" index: {schedule.index_packet_count} packets x {schedule.m}"
          f" copies per cycle")
    print(f"cycle: {schedule.cycle_packets} packets"
          f" = {schedule.cycle_duration:.1f} s\n")

    query = Point(7.5, 12.5)
    t_query = 3.33
    plan = station.client.knn(query, 5, t_query=t_query)
    print(f"on-air 5-NN at t={t_query}s needs buckets"
          f" {list(plan.plan.bucket_ids)}")
    print(f"closed-form: latency {plan.cost.access_latency:.2f} s,"
          f" tuning {plan.cost.tuning_packets} packets")

    # Replay the channel and observe the same retrieval packet by packet.
    # The client may only use data packets after its index read.
    index_ready = (
        schedule.next_index_start(t_query + schedule.packet_time)
        + plan.plan.index_read_packets * schedule.packet_time
    )
    needed = set(plan.plan.bucket_ids)
    observed = {}
    for packet in station.replay(cycles=3):
        if (
            packet.kind == "data"
            and packet.ref in needed
            and packet.time - schedule.packet_time >= index_ready - 1e-9
        ):
            needed.remove(packet.ref)
            observed[packet.ref] = packet.time
    assert not needed, f"buckets {sorted(needed)} never seen in 3 cycles"

    finish = max(observed.values())
    print(f"replayed:    last needed packet fully received at"
          f" t={finish:.2f} s -> latency {finish - t_query:.2f} s")
    match = abs((finish - t_query) - plan.cost.access_latency) < 1e-6
    print(f"replay agrees with schedule arithmetic: {match}")


if __name__ == "__main__":
    main()
