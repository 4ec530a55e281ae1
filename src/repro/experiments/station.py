"""The base-station module.

Owns the broadcast server and schedule, and can *replay* the channel
packet by packet — the experiment harness prices retrievals with the
closed-form schedule arithmetic instead, and the replay exists to
cross-validate that arithmetic and to drive the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..broadcast import OnAirClient
from ..geometry import Rect
from ..model import POI


@dataclass(frozen=True, slots=True)
class PacketEvent:
    """One packet observed on the channel during a replay."""

    time: float
    kind: str  # "index" or "data"
    ref: int  # index-copy number or bucket id


class BaseStation:
    """The wireless information server of Figure 3."""

    def __init__(
        self,
        pois: Sequence[POI],
        bounds: Rect,
        hilbert_order: int = 6,
        bucket_capacity: int = 4,
        entries_per_index_packet: int = 64,
        m: int = 4,
        packet_time: float = 0.1,
    ):
        self.client = OnAirClient.build(
            pois,
            bounds,
            hilbert_order=hilbert_order,
            bucket_capacity=bucket_capacity,
            entries_per_index_packet=entries_per_index_packet,
            m=m,
            packet_time=packet_time,
        )
        self.server = self.client.server
        self.schedule = self.client.schedule

    # ------------------------------------------------------------------
    def cycle_slots(self) -> list[tuple[str, int]]:
        """The per-cycle slot sequence: index copies and data buckets."""
        slots: list[tuple[str, int]] = []
        by_offset = {
            self.schedule.bucket_offset(b): b
            for b in range(self.schedule.data_bucket_count)
        }
        index_copy = 0
        offset = 0
        while offset < self.schedule.cycle_packets:
            if offset in by_offset:
                slots.append(("data", by_offset[offset]))
                offset += 1
            else:
                for _ in range(self.schedule.index_packet_count):
                    slots.append(("index", index_copy))
                    offset += 1
                index_copy += 1
        return slots

    def replay(self, cycles: int = 1) -> list[PacketEvent]:
        """The packets of ``cycles`` full cycles, in channel order.

        Each packet occupies ``packet_time``; its event carries the
        packet's *end* (a client has the packet once it has fully
        arrived), accumulated slot by slot rather than multiplied out,
        so the replay checks the schedule's offsets instead of
        restating them.
        """
        slots = self.cycle_slots()
        events: list[PacketEvent] = []
        now = 0.0
        for _ in range(cycles):
            for kind, ref in slots:
                now += self.schedule.packet_time
                events.append(PacketEvent(now, kind, ref))
        return events
