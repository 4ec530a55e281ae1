"""A convenience façade: one object exposing the on-air protocol.

:class:`OnAirClient` bundles a :class:`BroadcastServer` and a
:class:`BroadcastSchedule` and exposes the two query types plus the
raw access protocol metrics.  The experiment harness holds one client
per simulated world.
"""

from __future__ import annotations

from typing import Sequence

from ..geometry import Point, Rect
from ..model import POI
from .onair_knn import OnAirKnnResult, onair_knn
from .onair_window import OnAirWindowResult, onair_window
from .schedule import BroadcastSchedule
from .server import BroadcastServer


class OnAirClient:
    """Client-side view of the broadcast channel."""

    def __init__(self, server: BroadcastServer, schedule: BroadcastSchedule):
        if schedule.data_bucket_count != server.bucket_count:
            raise ValueError(
                "schedule bucket count does not match the server's data file"
            )
        self.server = server
        self.schedule = schedule
        # Optional unreliable-broadcast fault model (repro.faults.
        # ChannelModel); None means the perfect channel of the paper.
        self.channel = None

    @classmethod
    def build(
        cls,
        pois: Sequence[POI],
        bounds: Rect,
        hilbert_order: int = 8,
        bucket_capacity: int = 8,
        entries_per_index_packet: int = 64,
        m: int = 4,
        packet_time: float = 0.1,
    ) -> "OnAirClient":
        """Construct server, schedule, and client in one call."""
        server = BroadcastServer(
            pois,
            bounds,
            hilbert_order=hilbert_order,
            bucket_capacity=bucket_capacity,
            entries_per_index_packet=entries_per_index_packet,
        )
        schedule = BroadcastSchedule(
            data_bucket_count=server.bucket_count,
            index_packet_count=server.index.packet_count,
            m=m,
            packet_time=packet_time,
        )
        return cls(server, schedule)

    def knn(
        self,
        query: Point,
        k: int,
        t_query: float = 0.0,
        upper_bound: float | None = None,
        lower_bound: float | None = None,
        known_pois: tuple[POI, ...] = (),
        tracer=None,
    ) -> OnAirKnnResult:
        """On-air kNN (optionally with sharing-derived search bounds).

        ``tracer`` (a :class:`repro.obs.Tracer`) gets the scan's spans.
        """
        return onair_knn(
            self.server,
            self.schedule,
            query,
            k,
            t_query,
            upper_bound=upper_bound,
            lower_bound=lower_bound,
            known_pois=known_pois,
            channel=self.channel,
            tracer=tracer,
        )

    def window(
        self, windows: Sequence[Rect], t_query: float = 0.0, tracer=None
    ) -> OnAirWindowResult:
        """On-air window query over one or more window fragments."""
        return onair_window(
            self.server,
            self.schedule,
            windows,
            t_query,
            channel=self.channel,
            tracer=tracer,
        )
