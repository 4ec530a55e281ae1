"""Per-client session state behind the serving layer.

One :class:`ClientSession` per live connection: who the client is,
where it last reported itself (UPDATE frames), how many of its
requests are in flight (the per-client admission cap), and which
standing queries it owns.  The session also owns the connection's span
tracer/exporter when per-connection tracing is on.
"""

from __future__ import annotations

from typing import Any

from ..geometry import Point

__all__ = ["ClientSession"]


class ClientSession:
    """State for one connected mobile client."""

    __slots__ = (
        "session_id",
        "client_id",
        "writer",
        "host_id",
        "location",
        "location_time",
        "inflight",
        "answered",
        "shed",
        "errors",
        "updates",
        "standing_ids",
        "last_active",
        "closed",
        "tracer",
        "exporter",
        "encoding",
    )

    def __init__(
        self,
        session_id: int,
        client_id: str,
        writer,
        host_id: int,
        now: float,
        tracer=None,
        exporter=None,
        encoding: str = "json",
    ):
        self.session_id = session_id
        self.client_id = client_id
        self.writer = writer
        # Negotiated at HELLO; every post-HELLO frame both ways uses it.
        self.encoding = encoding
        # The simulated host this session fronts when a QUERY carries
        # no explicit host_id (assigned round-robin at HELLO).
        self.host_id = host_id
        self.location: Point | None = None
        self.location_time: float | None = None
        self.inflight = 0
        self.answered = 0
        self.shed = 0
        self.errors = 0
        self.updates = 0
        self.standing_ids: set[int] = set()
        self.last_active = now
        self.closed = False
        self.tracer = tracer
        self.exporter = exporter

    # ------------------------------------------------------------------
    def touch(self, now: float) -> None:
        self.last_active = now

    def idle_for(self, now: float) -> float:
        return now - self.last_active

    def report_location(self, x: float, y: float, when: float | None) -> None:
        self.location = Point(x, y)
        self.location_time = when
        self.updates += 1

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-ready operator view of the session."""
        return {
            "session": self.session_id,
            "client_id": self.client_id,
            "host_id": self.host_id,
            "inflight": self.inflight,
            "answered": self.answered,
            "shed": self.shed,
            "errors": self.errors,
            "updates": self.updates,
            "standing": sorted(self.standing_ids),
            "location": (
                [self.location.x, self.location.y]
                if self.location is not None
                else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientSession(#{self.session_id} {self.client_id!r}"
            f" inflight={self.inflight} answered={self.answered})"
        )
