"""Per-client session state behind the serving layer.

One :class:`ClientSession` per live connection: who the client is,
how many of its requests are in flight (the per-client admission cap),
and which standing queries it owns.  The session also owns the
connection's span tracer/exporter when per-connection tracing is on.
"""

from __future__ import annotations

__all__ = ["ClientSession"]


class ClientSession:
    """State for one connected mobile client."""

    __slots__ = (
        "session_id",
        "client_id",
        "writer",
        "host_id",
        "inflight",
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
        self.inflight = 0
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientSession(#{self.session_id} {self.client_id!r}"
            f" inflight={self.inflight})"
        )
