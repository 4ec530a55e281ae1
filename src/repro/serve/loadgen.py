"""Seeded load generation against a running base-station server.

Two pieces:

* :class:`ServeClient` — one framed connection with a background
  reader: requests carry client-assigned ids, replies resolve futures,
  so a client can keep many queries in flight (up to the server's
  advertised cap) or run strictly lockstep;
* :func:`run_load` — replays a :func:`repro.workloads.seeded_events`
  Table 3 workload over ``connections`` clients, optionally paced to a
  target QPS, and folds the replies into a :class:`LoadReport` —
  achieved QPS, client-side latency percentiles, answered/shed/error
  counts — the document ``repro.cli load`` prints.

The workload is materialised *before* any traffic is sent, from the
dedicated ``seeded_events`` RNG stream: the same ``(params, kind,
seed, count)`` tuple always produces the identical event list, which
is what lets the differential test replay it in-process and demand
bit-identical answers (in ``lockstep`` mode arrival order over the
wire equals list order, so the server's world evolves exactly as a
local ``Simulation.execute_query`` loop would).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from ..errors import ServeError
from ..workloads import ParameterSet, QueryEvent, QueryKind, seeded_events
from .protocol import (
    ENCODING_JSON,
    ENCODINGS,
    MAX_FRAME,
    MSG_ANSWER,
    MSG_HELLO,
    MSG_QUERY,
    MSG_SHED,
    FrameError,
    encode_frame,
    read_frame,
)

__all__ = ["LoadReport", "ServeClient", "run_load"]


class ServeClient:
    """One framed client connection with pipelined request/reply."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str = "client",
        max_frame: int = MAX_FRAME,
        respect_cap: bool = True,
        encoding: str = ENCODING_JSON,
    ):
        if encoding not in ENCODINGS:
            raise ServeError(f"unknown wire encoding {encoding!r}")
        self.host = host
        self.port = port
        self.client_id = client_id
        self.max_frame = max_frame
        self.encoding = encoding
        # A well-behaved client stays under the server's advertised
        # per-client in-flight cap (HELLO `max_inflight`) and is never
        # shed for "client-cap"; overload experiments turn this off.
        self.respect_cap = respect_cap
        self._cap: asyncio.Semaphore | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.hello: dict[str, Any] | None = None
        self.pushes: list[dict[str, Any]] = []
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    async def connect(self) -> dict[str, Any]:
        """Open the connection and complete the HELLO handshake.

        The HELLO exchange is always JSON; a binary client advertises
        ``"encoding": "binary"`` in it (a JSON client sends no key at
        all, keeping the legacy handshake bytes unchanged) and requires
        the server's echo before switching the stream over.
        """
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        hello: dict[str, Any] = {
            "type": MSG_HELLO, "client_id": self.client_id
        }
        if self.encoding != ENCODING_JSON:
            hello["encoding"] = self.encoding
        self.writer.write(encode_frame(hello))
        await self.writer.drain()
        reply = await read_frame(self.reader, self.max_frame)
        if reply is None or reply["type"] != MSG_HELLO:
            raise ServeError(f"handshake failed: {reply!r}")
        if self.encoding != ENCODING_JSON and (
            reply.get("encoding") != self.encoding
        ):
            raise ServeError(
                f"server did not accept {self.encoding!r} encoding:"
                f" {reply.get('encoding')!r}"
            )
        self.hello = reply
        if self.respect_cap and isinstance(reply.get("max_inflight"), int):
            self._cap = asyncio.Semaphore(reply["max_inflight"])
        self._reader_task = asyncio.create_task(
            self._read_loop(), name=f"reader-{self.client_id}"
        )
        return reply

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await read_frame(
                    self.reader, self.max_frame, self.encoding
                )
                if message is None:
                    break
                request_id = message.get("id")
                future = (
                    self._pending.pop(request_id, None)
                    if request_id is not None
                    else None
                )
                if future is not None and not future.done():
                    future.set_result(message)
                else:
                    # Standing-query pushes and unsolicited errors.
                    self.pushes.append(message)
        except (FrameError, ConnectionError, OSError) as exc:
            self._fail_pending(exc)
        else:
            self._fail_pending(ServeError("connection closed by server"))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    # ------------------------------------------------------------------
    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one id-tagged request and await its reply."""
        if self.writer is None:
            raise ServeError("client is not connected")
        if self._cap is not None:
            async with self._cap:
                return await self._request(message)
        return await self._request(message)

    async def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = self._next_id
        self._next_id += 1
        message = dict(message, id=request_id)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self.writer.write(
            encode_frame(message, self.encoding, self.max_frame)
        )
        await self.writer.drain()
        return await future

    async def query_event(self, event: QueryEvent) -> dict[str, Any]:
        """Issue one workload event as a QUERY and await the reply."""
        return await self.request(query_message(event))

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def query_message(event: QueryEvent) -> dict[str, Any]:
    """A workload :class:`QueryEvent` as its QUERY wire message."""
    message: dict[str, Any] = {
        "type": MSG_QUERY,
        "kind": event.kind.value,
        "host_id": event.host_id,
        "time": event.time,
    }
    if event.kind is QueryKind.KNN:
        message["k"] = event.k
    else:
        message["window_area"] = event.window_area
        message["center_offset"] = list(event.center_offset)
    return message


# ----------------------------------------------------------------------
# The load run
# ----------------------------------------------------------------------
@dataclass(slots=True)
class LoadReport:
    """What one load run achieved, JSON-ready via :meth:`to_dict`.

    ``replies`` holds the raw reply message per event (event-list
    order) for differential checks; it is deliberately excluded from
    the serialised report.
    """

    kind: str
    seed: int
    count: int
    connections: int
    lockstep: bool
    offered_qps: float | None
    elapsed_s: float
    achieved_qps: float
    answered: int
    shed: int
    errors: int
    shed_reasons: dict[str, int]
    latency_s: dict[str, float]
    encoding: str = "json"
    replies: list[dict[str, Any]] = field(default_factory=list, repr=False)

    @property
    def clean(self) -> bool:
        """Every event answered: nothing shed, nothing errored."""
        return self.shed == 0 and self.errors == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "count": self.count,
            "connections": self.connections,
            "lockstep": self.lockstep,
            "encoding": self.encoding,
            "offered_qps": self.offered_qps,
            "elapsed_s": self.elapsed_s,
            "achieved_qps": self.achieved_qps,
            "answered": self.answered,
            "shed": self.shed,
            "errors": self.errors,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "latency_s": self.latency_s,
        }


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _latency_stats(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    if not ordered:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
        "p99": _percentile(ordered, 0.99),
        "mean": sum(ordered) / len(ordered),
        "max": ordered[-1],
    }


async def run_load(
    params: ParameterSet,
    port: int,
    host: str = "127.0.0.1",
    kind: QueryKind = QueryKind.KNN,
    seed: int = 0,
    count: int = 100,
    connections: int = 4,
    qps: float | None = None,
    lockstep: bool = False,
    respect_cap: bool = True,
    encoding: str = ENCODING_JSON,
) -> LoadReport:
    """Replay a seeded workload against a server and measure it.

    ``lockstep`` sends events one at a time in list order (the
    determinism mode the differential test uses); otherwise events are
    launched concurrently round-robin over the connections, paced to
    ``qps`` when given (``None`` = as fast as the clients can go).
    ``respect_cap=False`` ignores the server's advertised in-flight
    cap — the deliberate-overload mode that provokes SHED replies.
    """
    if connections < 1:
        raise ServeError(f"connections must be >= 1, got {connections}")
    if qps is not None and qps <= 0:
        raise ServeError(f"qps must be > 0, got {qps}")
    events = seeded_events(params, kind, seed, count)
    clients = [
        ServeClient(
            host,
            port,
            client_id=f"load-{i}",
            respect_cap=respect_cap,
            encoding=encoding,
        )
        for i in range(connections)
    ]
    replies: list[dict[str, Any]] = [None] * len(events)  # type: ignore[list-item]
    latencies: list[float] = []
    try:
        for client in clients:
            await client.connect()
        started = perf_counter()

        async def one(index: int, event: QueryEvent) -> None:
            sent = perf_counter()
            reply = await clients[index % connections].query_event(event)
            latencies.append(perf_counter() - sent)
            replies[index] = reply

        if lockstep:
            for index, event in enumerate(events):
                await one(index, event)
        else:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            tasks = []
            for index, event in enumerate(events):
                if qps is not None:
                    delay = t0 + index / qps - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(one(index, event)))
            await asyncio.gather(*tasks)
        elapsed = perf_counter() - started
    finally:
        for client in clients:
            await client.close()

    answered = shed = errors = 0
    shed_reasons: dict[str, int] = {}
    for reply in replies:
        if reply is None:
            errors += 1
        elif reply["type"] == MSG_ANSWER:
            answered += 1
        elif reply["type"] == MSG_SHED:
            shed += 1
            reason = str(reply.get("reason", "unknown"))
            shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
        else:
            errors += 1
    return LoadReport(
        kind=kind.value,
        seed=seed,
        count=count,
        connections=connections,
        lockstep=lockstep,
        offered_qps=qps,
        elapsed_s=elapsed,
        achieved_qps=count / elapsed if elapsed > 0 else 0.0,
        answered=answered,
        shed=shed,
        errors=errors,
        shed_reasons=shed_reasons,
        latency_s=_latency_stats(latencies),
        encoding=encoding,
        replies=list(replies),
    )
