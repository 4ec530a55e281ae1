"""The asyncio base station: broadcast world + on-demand wire service.

One :class:`BaseStationServer` owns a fully wired
:class:`~repro.experiments.Simulation` (POI field, broadcast schedule,
fleet, caches) and serves it over the framed protocol of
:mod:`repro.serve.protocol`.  The shape is the classic single-writer
server:

* the **accept loop** never executes queries — per-connection handlers
  parse frames, run *admission control*, and enqueue accepted work;
* one **worker task** drains the bounded request queue and executes
  queries strictly serially against the simulation, so the world state
  stays exactly as deterministic as an in-process run: replaying the
  same seeded event list over the wire answers bit-identically to
  ``Simulation.execute_query`` (the differential test's contract);
* **admission control** answers SHED instead of queueing unboundedly:
  a full queue or a per-client in-flight cap is a hard shed, and once
  the queue passes a low-water mark the server consults the M/M/1
  estimate (:func:`repro.ondemand.mmc_wait_time` on live EWMA-measured
  arrival/service rates — an unstable queue *raises*, which is treated
  as overload) and sheds requests whose expected wait exceeds the
  configured budget;
* **standing queries** (``QUERY`` frames with ``standing: true``)
  register with a lazily created
  :class:`~repro.continuous.ContinuousMonitor`; a ticker enqueues one
  tick per interval and answers are pushed to the owning sessions;
* an **idle reaper** closes sessions with no traffic and no in-flight
  work past ``idle_timeout``;
* with ``trace_dir`` set, every connection writes its own JSONL trace
  (one ``serve.request`` root per request wrapping the simulator's
  ``query`` span tree) that ``repro.cli trace-summary`` understands.

The worker runs simulator queries inline on the event loop (~1 ms per
query at bench scales); the queue bound — not thread parallelism — is
what keeps the station responsive under overload.
"""

from __future__ import annotations

import asyncio
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ..errors import ExperimentError, ReproError, ServeError
from ..obs import JsonLinesExporter, MetricsRegistry, NO_TRACER, Tracer
from ..ondemand import mmc_wait_time
from ..workloads import ParameterSet, QueryEvent, QueryKind
from .protocol import (
    ENCODING_JSON,
    ENCODINGS,
    MAX_FRAME,
    MSG_HELLO,
    MSG_QUERY,
    PROTOCOL_VERSION,
    FrameError,
    FrameTooLargeError,
    answer_message,
    encode_frame,
    error_message,
    read_frame,
    shed_message,
)
from .session import ClientSession

__all__ = ["BaseStationServer", "ServeConfig"]

# EWMA smoothing for the live arrival/service rate estimates feeding
# the M/M/1 admission model.
_RATE_ALPHA = 0.2


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Serving-layer knobs (the world itself comes from ParameterSet).

    * ``queue_limit`` — bound on queued-but-unserved requests; a full
      queue is a hard SHED;
    * ``max_inflight`` — per-client cap on outstanding requests;
    * ``max_wait_s`` — soft admission: once the queue holds at least
      half ``queue_limit`` requests, shed when the live M/M/1 wait
      estimate exceeds ``max_wait_s``;
    * ``idle_timeout`` — reap sessions idle this long with nothing in
      flight;
    * ``tick_interval`` — wall seconds between continuous-monitor
      ticks (also the simulated seconds each tick advances); ``0``
      disables the ticker;
    * ``service_delay`` — artificial per-request asyncio delay, the
      overload-testing throttle (defaults off);
    * ``warmup_queries`` — one-shot kNN workload run before the socket
      binds, to warm the fleet's caches;
    * ``trace_dir`` — write one JSONL span trace per connection here.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 64
    max_inflight: int = 8
    max_wait_s: float = 2.0
    idle_timeout: float = 60.0
    tick_interval: float = 1.0
    service_delay: float = 0.0
    warmup_queries: int = 0
    trace_dir: str | None = None
    max_frame: int = MAX_FRAME

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_wait_s <= 0:
            raise ServeError(f"max_wait_s must be > 0, got {self.max_wait_s}")
        if self.idle_timeout <= 0:
            raise ServeError(
                f"idle_timeout must be > 0, got {self.idle_timeout}"
            )
        if self.service_delay < 0 or self.tick_interval < 0:
            raise ServeError("service_delay/tick_interval must be >= 0")
        if self.warmup_queries < 0:
            raise ServeError(
                f"warmup_queries must be >= 0, got {self.warmup_queries}"
            )


@dataclass(slots=True)
class _Job:
    """One unit of worker work: a query, a registration, or a tick."""

    kind: str  # "query" | "standing" | "tick"
    session: ClientSession | None = None
    message: dict[str, Any] | None = None
    event: QueryEvent | None = None


class BaseStationServer:
    """Serve one simulated world's base station over TCP."""

    def __init__(
        self,
        params: ParameterSet,
        seed: int = 0,
        config: ServeConfig | None = None,
        **sim_kwargs: Any,
    ):
        from ..experiments import Simulation  # late: avoids import cycle

        self.params = params
        self.seed = seed
        self.config = config if config is not None else ServeConfig()
        self.metrics = MetricsRegistry()
        self.sim = Simulation(
            params, seed=seed, registry=self.metrics, **sim_kwargs
        )
        self.queue: asyncio.Queue[_Job] = asyncio.Queue(
            maxsize=self.config.queue_limit
        )
        self.sessions: dict[int, ClientSession] = {}
        self.monitor = None  # lazily created ContinuousMonitor
        self.port: int | None = None
        self.sim_time = 0.0
        self._next_session = 0
        self._next_standing = 0
        self._standing_owner: dict[int, ClientSession] = {}
        self._server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []
        self._last_arrival: float | None = None
        self._arrival_gap_ewma: float | None = None
        self._service_ewma: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm up, bind, and spin up worker/reaper/ticker tasks."""
        if self._server is not None:
            raise ServeError("server already started")
        cfg = self.config
        if cfg.warmup_queries:
            collector = self.sim.run_workload(
                QueryKind.KNN, 0, cfg.warmup_queries
            )
            self.sim_time = max(
                self.sim_time, max(r.time for r in collector.records)
            )
        if cfg.trace_dir:
            os.makedirs(cfg.trace_dir, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._tasks = [
            asyncio.create_task(self._worker(), name="serve-worker"),
            asyncio.create_task(self._reaper(), name="serve-reaper"),
        ]
        if cfg.tick_interval > 0:
            self._tasks.append(
                asyncio.create_task(self._ticker(), name="serve-ticker")
            )

    async def stop(self) -> None:
        """Cancel tasks, close every session, release the socket."""
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self.sessions.values()):
            self._close_session(session)
            writer = session.writer
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServeError("start() the server first")
        await self._server.serve_forever()

    def snapshot(self) -> dict[str, float]:
        """Current serve counters (``serve.*``) as a plain dict."""
        return {
            name: counter.value
            for name, counter in sorted(self.metrics._counters.items())
            if name.startswith("serve.")
        }

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Connection handling (accept side: parse, admit, enqueue)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._count("serve.connections")
        cfg = self.config
        session: ClientSession | None = None
        try:
            # The HELLO exchange is always JSON, both directions: the
            # requested encoding only takes effect once both sides have
            # seen the negotiation result.
            first = await read_frame(reader, cfg.max_frame)
            if first is None:
                return
            if first["type"] != MSG_HELLO:
                await self._write(
                    writer,
                    error_message(
                        f"expected HELLO, got {first['type']}", code="protocol"
                    ),
                )
                return
            encoding = first.get("encoding", ENCODING_JSON)
            if encoding not in ENCODINGS:
                await self._write(
                    writer,
                    error_message(
                        f"unknown wire encoding {encoding!r}", code="protocol"
                    ),
                )
                return
            session = self._open_session(first, writer, encoding)
            await self._write(
                writer,
                {
                    "type": MSG_HELLO,
                    "proto": PROTOCOL_VERSION,
                    "session": session.session_id,
                    "host_id": session.host_id,
                    "max_inflight": cfg.max_inflight,
                    "max_frame": cfg.max_frame,
                    "encoding": encoding,
                },
            )
            while True:
                message = await read_frame(
                    reader, cfg.max_frame, session.encoding
                )
                if message is None:
                    break
                session.touch(self._now())
                await self._dispatch(session, message)
        except FrameError as exc:
            # The stream can no longer be trusted: answer once
            # (best effort) and close.  The accept loop itself is
            # untouched — the next connection is served normally.
            self._count("serve.frame_errors")
            await self._write(
                writer,
                error_message(str(exc), code="framing"),
                session.encoding if session is not None else ENCODING_JSON,
            )
        except (ConnectionError, OSError):
            self._count("serve.connection_errors")
        finally:
            if session is not None:
                self._close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _open_session(
        self, hello: dict[str, Any], writer, encoding: str = ENCODING_JSON
    ) -> ClientSession:
        sid = self._next_session
        self._next_session += 1
        client_id = str(hello.get("client_id", f"client-{sid}"))
        tracer = exporter = None
        if self.config.trace_dir:
            exporter = JsonLinesExporter(
                os.path.join(self.config.trace_dir, f"conn-{sid:05d}.jsonl")
            )
            tracer = Tracer(sink=exporter)
        session = ClientSession(
            session_id=sid,
            client_id=client_id,
            writer=writer,
            host_id=sid % self.params.mh_number,
            now=self._now(),
            tracer=tracer,
            exporter=exporter,
            encoding=encoding,
        )
        self.sessions[sid] = session
        return session

    def _close_session(self, session: ClientSession) -> None:
        if session.closed:
            return
        session.closed = True
        for standing_id in sorted(session.standing_ids):
            self._standing_owner.pop(standing_id, None)
            if self.monitor is not None:
                try:
                    self.monitor.remove_query(standing_id)
                except ExperimentError:
                    pass
        session.standing_ids.clear()
        if session.exporter is not None:
            session.exporter.write_metrics(self.metrics)
            session.exporter.close()
        self.sessions.pop(session.session_id, None)

    async def _dispatch(
        self, session: ClientSession, message: dict[str, Any]
    ) -> None:
        mtype = message["type"]
        if mtype == MSG_QUERY:
            await self._admit(session, message)
        elif mtype == MSG_HELLO:
            self._count("serve.protocol_errors")
            await self._send(
                session, error_message("duplicate HELLO", code="protocol")
            )
        else:
            # Well-formed frame, nonsense type: answer ERROR, stay up.
            self._count("serve.protocol_errors")
            await self._send(
                session,
                error_message(
                    f"unknown message type {mtype!r}",
                    request_id=message.get("id"),
                    code="unknown-type",
                ),
            )

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    async def _admit(
        self, session: ClientSession, message: dict[str, Any]
    ) -> None:
        request_id = message.get("id")
        try:
            event = self._event_from(session, message)
        except ServeError as exc:
            self._count("serve.bad_requests")
            await self._send(
                session,
                error_message(str(exc), request_id=request_id),
            )
            return
        self._note_arrival()
        reason = self._shed_reason(session)
        if reason is not None:
            self._count("serve.shed")
            self._count(f"serve.shed.{reason}")
            await self._send(
                session, shed_message(request_id, reason, self.queue.qsize())
            )
            return
        kind = "standing" if message.get("standing") else "query"
        session.inflight += 1
        self._count("serve.accepted")
        self.queue.put_nowait(
            _Job(kind=kind, session=session, message=message, event=event)
        )

    def _shed_reason(self, session: ClientSession) -> str | None:
        if session.inflight >= self.config.max_inflight:
            return "client-cap"
        if self.queue.full():
            return "queue-full"
        if self.queue.qsize() >= max(1, self.config.queue_limit // 2):
            if self.estimated_wait() > self.config.max_wait_s:
                return "overload"
        return None

    def estimated_wait(self) -> float:
        """Expected queueing wait from live EWMA rates (M/M/1).

        An unstable or degenerate measured regime raises inside
        :func:`mmc_wait_time`; admission treats that as an infinite
        wait — the typed-error contract the ondemand fix guarantees.
        """
        gap, service = self._arrival_gap_ewma, self._service_ewma
        if not gap or not service or gap <= 0.0 or service <= 0.0:
            return 0.0
        try:
            return mmc_wait_time(1.0 / gap, 1.0 / service, 1)
        except ExperimentError:
            return math.inf

    def _note_arrival(self) -> None:
        now = self._now()
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            if self._arrival_gap_ewma is None:
                self._arrival_gap_ewma = gap
            else:
                self._arrival_gap_ewma += _RATE_ALPHA * (
                    gap - self._arrival_gap_ewma
                )
        self._last_arrival = now

    def _note_service(self, seconds: float) -> None:
        if self._service_ewma is None:
            self._service_ewma = seconds
        else:
            self._service_ewma += _RATE_ALPHA * (seconds - self._service_ewma)

    # ------------------------------------------------------------------
    # Request validation
    # ------------------------------------------------------------------
    def _event_from(
        self, session: ClientSession, message: dict[str, Any]
    ) -> QueryEvent:
        kind_raw = message.get("kind", "knn")
        if kind_raw not in ("knn", "window"):
            raise ServeError(f"unknown query kind {kind_raw!r}")
        kind = QueryKind.KNN if kind_raw == "knn" else QueryKind.WINDOW
        host_id = message.get("host_id", session.host_id)
        if not isinstance(host_id, int) or isinstance(host_id, bool) or not (
            0 <= host_id < self.params.mh_number
        ):
            raise ServeError(f"host_id out of range: {host_id!r}")
        time = message.get("time", self.sim_time)
        if not isinstance(time, (int, float)) or not math.isfinite(time) or (
            time < 0
        ):
            raise ServeError(f"invalid query time: {time!r}")
        if kind is QueryKind.KNN:
            k = message.get("k", self.params.knn_k)
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ServeError(f"k must be a positive integer, got {k!r}")
            return QueryEvent(
                time=float(time), host_id=host_id, kind=kind, k=k
            )
        area = message.get("window_area", self.params.window_area_mi2)
        if not isinstance(area, (int, float)) or not (
            math.isfinite(area) and area > 0
        ):
            raise ServeError(f"invalid window_area: {area!r}")
        offset = message.get("center_offset", (0.0, 0.0))
        if (
            not isinstance(offset, (list, tuple))
            or len(offset) != 2
            or not all(
                isinstance(v, (int, float)) and math.isfinite(v)
                for v in offset
            )
        ):
            raise ServeError(f"invalid center_offset: {offset!r}")
        return QueryEvent(
            time=float(time),
            host_id=host_id,
            kind=kind,
            window_area=float(area),
            center_offset=(float(offset[0]), float(offset[1])),
        )

    # ------------------------------------------------------------------
    # The worker: strictly serial execution against the simulation
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            try:
                if job.kind == "tick":
                    await self._run_tick()
                elif job.kind == "standing":
                    await self._register_standing(job)
                else:
                    await self._serve_query(job)
            except ReproError:
                # A tick the monitor could not finish (or a refusal no
                # frame can carry) costs that job only, not the worker.
                self._count("serve.errors")
            finally:
                self.queue.task_done()

    async def _serve_query(self, job: _Job) -> None:
        session, event = job.session, job.event
        if self.config.service_delay > 0:
            await asyncio.sleep(self.config.service_delay)
        request_id = job.message.get("id")
        started = perf_counter()
        try:
            result = self._execute(session, request_id, event)
        except ReproError as exc:
            self._count("serve.errors")
            reply = error_message(
                str(exc), request_id=request_id, code="query-failed"
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - the worker must survive
            self._count("serve.errors")
            reply = error_message(
                f"internal error: {exc}", request_id=request_id, code="internal"
            )
        else:
            record = result.record
            self._count("serve.answered")
            self.metrics.histogram("serve.service_wall_s").observe(
                perf_counter() - started
            )
            reply = answer_message(
                request_id,
                [poi.poi_id for poi in result.answers],
                record.resolution.value,
                record.access_latency,
                record.tuning_packets,
                host_id=event.host_id,
                kind=event.kind.value,
            )
        finally:
            session.inflight -= 1
            self._note_service(perf_counter() - started)
        await self._send(session, reply)

    def _execute(self, session: ClientSession, request_id, event: QueryEvent):
        tracer = session.tracer
        self.sim_time = max(self.sim_time, event.time)
        if tracer is None:
            return self.sim.execute_query(event)
        with tracer.span("serve.request") as span:
            span.set(
                session=session.session_id,
                client_id=session.client_id,
                request_id=request_id,
                queue_depth=self.queue.qsize(),
            )
            # The worker is the only query executor, so the world's one
            # tracer is this connection's for the length of a request.
            self.sim.tracer = tracer
            try:
                return self.sim.execute_query(event)
            finally:
                self.sim.tracer = NO_TRACER

    async def _register_standing(self, job: _Job) -> None:
        from ..continuous import ContinuousMonitor, StandingQuery

        session = job.session
        request_id = job.message.get("id")
        try:
            standing_id = self._next_standing
            query = StandingQuery(query_id=standing_id, template=job.event)
            if self.monitor is None:
                self.monitor = ContinuousMonitor(
                    self.sim, [query], registry=self.metrics
                )
            else:
                self.monitor.add_query(query)
            self._next_standing += 1
        except ReproError as exc:
            self._count("serve.errors")
            reply = error_message(
                str(exc), request_id=request_id, code="standing-failed"
            )
        else:
            session.standing_ids.add(standing_id)
            self._standing_owner[standing_id] = session
            self._count("serve.standing_registered")
            reply = {
                "type": "ANSWER",
                "id": request_id,
                "standing_id": standing_id,
                "registered": True,
            }
        finally:
            session.inflight -= 1
        await self._send(session, reply)

    async def _run_tick(self) -> None:
        if self.monitor is None or not self.monitor.queries:
            return
        self.sim_time += self.config.tick_interval
        answers = self.monitor.tick(self.sim_time)
        self._count("serve.ticks")
        for standing_id, pois in answers.items():
            session = self._standing_owner.get(standing_id)
            if session is None or session.closed:
                continue
            await self._send(
                session,
                {
                    "type": "ANSWER",
                    "standing_id": standing_id,
                    "tick_time": self.sim_time,
                    "poi_ids": [poi.poi_id for poi in pois],
                    "plan": "standing",
                },
            )

    # ------------------------------------------------------------------
    # Background tasks
    # ------------------------------------------------------------------
    async def _ticker(self) -> None:
        while True:
            await asyncio.sleep(self.config.tick_interval)
            if self.monitor is not None and self.monitor.queries:
                await self.queue.put(_Job(kind="tick"))

    async def _reaper(self) -> None:
        interval = max(0.05, min(self.config.idle_timeout / 4, 1.0))
        while True:
            await asyncio.sleep(interval)
            now = self._now()
            for session in list(self.sessions.values()):
                if session.inflight:
                    continue
                if session.idle_for(now) <= self.config.idle_timeout:
                    continue
                self._count("serve.reaped")
                # Closing the transport wakes the handler's read, which
                # runs the normal cleanup path.
                session.writer.close()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    async def _write(
        self,
        writer,
        message: dict[str, Any],
        encoding: str = ENCODING_JSON,
    ) -> bool:
        if writer.is_closing():
            return False
        try:
            writer.write(
                encode_frame(message, encoding, self.config.max_frame)
            )
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _send(self, session: ClientSession, message: dict[str, Any]):
        try:
            return await self._write(session.writer, message, session.encoding)
        except FrameTooLargeError as exc:
            # The message blew the frame bound: nothing was written, the
            # stream is intact, so it costs only itself — the session
            # gets a typed error naming the request or standing query.
            self._count("serve.oversized_replies")
            refusal = error_message(str(exc), message.get("id"), "too-large")
            if "standing_id" in message:
                refusal["standing_id"] = message["standing_id"]
            return await self._write(session.writer, refusal, session.encoding)
