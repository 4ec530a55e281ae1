"""The serving layer end to end: determinism, backpressure, sessions.

The headline test is the differential one: the same seeded workload
replayed lockstep over the wire must produce answers bit-identical
(POI ids *and* plan kind) to an in-process ``Simulation`` loop — the
server adds transport, not behavior.  The rest covers the admission
machinery (hard queue bound, per-client cap, measured-rate overload
estimate), standing queries over the wire, idle reaping, the load
generator's report, and the per-connection trace export.
"""

import asyncio
import json
import math
import os

import pytest

from repro.errors import ExperimentError, ServeError
from repro.experiments import Simulation
from repro.obs import Tracer, load_trace, summarize_spans
from repro.serve import (
    BaseStationServer,
    MSG_SHED,
    ServeClient,
    ServeConfig,
    encode_frame,
    read_frame,
    run_load,
)
from repro.serve.loadgen import _latency_stats, _percentile, query_message
from repro.workloads import (
    SYNTHETIC_SUBURBIA,
    QueryKind,
    scaled_parameters,
    seeded_events,
)

PARAMS = scaled_parameters(SYNTHETIC_SUBURBIA, area_scale=0.02)


def run(coroutine):
    return asyncio.run(coroutine)


async def started_server(seed=3, **config_kwargs) -> BaseStationServer:
    config_kwargs.setdefault("tick_interval", 0.0)
    server = BaseStationServer(
        PARAMS, seed=seed, config=ServeConfig(**config_kwargs)
    )
    await server.start()
    return server


# ----------------------------------------------------------------------
# Differential: the wire adds transport, not behavior
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("kind", [QueryKind.KNN, QueryKind.WINDOW])
    def test_wire_answers_match_in_process(self, kind):
        seed, count = 11, 25

        async def over_the_wire():
            server = await started_server(seed=seed)
            try:
                report = await run_load(
                    PARAMS,
                    server.port,
                    kind=kind,
                    seed=seed,
                    count=count,
                    connections=3,
                    lockstep=True,
                )
            finally:
                await server.stop()
            return report

        report = run(over_the_wire())
        assert report.answered == count
        assert report.clean

        sim = Simulation(PARAMS, seed=seed)
        events = seeded_events(PARAMS, kind, seed, count)
        for event, reply in zip(events, report.replies):
            result = sim.execute_query(event)
            assert reply["type"] == "ANSWER"
            assert reply["poi_ids"] == [p.poi_id for p in result.answers]
            assert reply["plan"] == result.record.resolution.value
            assert reply["latency_s"] == pytest.approx(
                result.record.access_latency
            )
            assert reply["tuning_packets"] == result.record.tuning_packets

    def test_seeded_events_are_reproducible(self):
        a = seeded_events(PARAMS, QueryKind.KNN, 5, 40)
        b = seeded_events(PARAMS, QueryKind.KNN, 5, 40)
        assert a == b
        assert a != seeded_events(PARAMS, QueryKind.KNN, 6, 40)
        times = [e.time for e in a]
        assert times == sorted(times)


# ----------------------------------------------------------------------
# Admission control and backpressure
# ----------------------------------------------------------------------
class TestAdmission:
    def test_overload_sheds_instead_of_queueing(self):
        async def scenario():
            server = await started_server(
                seed=1,
                queue_limit=4,
                max_inflight=3,
                service_delay=0.05,
            )
            try:
                report = await run_load(
                    PARAMS,
                    server.port,
                    seed=1,
                    count=40,
                    connections=8,
                    respect_cap=False,
                )
                counters = server.snapshot()
                # Still alive: a polite client gets served afterwards.
                follow = await run_load(
                    PARAMS,
                    server.port,
                    seed=2,
                    count=3,
                    connections=1,
                    lockstep=True,
                )
            finally:
                await server.stop()
            return report, counters, follow

        report, counters, follow = run(scenario())
        assert report.errors == 0
        assert report.shed > 0
        assert report.answered + report.shed == 40
        assert "queue-full" in report.shed_reasons
        assert counters["serve.shed"] == report.shed
        assert counters["serve.shed.queue-full"] == report.shed_reasons[
            "queue-full"
        ]
        assert follow.clean and follow.answered == 3

    def test_client_cap_sheds_before_queue(self):
        async def scenario():
            # Queue deep enough that only the per-client cap can trip.
            server = await started_server(
                seed=1, queue_limit=64, max_inflight=2, service_delay=0.05
            )
            try:
                report = await run_load(
                    PARAMS,
                    server.port,
                    seed=1,
                    count=12,
                    connections=1,
                    respect_cap=False,
                )
            finally:
                await server.stop()
            return report

        report = run(scenario())
        assert report.shed > 0
        assert set(report.shed_reasons) == {"client-cap"}

    def test_cap_respecting_client_is_never_shed(self):
        async def scenario():
            # Tight caps, but the client honours the advertised
            # in-flight limit, so concurrent unpaced load stays clean.
            server = await started_server(
                seed=1, queue_limit=8, max_inflight=2
            )
            try:
                return await run_load(
                    PARAMS, server.port, seed=1, count=30, connections=2
                )
            finally:
                await server.stop()

        report = run(scenario())
        assert report.clean
        assert report.answered == 30

    def test_estimated_wait_treats_unstable_rates_as_infinite(self):
        async def scenario():
            server = await started_server(seed=1)
            try:
                # No traffic measured yet: no basis to shed.
                assert server.estimated_wait() == 0.0
                # Arrivals every 10 ms, service takes 50 ms: rho = 5.
                # mmc_wait_time raises ExperimentError for this regime
                # (the PR's ondemand hardening) and admission must read
                # that as an unbounded wait, not a crash.
                server._arrival_gap_ewma = 0.010
                server._service_ewma = 0.050
                assert server.estimated_wait() == math.inf
                # Stable regime: a finite estimate comes back.
                server._service_ewma = 0.005
                assert 0.0 < server.estimated_wait() < 1.0
            finally:
                await server.stop()

        run(scenario())

    def test_bad_requests_get_error_not_shed(self):
        async def scenario():
            server = await started_server(seed=1)
            try:
                client = ServeClient("127.0.0.1", server.port)
                await client.connect()
                bad = [
                    {"type": "QUERY", "kind": "voronoi"},
                    {"type": "QUERY", "kind": "knn", "k": 0},
                    {"type": "QUERY", "kind": "knn", "k": True},
                    {"type": "QUERY", "kind": "knn", "host_id": 10**9},
                    {"type": "QUERY", "kind": "knn", "time": -5.0},
                    {"type": "QUERY", "kind": "window", "window_area": -1.0},
                    {
                        "type": "QUERY",
                        "kind": "window",
                        "center_offset": [1.0],
                    },
                ]
                replies = [await client.request(m) for m in bad]
                # The session survives all of it and still answers.
                good = await client.request(
                    {"type": "QUERY", "kind": "knn", "k": 2}
                )
                counters = server.snapshot()
                await client.close()
            finally:
                await server.stop()
            return replies, good, counters

        replies, good, counters = run(scenario())
        assert all(r["type"] == "ERROR" for r in replies)
        assert all(r["code"] == "bad-request" for r in replies)
        assert good["type"] == "ANSWER"
        assert counters["serve.bad_requests"] == 7.0
        assert "serve.shed" not in counters

    def test_config_validation(self):
        for kwargs in (
            {"queue_limit": 0},
            {"max_inflight": 0},
            {"max_wait_s": 0.0},
            {"idle_timeout": 0.0},
            {"service_delay": -0.1},
            {"warmup_queries": -1},
        ):
            with pytest.raises(ServeError):
                ServeConfig(**kwargs)


# ----------------------------------------------------------------------
# Sessions: retired UPDATE frames, reaping, standing queries
# ----------------------------------------------------------------------
class TestSessions:
    def test_update_frames_get_unknown_type_error(self):
        # The server keeps no reported location (standing queries
        # re-evaluate at the fleet's position): UPDATE is just a type it
        # does not know, answered with ERROR on a session that stays up.
        async def scenario():
            server = await started_server(seed=1)
            try:
                client = ServeClient("127.0.0.1", server.port, "mover")
                await client.connect()
                refused = await client.request(
                    {"type": "UPDATE", "x": 1.5, "y": 2.5, "time": 3.0}
                )
                answer = await client.request(
                    {"type": "QUERY", "kind": "knn", "k": 1}
                )
                counters = server.snapshot()
                await client.close()
            finally:
                await server.stop()
            return refused, answer, counters

        refused, answer, counters = run(scenario())
        assert refused["type"] == "ERROR"
        assert refused["code"] == "unknown-type"
        assert answer["type"] == "ANSWER"
        assert counters["serve.answered"] == 1.0
        assert counters["serve.protocol_errors"] == 1.0
        assert "serve.updates" not in counters

    def test_idle_sessions_are_reaped(self):
        async def scenario():
            server = await started_server(seed=1, idle_timeout=0.15)
            try:
                client = ServeClient("127.0.0.1", server.port, "sleeper")
                await client.connect()
                assert len(server.sessions) == 1
                for _ in range(200):
                    if not server.sessions:
                        break
                    await asyncio.sleep(0.02)
                counters = server.snapshot()
                await client.close()
            finally:
                await server.stop()
            return counters

        counters = run(scenario())
        assert counters["serve.reaped"] == 1.0

    def test_standing_query_registers_and_ticks(self):
        async def scenario():
            server = await started_server(seed=1, tick_interval=0.05)
            try:
                client = ServeClient("127.0.0.1", server.port, "watcher")
                await client.connect()
                ack = await client.request(
                    {"type": "QUERY", "kind": "knn", "k": 3, "standing": True}
                )
                assert ack["registered"] is True
                standing_id = ack["standing_id"]
                assert server.monitor is not None
                assert [q.query_id for q in server.monitor.queries] == [
                    standing_id
                ]
                for _ in range(100):  # pushes arrive via the reader task
                    if client.pushes:
                        break
                    await asyncio.sleep(0.02)
                pushes = list(client.pushes)
                await client.close()
                # Disconnect deregisters the standing query.
                for _ in range(100):
                    if not server.monitor.queries:
                        break
                    await asyncio.sleep(0.01)
                remaining = list(server.monitor.queries)
            finally:
                await server.stop()
            return standing_id, pushes, remaining

        standing_id, pushes, remaining = run(scenario())
        assert pushes
        push = pushes[0]
        assert push["type"] == "ANSWER"
        assert push["standing_id"] == standing_id
        assert push["plan"] == "standing"
        assert len(push["poi_ids"]) == 3
        assert remaining == []

    def test_oversized_standing_push_costs_only_itself(self, monkeypatch):
        # 42 POIs in the scaled world: the k=5000 push is ~200 bytes
        # and blows a 150-byte frame bound on every tick; the ack, the
        # typed refusals and small answers stay inside it.
        def broken_tick(t):
            raise ExperimentError("boom")

        async def scenario():
            server = await started_server(
                seed=1, tick_interval=0.05, max_frame=150
            )
            worker = next(
                t for t in server._tasks if t.get_name() == "serve-worker"
            )
            try:
                client = ServeClient("127.0.0.1", server.port, "watcher")
                await client.connect()
                ack = await client.request(
                    {"type": "QUERY", "kind": "knn", "k": 5000,
                     "standing": True}
                )
                assert ack["registered"] is True
                for _ in range(100):
                    if client.pushes:
                        break
                    await asyncio.sleep(0.02)
                refusal = client.pushes[0]
                small = await client.request(
                    {"type": "QUERY", "kind": "knn", "k": 2}
                )
                # A tick the monitor cannot finish is lost, nothing more.
                ticks = server.snapshot()["serve.ticks"]
                monkeypatch.setattr(server.monitor, "tick", broken_tick)
                for _ in range(100):
                    if server.snapshot().get("serve.errors"):
                        break
                    await asyncio.sleep(0.02)
                after = await client.request(
                    {"type": "QUERY", "kind": "knn", "k": 2}
                )
                counters = server.snapshot()
                await client.close()
                return ack, refusal, small, after, ticks, counters, worker.done()
            finally:
                await server.stop()

        ack, refusal, small, after, ticks, counters, done = run(scenario())
        assert refusal["type"] == "ERROR" and refusal["code"] == "too-large"
        assert refusal["standing_id"] == ack["standing_id"]
        assert small["type"] == after["type"] == "ANSWER"
        assert len(small["poi_ids"]) == 2
        assert counters["serve.oversized_replies"] >= 1.0
        assert counters["serve.errors"] >= 1.0
        assert counters["serve.ticks"] == ticks  # failed ticks do not count
        assert not done


# ----------------------------------------------------------------------
# The load generator and its report
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_report_shape_and_counts(self):
        async def scenario():
            server = await started_server(seed=4)
            try:
                return await run_load(
                    PARAMS,
                    server.port,
                    seed=4,
                    count=20,
                    connections=2,
                    qps=500.0,
                )
            finally:
                await server.stop()

        report = run(scenario())
        assert report.answered == 20
        assert report.clean
        assert report.achieved_qps > 0
        assert report.elapsed_s > 0
        lat = report.latency_s
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        document = report.to_dict()
        assert "replies" not in document
        assert json.loads(json.dumps(document)) == document

    def test_query_message_round_trips_event_fields(self):
        knn, window = (
            seeded_events(PARAMS, kind, 2, 1)[0]
            for kind in (QueryKind.KNN, QueryKind.WINDOW)
        )
        knn_msg = query_message(knn)
        assert knn_msg["kind"] == "knn" and knn_msg["k"] == knn.k
        assert knn_msg["host_id"] == knn.host_id
        window_msg = query_message(window)
        assert window_msg["window_area"] == window.window_area
        assert window_msg["center_offset"] == list(window.center_offset)

    def test_percentiles(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([7.0], 0.99) == 7.0
        ordered = [float(i) for i in range(1, 101)]
        assert _percentile(ordered, 0.50) == pytest.approx(50.5)
        assert _percentile(ordered, 0.99) == pytest.approx(99.01)
        stats = _latency_stats([])
        assert stats == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0
        }


# ----------------------------------------------------------------------
# Per-connection trace export
# ----------------------------------------------------------------------
class TestTracing:
    @staticmethod
    def traced_connection(tmp_path, seed, count):
        """One lockstep connection to a traced server; its trace file."""
        trace_dir = str(tmp_path / "traces")

        async def scenario():
            server = await started_server(seed=seed, trace_dir=trace_dir)
            try:
                await run_load(
                    PARAMS,
                    server.port,
                    seed=seed,
                    count=count,
                    connections=1,
                    lockstep=True,
                )
            finally:
                await server.stop()

        run(scenario())
        assert os.listdir(trace_dir) == ["conn-00000.jsonl"]
        return load_trace(os.path.join(trace_dir, "conn-00000.jsonl"))

    def test_connection_trace_is_summary_compatible(self, tmp_path):
        spans, metrics = self.traced_connection(tmp_path, seed=5, count=6)
        assert len(spans) == 6
        assert all(s["name"] == "serve.request" for s in spans)
        assert all(
            child["name"] == "query"
            for s in spans
            for child in s["children"][:1]
        )
        assert metrics is not None
        assert metrics["counters"]["serve.answered"] == 6.0
        summary = summarize_spans(spans)
        assert summary.queries == 6
        assert summary.recorded_access_latency_s > 0


    def test_wire_trace_lists_the_span_names_of_its_in_process_twin(
        self, tmp_path
    ):
        # One tracer holder (the world): what a traced Simulation emits
        # under ``query`` — ``cache.insert`` included — a traced
        # connection emits under ``serve.request`` > ``query``.
        seed, count = 5, 30

        def names(span):
            return [span["name"], [names(c) for c in span.get("children", ())]]

        spans, _ = self.traced_connection(tmp_path, seed, count)
        wire = [names(s["children"][0]) for s in spans]
        tracer = Tracer()
        sim = Simulation(PARAMS, seed=seed, tracer=tracer)
        for event in seeded_events(PARAMS, QueryKind.KNN, seed, count):
            sim.execute_query(event)
        assert wire == [names(root.to_dict()) for root in tracer.roots]
        inserts = sum(str(query).count("cache.insert") for query in wire)
        assert inserts > count


# ----------------------------------------------------------------------
# Server lifecycle odds and ends
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_double_start_raises(self):
        async def scenario():
            server = await started_server(seed=1)
            try:
                with pytest.raises(ServeError, match="already started"):
                    await server.start()
            finally:
                await server.stop()

        run(scenario())

    def test_warmup_advances_sim_time(self):
        async def scenario():
            server = BaseStationServer(
                PARAMS,
                seed=2,
                config=ServeConfig(warmup_queries=10, tick_interval=0.0),
            )
            await server.start()
            try:
                return server.sim_time
            finally:
                await server.stop()

        assert run(scenario()) > 0.0

    def test_duplicate_hello_is_rejected_politely(self):
        async def scenario():
            server = await started_server(seed=1)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame({"type": "HELLO"}))
                await writer.drain()
                assert (await read_frame(reader))["type"] == "HELLO"
                writer.write(encode_frame({"type": "HELLO"}))
                await writer.drain()
                reply = await read_frame(reader)
                assert reply["type"] == "ERROR"
                assert reply["code"] == "protocol"
                # Connection survives the duplicate.
                writer.write(
                    encode_frame({"type": "QUERY", "kind": "knn", "k": 1})
                )
                await writer.drain()
                assert (await read_frame(reader))["type"] == "ANSWER"
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_shed_reply_reports_queue_depth(self):
        async def scenario():
            server = await started_server(
                seed=1, queue_limit=1, max_inflight=8, service_delay=0.2
            )
            try:
                client = ServeClient("127.0.0.1", server.port)
                await client.connect()
                event = seeded_events(PARAMS, QueryKind.KNN, 1, 1)[0]
                firing = [
                    asyncio.create_task(client.query_event(event))
                    for _ in range(4)
                ]
                replies = await asyncio.gather(*firing)
                await client.close()
            finally:
                await server.stop()
            return replies

        replies = run(scenario())
        sheds = [r for r in replies if r["type"] == MSG_SHED]
        assert sheds
        assert all(r["reason"] == "queue-full" for r in sheds)
        assert all(r["queue_depth"] >= 1 for r in sheds)
