"""Driver of the wire workload: one server subprocess, phased clients.

``repro.serve.run_load`` cannot be used as is: it restarts event times
at 0 on every call (a long-lived server would replay its frozen first
seconds) and times each request from task start, not from the instant
it was due.  This driver takes one event list from
``seeded_events(..., start_time=<server sim time after warm-up>)`` and
consumes it phase by phase over two ``ServeClient`` connections:

* lockstep prefix — one request at a time, compared reply by reply
  with an in-process twin's ``Simulation.execute_query`` (correctness);
* closed loop — every event launched at once, the clients holding to
  the advertised in-flight cap (2 x 8): capacity;
* open loop — independent vehicles: seeded Poisson arrivals at a fixed
  rate, latency timed from each request's due time, generator lag
  reported.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import subprocess
import sys
import threading
from contextlib import asynccontextmanager
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.experiments import Simulation
from repro.serve import ServeClient
from repro.serve.protocol import MSG_ANSWER, MSG_SHED
from repro.workloads import QueryKind, seeded_events

import calib
import procstat

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2
SLO_P99_MS = 50.0
E2E_RATE = 100
READY_TIMEOUT_S = 150.0
# Under open-loop load a request also waits for those before it, so its
# latency grows faster than the service time when the host slows down:
# over 20 runs log(p50) against log(slowdown) had a slope of 1.8, and
# 1.5 took the spread of the p50 from 0.12 of the median to 0.09.
OPEN_LOOP_EXPONENT = 1.5


@dataclass(frozen=True)
class Plan:
    """How many events each phase consumes."""

    lockstep: int
    closed: int
    closed_phases: int
    open_rates: tuple[int, ...]
    open_seconds: float
    json_closed: int

    @classmethod
    def for_run(cls, seconds: float, trace: bool, smoke: bool) -> "Plan":
        div = 20 if smoke else 1
        # --trace 1 drives the full phase list (the serve.* metrics)
        # against an untraced server; --trace 0 only what the
        # end-to-end metrics need.
        closed = max(10, round((100 if trace else 80) * seconds / div))
        return cls(
            lockstep=max(5, 100 // div),
            closed=closed,
            closed_phases=1 if smoke else 3,
            open_rates=(50, 100, 200) if trace else (E2E_RATE,),
            open_seconds=seconds / div,
            json_closed=closed if trace else 0,
        )

    @classmethod
    def traced(cls, plan: "Plan") -> "Plan":
        """The traced server's share: lockstep prefix + one closed phase."""
        return replace(
            plan, closed_phases=1, open_rates=(), json_closed=0
        )

    def events_needed(self) -> int:
        opened = sum(
            max(1, round(rate * self.open_seconds)) for rate in self.open_rates
        )
        return (
            self.lockstep + self.closed * self.closed_phases + opened
            + self.json_closed
        )


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _failed(reply) -> bool:
    return not isinstance(reply, dict) or reply.get("type") != MSG_ANSWER


async def lockstep_phase(clients, events) -> list:
    return [await clients[0].query_event(event) for event in events]


async def closed_phase(clients, events) -> dict:
    started = perf_counter()
    replies = await asyncio.gather(
        *(
            clients[i % len(clients)].query_event(event)
            for i, event in enumerate(events)
        ),
        return_exceptions=True,
    )
    elapsed = perf_counter() - started
    return {
        "kind": "closed",
        "events": len(events),
        "window": (started, started + elapsed),
        "elapsed_s": elapsed,
        "queries_per_s": len(events) / elapsed,
        "replies": replies,
    }


async def open_phase(clients, events, rate: float, seed: int) -> dict:
    n = len(events)
    gaps = np.random.default_rng((seed, 0x09E17, int(rate))).exponential(
        1.0 / rate, n
    )
    offsets = np.cumsum(gaps).tolist()
    latency = [0.0] * n
    lag = [0.0] * n
    replies: list = [None] * n

    async def one(i: int, due: float) -> None:
        replies[i] = await clients[i % len(clients)].query_event(events[i])
        latency[i] = perf_counter() - due

    tasks = []
    origin = perf_counter()
    for i in range(n):
        due = origin + offsets[i]
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lag[i] = max(0.0, perf_counter() - due)
        tasks.append(asyncio.create_task(one(i, due)))
    # More requests outstanding when the schedule ends than the server
    # lets in flight means the clients themselves are queueing.
    backlog = sum(1 for task in tasks if not task.done())
    cap = sum(c.hello.get("max_inflight", 0) for c in clients)
    await asyncio.gather(*tasks, return_exceptions=True)
    elapsed = perf_counter() - origin
    ok = sorted(
        1000.0 * latency[i] for i in range(n) if not _failed(replies[i])
    )
    return {
        "kind": "open",
        "rate": rate,
        "events": n,
        "window": (origin, origin + elapsed),
        "elapsed_s": elapsed,
        "latency_ms_p50": float(np.percentile(ok, 50)) if ok else 0.0,
        "latency_ms_p99": float(np.percentile(ok, 99)) if ok else 0.0,
        "generator_lag_ms_p99": 1000.0 * float(np.percentile(lag, 99)),
        "backlog_at_end": backlog,
        "growing_backlog": backlog > cap,
        "replies": replies,
    }


def _tally(phase: dict, checks) -> None:
    """Count a phase's requests; SHED, ERROR and no reply are failures."""
    replies = phase.pop("replies")
    shed = sum(1 for r in replies if isinstance(r, dict) and r.get("type") == MSG_SHED)
    failed = sum(1 for r in replies if _failed(r))
    phase["shed"] = shed
    phase["errors"] = failed - shed
    checks.count(len(replies))
    if failed:
        checks.fail(
            f"{phase['kind']} phase: {failed} of {len(replies)} requests"
            f" unanswered ({shed} shed)",
            failed,
        )


def reply_fields(reply) -> list:
    if _failed(reply):
        return [None]
    return [
        reply["poi_ids"], reply["plan"], reply["latency_s"],
        reply["tuning_packets"],
    ]


def replies_digest(replies) -> str:
    return hashlib.sha256(
        json.dumps([reply_fields(r) for r in replies]).encode()
    ).hexdigest()


def replies_model(replies) -> dict[str, float]:
    answered = [r for r in replies if not _failed(r)]
    n = max(1, len(answered))
    share = lambda plan: 100.0 * sum(1 for r in answered if r["plan"] == plan) / n
    scans = [r for r in answered if r["plan"] == "broadcast"]
    return {
        "model.pct_verified": share("verified"),
        "model.pct_approximate": share("approximate"),
        "model.pct_broadcast": share("broadcast"),
        "model.access_latency_s_mean": sum(r["latency_s"] for r in answered) / n,
        "model.tuning_packets_mean": sum(r["tuning_packets"] for r in answered) / n,
        "broadcast.tuning_packets_mean": (
            sum(r["tuning_packets"] for r in scans) / len(scans) if scans else 0.0
        ),
    }


@asynccontextmanager
async def connected(port: int, encoding: str):
    clients = [
        ServeClient("127.0.0.1", port, client_id=f"bench-{i}", encoding=encoding)
        for i in range(CONNECTIONS)
    ]
    try:
        for client in clients:
            await client.connect()
        yield clients
    finally:
        for client in clients:
            await client.close()


async def run_phases(port, events, plan: Plan, seed: int, checks, twin_replies):
    phases: list[dict] = []
    cursor = 0

    def take(count: int):
        nonlocal cursor
        chunk = events[cursor:cursor + count]
        cursor += count
        return chunk

    async with connected(port, "binary") as clients:
        locked = await lockstep_phase(clients, take(plan.lockstep))
        checks.count(len(locked))
        for index, (reply, expected) in enumerate(zip(locked, twin_replies)):
            if reply_fields(reply) != expected:
                checks.fail(
                    f"lockstep reply {index} differs from the in-process"
                    f" twin: {reply_fields(reply)} != {expected}"
                )
        phases.append(await closed_phase(clients, take(plan.closed)))
    if plan.json_closed:
        # Host time per query drifts upwards as the server ages (see the
        # README's drift curve), so the JSON phase sits between two
        # binary phases rather than at the end of the run.
        async with connected(port, "json") as clients:
            phase = await closed_phase(clients, take(plan.json_closed))
            phase["kind"] = "closed-json"
            phases.append(phase)
    if plan.closed_phases > 1 or plan.open_rates:
        async with connected(port, "binary") as clients:
            for _ in range(plan.closed_phases - 1):
                phases.append(await closed_phase(clients, take(plan.closed)))
            for rate in plan.open_rates:
                count = max(1, round(rate * plan.open_seconds))
                phases.append(await open_phase(clients, take(count), rate, seed))
    return locked, phases


# ----------------------------------------------------------------------
# One server, one run
# ----------------------------------------------------------------------
def _read_tagged(proc, tag: str, sink: list) -> None:
    for line in proc.stdout:
        if line.startswith(tag + " "):
            sink.append((perf_counter(), json.loads(line[len(tag) + 1:])))
            return


def drive(
    params, world_seed, seed, scale, warmup, plan: Plan, checks, host_speed,
    trace_path=None,
) -> dict:
    """Boot a server subprocess, run ``plan`` against it, tear it down.

    ``host_speed(start, end)`` gives the calibration of a timed window
    (bench/calib.py).  The server inherits this process's core, where
    the sampler is, and the clients drive it from there; only the twin
    warms up on another core, out of the booting server's way.
    """
    command = [
        sys.executable, os.path.join(HERE, "serve_launcher.py"),
        "--seed", str(world_seed), "--scale", repr(scale), "--warmup", str(warmup),
    ]
    if trace_path:
        command += ["--trace", trace_path]
    started = perf_counter()
    proc = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        ready: list = []
        waiter = threading.Thread(target=_read_tagged, args=(proc, "READY", ready))
        waiter.start()
        # While the server warms up, warm the twin the lockstep prefix is
        # compared with on another core (same seed, same warm-up).
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, calib.ALL_CORES[:1])
        twin = Simulation(params, seed=world_seed)
        twin.run_workload(QueryKind.KNN, 0, warmup)
        waiter.join(READY_TIMEOUT_S)
        if not ready:
            raise RuntimeError("wire server did not come up")
        ready_at, hello = ready[0]
        setup_s = ready_at - started
        events = seeded_events(
            params, QueryKind.KNN, seed, plan.events_needed(),
            start_time=hello["sim_time"],
        )
        twin_replies = []
        for event in events[:plan.lockstep]:
            result = twin.execute_query(event)
            record = result.record
            twin_replies.append([
                [poi.poi_id for poi in result.answers], record.resolution.value,
                record.access_latency, record.tuning_packets,
            ])
        del twin
        os.sched_setaffinity(0, home)

        cpu0 = procstat.cpu_s(proc.pid)
        timed_from = perf_counter()
        locked, phases = asyncio.run(
            run_phases(hello["port"], events, plan, seed, checks, twin_replies)
        )
        timed = host_speed(timed_from, perf_counter())
        server_cpu = procstat.cpu_s(proc.pid) - cpu0
        rss = procstat.peak_rss_mb(proc.pid)
        done: list = []
        proc.stdin.close()
        _read_tagged(proc, "DONE", done)
        if proc.wait(timeout=60) != 0 or not done:
            raise RuntimeError(f"wire server exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for phase in phases:
        _tally(phase, checks)
        phase["host_speed"] = host_speed(*phase.pop("window"))
        slow = phase["host_speed"]["slowdown"]
        phase["raw"] = {
            key: phase[key]
            for key in ("queries_per_s", "latency_ms_p50", "latency_ms_p99")
            if key in phase
        }
        for key in phase["raw"]:
            if key == "queries_per_s":
                phase[key] *= slow
            else:
                phase[key] /= slow ** OPEN_LOOP_EXPONENT
    setup = {"raw_s": setup_s, **host_speed(started, ready_at)}
    run = _fold(setup, server_cpu, timed, rss, locked, phases, done[0][1], plan)
    run["probe_inputs"] = (events[:plan.lockstep], locked)
    return run


def _fold(setup, server_cpu, timed, rss, locked, phases, server, plan: Plan) -> dict:
    closed = [p for p in phases if p["kind"] == "closed"]
    opened = {p["rate"]: p for p in phases if p["kind"] == "open"}
    json_phase = next((p for p in phases if p["kind"] == "closed-json"), None)
    timed_queries = len(locked) + sum(p["events"] for p in phases)
    e2e_open = opened.get(E2E_RATE)
    layers = replies_model(locked)
    layers["serve.shed"] = sum(p["shed"] for p in phases)
    layers["serve.errors"] = sum(p["errors"] for p in phases)
    if e2e_open:
        layers["serve.latency_ms_p99"] = e2e_open["latency_ms_p99"]
        layers["serve.generator_lag_ms_p99"] = max(
            p["generator_lag_ms_p99"] for p in opened.values()
        )
    for rate in (50, 200):
        if rate in opened:
            layers[f"serve.latency_ms_p50_r{rate}"] = opened[rate]["latency_ms_p50"]
    if 200 in opened:
        layers["serve.latency_ms_p99_r200"] = opened[200]["latency_ms_p99"]
    if len(opened) > 1:
        layers["serve.max_rate_within_slo"] = max(
            [
                rate for rate, p in opened.items()
                if p["latency_ms_p99"] <= SLO_P99_MS
                and not p["shed"] and not p["errors"]
                and not p["growing_backlog"]
            ],
            default=0,
        )
    if json_phase:
        layers["serve.queries_per_s_json"] = json_phase["queries_per_s"]
    return {
        "end_to_end": {
            "setup_s": setup["raw_s"] / setup["slowdown"],
            # All closed-loop phases together, each at reference speed:
            # the server ages from phase to phase, so a median would
            # pick one phase and add the noise of which one.
            "queries_per_s": sum(p["events"] for p in closed)
            / sum(p["events"] / p["queries_per_s"] for p in closed),
            # Server CPU over everything timed, idle gaps of the open
            # loop included (they cost no CPU), per request served.
            "cpu_ms_per_query": 1000.0 * server_cpu / timed_queries
            / timed["slowdown"],
            "peak_rss_mb": rss,
            "latency_ms_p50": e2e_open["latency_ms_p50"] if e2e_open else 0.0,
        },
        "per_layer": layers,
        "digests": {"record": replies_digest(locked)},
        "sizes": {
            "lockstep": plan.lockstep, "closed": plan.closed,
            "closed_phases": plan.closed_phases,
            "open_rates": list(plan.open_rates),
            "open_seconds": plan.open_seconds, "json_closed": plan.json_closed,
            "connections": CONNECTIONS,
        },
        "setup": setup,
        "timed": {"server_cpu_s": server_cpu, "queries": timed_queries, **timed},
        "phases": phases,
        "server": server,
    }
