"""The four workloads: set-up, timed reps, output checks.

Every function here drives the program through its public surface
(``Simulation``, ``ShardedSimulation``, ``BaseStationServer`` behind a
socket) and hands it nothing but generated ``QueryEvent``s.  The timed
windows are counted in queries, not seconds, so that one seed always
means identical work and identical digests; the counts are calibrated
so that the timed reps together last about ``--seconds`` on the
reference box (2-core Xeon 2.1 GHz) and scale linearly with it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

from repro.check import DifferentialChecker, check_record
from repro.codec import encode_records
from repro.core import Resolution
from repro.experiments import Simulation
from repro.shard import ShardedSimulation
from repro.workloads import (
    LA_CITY,
    RIVERSIDE_COUNTY,
    QueryKind,
    generate_pois,
    scaled_parameters,
    seeded_events,
)

import calib
import probes
import procstat
import tracing
import wire

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# The world (POI field, fleet, warm-up stream) is the system's data set
# and is the same in every run; ``--seed`` is the *workload* seed and
# drives the timed QueryEvents.  Measured on the reference box, letting
# the seed redraw the world as well tripled the run-to-run spread of
# every timing (a Riverside x0.25 world has only 363 POIs, so two
# worlds differ more than two query streams do).
WORLD_SEED = 0
REPS = 3
# The sampler processes, started by bench/run.py before the workload.
CALIBRATOR: calib.Calibrator | None = None
CHECK_EVENTS = 200
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class SimSpec:
    """A warmed single-process world and its timed query stream."""

    region: object
    scale: float
    kind: QueryKind
    warmup: int
    # Timed queries per second of ``--seconds``, all reps together.
    timed_per_second: float


SIM_SPECS = {
    "la-dense-warm-knn": SimSpec(LA_CITY, 0.1, QueryKind.KNN, 3000, 150.0),
    "riverside-sparse-window": SimSpec(
        RIVERSIDE_COUNTY, 0.25, QueryKind.WINDOW, 3000, 450.0
    ),
}
# la-full-cold: queries per rep per second of --seconds.  One refresh
# epoch of full LA holds ~1,037 queries; 1,250 per rep (at 10 s) cross
# the first epoch boundary, so migration and halo exchange happen.
COLD_PER_SECOND = 125.0
COLD_SHARDS = 2
WIRE_SCALE = 0.25
WIRE_WARMUP = 3000


def scaled(count: float, smoke: bool) -> int:
    return max(1, round(count / SMOKE_DIVISOR if smoke else count))


def untraced_reps(trace: bool, smoke: bool) -> int:
    # The traced pass needs one untraced rep beside it (traced ==
    # untraced digests); end-to-end numbers come from --trace 0 only.
    return 1 if trace or smoke else REPS


# ----------------------------------------------------------------------
# Digests and simulated statistics (repeat exactly at a fixed seed)
# ----------------------------------------------------------------------
def record_digest(records) -> str:
    """sha-256 over the QueryRecord stream (struct-packed codec frame)."""
    return hashlib.sha256(encode_records(list(records))).hexdigest()


def states_digest(states: dict) -> str:
    """sha-256 over ``share_states()``: every host's final cache."""
    digest = hashlib.sha256()
    for gid in sorted(states):
        digest.update(repr((gid, states[gid])).encode())
    return digest.hexdigest()


def model_stats(records) -> dict[str, float]:
    n = len(records)
    share = lambda r: 100.0 * sum(1 for x in records if x.resolution is r) / n
    scans = [x for x in records if x.resolution is Resolution.BROADCAST]
    return {
        "model.pct_verified": share(Resolution.VERIFIED),
        "model.pct_approximate": share(Resolution.APPROXIMATE),
        "model.pct_broadcast": share(Resolution.BROADCAST),
        "model.access_latency_s_mean": sum(x.access_latency for x in records) / n,
        "model.tuning_packets_mean": sum(x.tuning_packets for x in records) / n,
        "broadcast.buckets_downloaded": sum(x.buckets_downloaded for x in records),
        "broadcast.tuning_packets_mean": (
            sum(x.tuning_packets for x in scans) / len(scans) if scans else 0.0
        ),
        "p2p.peers_per_query_mean": sum(x.peer_count for x in records) / n,
    }


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def start_calibration(name: str) -> calib.Calibrator:
    """Start the samplers on the cores ``name`` runs on; pin this process.

    Every process has its core, because where the scheduler puts them
    otherwise decides the timing: the sharded world's construction read
    0.45 s with coordinator and workers spread over two cores and 0.70 s
    with all on one, either way for minutes on end.

    This process runs on the last core, beside a sampler; so does every
    process it starts, until moved.  ``la-full-cold`` builds its world
    there and then moves one shard worker to the first core, beside a
    second sampler.  The wire server and its clients share the last
    core (on two, whichever end the host slowed more set the pace, and
    only one of them can be calibrated for); only the in-process twin
    warms up on the first core, and its time is not measured.
    """
    global CALIBRATOR
    cores = calib.ALL_CORES
    used = cores[-1:]
    if name == "la-full-cold":
        used = sorted({cores[0], cores[-1]})
    CALIBRATOR = calib.Calibrator(used)
    os.sched_setaffinity(0, {cores[-1]})
    return CALIBRATOR


def host_speed(start: float, end: float, on_cores=None) -> dict:
    """The calibration kernels over [start, end] and the window's slowdown."""
    means = CALIBRATOR.kernel_means(start, end, on_cores)
    return {
        "spin_s": means[0],
        "chase_s": means[1],
        "slowdown": calib.slowdown(means),
    }


def at_reference_speed(rep: dict) -> dict:
    """Scale a rep's timings to the reference speed; keep the raw ones."""
    speed = host_speed(*rep.pop("window"))
    slow = speed["slowdown"]
    rep["raw"] = {
        key: rep[key] for key in ("queries_per_s", "cpu_ms_per_query", "latency_ms_p50")
    }
    rep["raw"]["wall_s"] = rep["wall_s"]
    rep["host_speed"] = speed
    rep["queries_per_s"] *= slow
    rep["cpu_ms_per_query"] /= slow
    rep["latency_ms_p50"] /= slow
    if "setup_window" in rep:
        # The world is built on this process's core (start_calibration).
        rep["setup_speed"] = host_speed(
            *rep.pop("setup_window"), on_cores=calib.ALL_CORES[-1:]
        )
        rep["raw"]["setup_s"] = rep["setup_s"]
        rep["setup_s"] /= rep["setup_speed"]["slowdown"]
    return rep


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def count(self, attempted: int) -> None:
        self.attempted += attempted

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)
        print(f"CHECK FAILED: {note}", file=sys.stderr)

    def same(self, what: str, values: list) -> None:
        if len(set(values)) > 1:
            self.fail(f"{what} differ: {values}")


# ----------------------------------------------------------------------
# Forked reps: every rep starts from the identical warmed state
# ----------------------------------------------------------------------
def in_fork(fn):
    """Run ``fn()`` in a forked copy of this process; return its result.

    The warmed world is built once; each rep forks it, so every rep
    does identical work and leaves the parent's state untouched.  The
    child reports through a pipe as JSON and never returns.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            code = 0
        except BaseException:  # noqa: BLE001 - report, then leave the child
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"forked rep failed with status {status}")
    return json.loads(data)


def timed_rep(sim: Simulation, events, trace_path: str | None = None) -> dict:
    """One timed window over ``events``; runs inside a forked child."""
    recorder = None
    if trace_path is not None:
        recorder = tracing.Recorder()
        recorder.install()
    latencies: list[float] = []
    records = []
    execute = sim.execute_query
    cpu0 = process_time()
    started = perf_counter()
    for event in events:
        t = perf_counter()
        result = execute(event)
        latencies.append(perf_counter() - t)
        records.append(result.record)
    wall = perf_counter() - started
    cpu = process_time() - cpu0
    rep = {
        "queries": len(events),
        "window": (started, started + wall),
        "wall_s": wall,
        "queries_per_s": len(events) / wall,
        "cpu_ms_per_query": 1000.0 * cpu / len(events),
        "peak_rss_mb": procstat.peak_rss_mb(),
        "latency_ms_p50": 1000.0 * statistics.median(latencies),
        "record_digest": record_digest(records),
        "model": model_stats(records),
    }
    if recorder is not None:
        recorder.uninstall()
        rep["layers"] = tracing.layer_metrics(recorder, wall)
        rep["layers"].update(
            tracing.cache_state(host.cache for host in sim.hosts)
        )
        recorder.write_jsonl(trace_path)
    return rep


def run_sim_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    spec = SIM_SPECS[name]
    checks = Checks()
    params = scaled_parameters(spec.region, area_scale=spec.scale)
    per_rep = scaled(spec.timed_per_second * seconds / REPS, smoke)
    n_check = scaled(CHECK_EVENTS, smoke)

    started = perf_counter()
    sim = Simulation(params, seed=WORLD_SEED)
    sim.run_workload(spec.kind, 0, scaled(spec.warmup, smoke))
    setup_raw = perf_counter() - started
    setup_speed = host_speed(started, started + setup_raw)
    setup_s = setup_raw / setup_speed["slowdown"]

    events = seeded_events(
        params, spec.kind, seed, per_rep + n_check, start_time=sim.env.now
    )
    timed, further = events[:per_rep], events[per_rep:]
    untraced = [
        at_reference_speed(in_fork(lambda: timed_rep(sim, timed)))
        for _ in range(untraced_reps(trace, smoke))
    ]
    checks.count(per_rep * len(untraced))
    all_reps = list(untraced)
    layers: dict[str, float] = {}
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        traced = at_reference_speed(
            in_fork(lambda: timed_rep(sim, timed, trace_path=path))
        )
        checks.count(per_rep)
        all_reps.append(traced)
        layers = traced.pop("layers")
    checks.same("record digests of the reps", [r["record_digest"] for r in all_reps])

    # Output check: further events from the warmed state, each answer
    # refereed against the brute-force oracle / Lemma 3.1-3.2 contract.
    checker = DifferentialChecker(sim)
    checks.count(len(further))
    for event in further:
        result = sim.execute_query(event)
        check_record(result.record)
        for violation in checker.check_event(event, result):
            checks.fail(f"oracle: {violation}")

    rep0 = untraced[0]
    layers.update(rep0["model"])
    return {
        "checks": checks,
        "end_to_end": {
            "setup_s": setup_s,
            "queries_per_s": median_of(untraced, "queries_per_s"),
            "cpu_ms_per_query": median_of(untraced, "cpu_ms_per_query"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
            "latency_ms_p50": median_of(untraced, "latency_ms_p50"),
        },
        "per_layer": layers,
        "digests": {"record": rep0["record_digest"]},
        "sizes": {"warmup": scaled(spec.warmup, smoke), "timed_per_rep": per_rep,
                  "reps": len(untraced), "check_events": len(further)},
        "setup": {"raw_s": setup_raw, **setup_speed},
        "reps": all_reps,
    }


# ----------------------------------------------------------------------
# la-full-cold: a fresh sharded world per rep
# ----------------------------------------------------------------------
def cold_rep(
    seed: int, queries: int, backend: str, want_states: bool, recorder=None
) -> dict:
    started = perf_counter()
    # The sharded coordinator draws fleet and events from one RNG, so
    # the seed moves both; the POI field at least is held fixed.
    pois = generate_pois(
        LA_CITY.bounds, LA_CITY.poi_number, np.random.default_rng(WORLD_SEED)
    )
    sim = ShardedSimulation(
        LA_CITY, seed=seed, shards=COLD_SHARDS, exchange="cycle",
        backend=backend, pois=pois,
    )
    setup_s = perf_counter() - started
    try:
        if recorder is not None:
            recorder.install(sharded=True, capture=True)
        pids = [child.pid for child in multiprocessing.active_children()]
        # One worker per core, beside that core's calibration sampler.
        cores = list(CALIBRATOR.buffers)
        for i, pid in enumerate(pids):
            os.sched_setaffinity(pid, {cores[i % len(cores)]})
        workers0 = [procstat.cpu_s(pid) for pid in pids]
        cpu0 = process_time()
        t0 = perf_counter()
        collector = sim.run_workload(QueryKind.KNN, 0, queries)
        wall = perf_counter() - t0
        coordinator_cpu = process_time() - cpu0
        workers = [procstat.cpu_s(pid) - c for pid, c in zip(pids, workers0)]
        rss = procstat.peak_rss_mb() + sum(procstat.peak_rss_mb(p) for p in pids)
        states = sim.share_states() if want_states else None
    finally:
        if recorder is not None:
            recorder.uninstall()
        sim.close()
    records = collector.records
    for record in records:
        check_record(record)
    cpu = coordinator_cpu + sum(workers)
    rep = {
        "backend": sim.backend,
        "setup_s": setup_s,
        "setup_window": (started, started + setup_s),
        "queries": queries,
        "records": len(records),
        "window": (t0, t0 + wall),
        "wall_s": wall,
        "queries_per_s": queries / wall,
        "cpu_ms_per_query": 1000.0 * cpu / queries,
        "peak_rss_mb": rss,
        # A batch API has no per-query latency a caller can observe:
        # the mean wall per query stands in (see bench/README.md).
        "latency_ms_p50": 1000.0 * wall / queries,
        "sim_seconds": records[-1].time,
        "coordinator_cpu_s": coordinator_cpu,
        "worker_cpu_s": workers,
        "record_digest": record_digest(records),
        "model": model_stats(records),
    }
    if states is not None:
        rep["states_digest"] = states_digest(states)
        hosts = len(states)
        rep["cache"] = {
            "cache.items_per_host_mean": sum(len(s[2]) for s in states.values()) / hosts,
            "cache.regions_per_host_mean": sum(len(s[1]) for s in states.values()) / hosts,
        }
    return rep


def run_cold_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    checks = Checks()
    queries = scaled(COLD_PER_SECOND * seconds, smoke)
    n_reps = untraced_reps(trace, smoke)
    reps = [
        # share_states() walks 93,300 hosts (1-2 s): once per run.
        at_reference_speed(
            cold_rep(seed, queries, "process", want_states=(i == n_reps - 1))
        )
        for i in range(n_reps)
    ]
    all_reps = list(reps)
    last = reps[-1]
    layers: dict[str, float] = {}
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        # Worker processes cannot be shimmed from outside, so the traced
        # pass runs the shards in-process.
        recorder = tracing.Recorder()
        traced = at_reference_speed(cold_rep(
            seed, queries, "inprocess", want_states=True, recorder=recorder
        ))
        all_reps.append(traced)
        layers = tracing.layer_metrics(recorder, traced["wall_s"])
        layers.update(traced["cache"])
        # The coordinator advances the fleet once per refresh epoch.
        layers["shard.epochs"] = layers["mobility.refreshes"]
        layers["shard.migrated_hosts"] = sum(
            len(batch) for batch in recorder.captured.get("take_hosts", [])
        )
        layers.update(probes.codec_probe(recorder.captured))
        recorder.write_jsonl(os.path.join(OUT_DIR, f"trace-{name}.jsonl"))
        checks.same(
            "share_states digests (process vs traced in-process)",
            [last["states_digest"], traced["states_digest"]],
        )
    for rep in all_reps:
        checks.count(rep["queries"])
        if rep["records"] != rep["queries"]:
            checks.fail(
                f"lost records: {rep['records']} of {rep['queries']}",
                abs(rep["queries"] - rep["records"]),
            )
    checks.same("record digests of the reps", [r["record_digest"] for r in all_reps])

    worker_cpu = last["worker_cpu_s"]
    if worker_cpu:
        layers["shard.coordinator_cpu_s"] = last["coordinator_cpu_s"]
        layers["shard.worker_cpu_s"] = sum(worker_cpu)
        layers["shard.worker_cpu_skew"] = max(worker_cpu) / (
            sum(worker_cpu) / len(worker_cpu)
        )
        layers["shard.coordinator_wait_share"] = (
            1.0 - last["coordinator_cpu_s"] / last["wall_s"]
        )
    layers.update(last["model"])
    return {
        "checks": checks,
        "end_to_end": {
            key: median_of(reps, key)
            for key in ("setup_s", "queries_per_s", "cpu_ms_per_query",
                        "peak_rss_mb", "latency_ms_p50")
        },
        "per_layer": layers,
        "digests": {"record": last["record_digest"], "share_states": last["states_digest"]},
        "derived": {
            "host_seconds_per_s": LA_CITY.mh_number * last["sim_seconds"]
            * median_of(reps, "queries_per_s") / queries
        },
        "sizes": {"warmup": 0, "timed_per_rep": queries, "reps": len(reps),
                  "shards": COLD_SHARDS},
        "reps": all_reps,
    }


def run_wire_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    checks = Checks()
    params = scaled_parameters(RIVERSIDE_COUNTY, area_scale=WIRE_SCALE)
    warmup = scaled(WIRE_WARMUP, smoke)
    plan = wire.Plan.for_run(seconds, trace, smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    run = wire.drive(
        params, WORLD_SEED, seed, WIRE_SCALE, warmup, plan, checks, host_speed
    )
    layers = run["per_layer"]
    probe_events, probe_replies = run.pop("probe_inputs")
    if trace:
        run["frame_probe"] = probes.frame_probe(probe_events, probe_replies)
        layers["serve.frame_encode_us"] = run["frame_probe"]["binary"]["encode_us"]
        layers["serve.frame_decode_us"] = run["frame_probe"]["binary"]["decode_us"]
        path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        traced = wire.drive(
            params, WORLD_SEED, seed, WIRE_SCALE, warmup,
            wire.Plan.traced(plan), checks, host_speed, trace_path=path,
        )
        del traced["probe_inputs"]
        checks.same(
            "lockstep digests (traced vs untraced server)",
            [run["digests"]["record"], traced["digests"]["record"]],
        )
        layers.update(traced["server"]["layers"])
        layers.update(traced["server"]["cache"])
        layers["serve.execute_ms_p50"] = layers["experiments.execute_query_ms_p50"]
        layers["serve.overhead_ms_p50"] = (
            run["end_to_end"]["latency_ms_p50"] - layers["serve.execute_ms_p50"]
        )
        run["traced"] = {k: traced[k] for k in ("end_to_end", "phases", "server")}
    run["checks"] = checks
    return run


RUNNERS = {
    "la-full-cold": run_cold_workload,
    "la-dense-warm-knn": run_sim_workload,
    "riverside-sparse-window": run_sim_workload,
    "riverside-wire-knn": run_wire_workload,
}
