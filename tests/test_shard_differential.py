"""The sharded simulator vs the single-process reference, bit for bit.

``exchange="event"`` (lockstep) mode claims full bit-identity: the
same seed must produce byte-equal QueryRecord streams, identical final
cache share payloads on every host, and identical fleet-wide P2P
traffic tallies, no matter how the world is sharded.  These tests are
the referee for that claim, in the style of
``test_cache_churn_differential``: run both simulators on the same
world and diff every observable.

``exchange="cycle"`` mode only promises determinism in (seed, shard
count): the same configuration must reproduce itself exactly across
backends and repeats, but is allowed to drift from the single-process
run (halo cache mirrors are one refresh epoch stale).
"""

import multiprocessing
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

import repro

from repro.cache import DirectionDistancePolicy, LRUPolicy
from repro.errors import ExperimentError, ShardError
from repro.experiments import Simulation
from repro.faults import FaultConfig
from repro.obs import Tracer
from repro.shard import ShardedSimulation, ShardWorld, rpc
from repro.workloads import (
    RIVERSIDE_COUNTY,
    QueryKind,
    ScalingClampWarning,
    scaled_parameters,
)


def tenth_scale_params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalingClampWarning)
        return scaled_parameters(RIVERSIDE_COUNTY, 0.1)


@pytest.mark.parametrize("kind", [QueryKind.KNN, QueryKind.WINDOW])
@pytest.mark.parametrize("hops", [1, 2])
def test_lockstep_bit_identical(kind, hops):
    params = tenth_scale_params()
    base = Simulation(params, seed=11, p2p_hops=hops)
    base_collector = base.run_workload(kind, warmup_queries=10,
                                       measure_queries=60)
    with ShardedSimulation(
        params, seed=11, shards=4, exchange="event", p2p_hops=hops
    ) as sharded:
        sharded_collector = sharded.run_workload(
            kind, warmup_queries=10, measure_queries=60
        )
        assert len(base_collector.records) == len(sharded_collector.records)
        for reference, candidate in zip(
            base_collector.records, sharded_collector.records
        ):
            assert reference == candidate
        assert base.share_states() == sharded.share_states()
        assert sharded.traffic_totals() == (
            base.network.requests_sent,
            base.network.peers_heard,
            base.network.responses_received,
        )


def test_both_worlds_advance_time_the_same_way():
    # Each workload's Poisson stream starts at the clock the previous
    # one left, so equal clocks are what keep later workloads equal.
    params = tenth_scale_params()
    base = Simulation(params, seed=13)
    with ShardedSimulation(
        params, seed=13, shards=4, exchange="event"
    ) as sharded:
        assert base.env.now == sharded._now == 0.0
        for kind in (QueryKind.KNN, QueryKind.WINDOW, QueryKind.KNN):
            reference = base.run_workload(kind, 5, 30)
            candidate = sharded.run_workload(kind, 5, 30)
            assert reference.records == candidate.records
            assert base.share_states() == sharded.share_states()
            assert base.env.now == sharded._now == reference.records[-1].time


def test_lockstep_identity_independent_of_shard_count():
    params = tenth_scale_params()
    streams = []
    for shards in (1, 2, 4, 6):
        with ShardedSimulation(
            params, seed=3, shards=shards, exchange="event"
        ) as sim:
            collector = sim.run_workload(QueryKind.KNN, 5, 40)
            streams.append((collector.records, sim.share_states()))
    for records, states in streams[1:]:
        assert records == streams[0][0]
        assert states == streams[0][1]


def test_cycle_deterministic_across_backends():
    params = tenth_scale_params()
    runs = []
    for backend in ("inprocess", "auto"):
        with ShardedSimulation(
            params, seed=7, shards=4, exchange="cycle", backend=backend
        ) as sim:
            collector = sim.run_workload(QueryKind.KNN, 10, 80)
            runs.append(
                (collector.records, sim.share_states(), sim.traffic_totals())
            )
    assert runs[0] == runs[1]


def test_cycle_warm_caches_still_answer_locally():
    # Sanity on the relaxed mode: the sharded cycle run still resolves
    # a healthy share of queries without the broadcast channel, i.e.
    # the halo exchange is actually delivering cached state.
    params = tenth_scale_params()
    with ShardedSimulation(params, seed=5, shards=4, exchange="cycle") as sim:
        collector = sim.run_workload(QueryKind.KNN, 50, 150)
        assert collector.pct_broadcast < 100.0
        assert sim.traffic_totals()[2] > 0  # some peer responses heard


def test_sharded_mode_rejects_unshardable_features():
    params = tenth_scale_params()
    with pytest.raises(ExperimentError, match="fault injection"):
        ShardedSimulation(params, fault_config=FaultConfig(loss_rate=0.5))
    with pytest.raises(ExperimentError, match="tracing"):
        ShardedSimulation(params, tracer=Tracer())
    with pytest.raises(ExperimentError, match="exchange"):
        ShardedSimulation(params, exchange="nightly")
    with pytest.raises(ExperimentError, match="shard count"):
        ShardedSimulation(params, shards=0)


RETIRED_WORLD_OPTIONS = (
    "position_refresh_interval",
    "p2p_latency",
    "hilbert_order",
    "bucket_capacity",
    "entries_per_index_packet",
    "m",
    "packet_time",
    "speed_range_mph",
    "pause_range_s",
    "cache_gossip",
    "max_regions",
    "max_responders",
)


@pytest.mark.parametrize("world", [Simulation, ShardedSimulation])
def test_retired_world_options_are_rejected(world):
    # Constants now: a caller that still sets one hears so at the call,
    # before any world (or worker) is built.
    for name in RETIRED_WORLD_OPTIONS:
        with pytest.raises(TypeError, match=f"'{name}'"):
            world(tenth_scale_params(), **{name: 1})
    assert multiprocessing.active_children() == []


def _failing_policy_factory():
    # The coordinator probes the factory once before spawning (wire-form
    # check); this one only explodes where the test wants it to.
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("policy factory exploded inside the worker")
    return DirectionDistancePolicy()


@pytest.mark.parametrize(
    "broken",
    [
        {"pois": []},  # ShardWorld construction raises (nothing to broadcast)
        # Hosts are built on first need, so the worker probes the
        # factory while it is constructed (the id predates that).
        {"policy_factory": _failing_policy_factory},
    ],
    ids=["construction", "first-epoch"],
)
def test_failed_construction_leaves_no_worker_processes(broken):
    with pytest.raises(ExperimentError):
        ShardedSimulation(
            tenth_scale_params(), seed=0, shards=4, exchange="cycle",
            backend="process", **broken,
        )
    assert multiprocessing.active_children() == []


def test_worker_that_cannot_start_is_a_typed_error(monkeypatch):
    # The environment never picks the backend: the third worker fails
    # to start, the two already running are reaped, nothing falls back
    # to in-process shards.
    from multiprocessing.process import BaseProcess

    real_start = BaseProcess.start
    started = []

    def flaky_start(process):
        if len(started) == 2:
            raise OSError("cannot fork")
        started.append(process)
        real_start(process)

    monkeypatch.setattr(BaseProcess, "start", flaky_start)
    with pytest.raises(
        ExperimentError, match="could not start worker 2 of 4"
    ) as info:
        ShardedSimulation(
            tenth_scale_params(), seed=0, shards=4, exchange="cycle",
            backend="process",
        )
    assert isinstance(info.value.__cause__, OSError)
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def test_a_killed_worker_is_a_typed_error_not_a_hang():
    # SIGKILL one worker while a long run is under way: the coordinator
    # notices within its poll interval, reaps every worker and raises
    # a ShardError naming the dead shard.
    sim = ShardedSimulation(
        tenth_scale_params(), seed=0, shards=2, exchange="cycle",
        backend="process",
    )
    victim = sim._workers[1]
    killer = threading.Timer(0.5, os.kill, (victim._proc.pid, signal.SIGKILL))
    started = time.monotonic()
    killer.start()
    try:
        with pytest.raises(ShardError) as info:
            sim.run_workload(QueryKind.KNN, 0, 10**6)
    finally:
        killer.join()
    assert time.monotonic() - started < 10.0
    assert info.value.shard_id == 1
    assert info.value.opcode is not None and info.value.epoch >= 0
    assert f"shard worker 1 is gone on opcode {info.value.opcode}" in str(
        info.value
    )
    assert multiprocessing.active_children() == []
    sim.close()  # idempotent after the reaping


# Run in a child interpreter under a timeout: a coordinator that waits
# on a stopped worker forever must fail this test, not stall the suite.
_STALLED_WORKER_RUN = """
import multiprocessing, os, signal, threading, time, warnings
import repro.shard.sim as shard_sim
from repro.errors import ShardError
from repro.shard import ShardedSimulation
from repro.workloads import RIVERSIDE_COUNTY, QueryKind, scaled_parameters

shard_sim.WORKER_REPLY_TIMEOUT_S = 1.0
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    params = scaled_parameters(RIVERSIDE_COUNTY, 0.1)
sim = ShardedSimulation(
    params, seed=0, shards=2, exchange="cycle", backend="process"
)
victim = sim._workers[1]._proc.pid
stopper = threading.Timer(0.5, os.kill, (victim, signal.SIGSTOP))
started = time.monotonic()
stopper.start()
try:
    sim.run_workload(QueryKind.KNN, 0, 10**6)
except ShardError as error:
    print("error", error.shard_id, error.opcode is not None, error.epoch >= 0)
print("elapsed", time.monotonic() - started)
print("children", len(multiprocessing.active_children()))
"""


def test_a_stopped_worker_is_a_typed_error_and_is_reaped():
    # SIGSTOP one worker mid-run: it lives but never replies.  The
    # bounded reply wait (1 s here) turns that into a ShardError, and
    # close() kills the worker that a terminate cannot end.
    child = subprocess.Popen(
        [sys.executable, "-c", _STALLED_WORKER_RUN],
        env=dict(
            os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # The stopped worker is in the child's session: SIGKILL ends
        # it too, stopped or not.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the coordinator waited on a stopped worker")
    assert child.returncode == 0, err
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["error"] == "1 True True"
    assert float(lines["elapsed"]) < 15.0
    assert lines["children"] == "0"


# A worker stopped between epochs never reads the next request: one
# larger than the pipe's buffer (as a full-LA epoch snapshot is) must
# not block the coordinator's send past the bounded wait either.
_STOPPED_READER_RUN = """
import multiprocessing, os, signal, time, warnings
import numpy as np
import repro.shard.sim as shard_sim
from repro.errors import ShardError
from repro.shard import ShardedSimulation
from repro.workloads import RIVERSIDE_COUNTY, QueryKind, scaled_parameters

shard_sim.WORKER_REPLY_TIMEOUT_S = 1.0
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    params = scaled_parameters(RIVERSIDE_COUNTY, 0.1)
sim = ShardedSimulation(
    params, seed=0, shards=2, exchange="cycle", backend="process"
)
sim.run_workload(QueryKind.KNN, 0, 5)
victim = sim._workers[1]
os.kill(victim._proc.pid, signal.SIGSTOP)
started = time.monotonic()
try:
    victim.send("take_hosts", np.arange(2_000_000, dtype=np.int64))
except ShardError as error:
    print("error", error.shard_id, error.opcode is not None, error.epoch >= 0)
print("elapsed", time.monotonic() - started)
sim.close()
print("children", len(multiprocessing.active_children()))
"""


def test_a_send_to_a_stopped_worker_is_a_typed_error():
    # 16 MB to a SIGSTOPped worker: the send waits for room in the
    # pipe for at most the bound (1 s here), then is a ShardError, and
    # close() kills the stopped worker.
    child = subprocess.Popen(
        [sys.executable, "-c", _STOPPED_READER_RUN],
        env=dict(
            os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the coordinator's send waited on a stopped worker")
    assert child.returncode == 0, err
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["error"] == "1 True True"
    assert float(lines["elapsed"]) < 15.0
    assert lines["children"] == "0"


def test_shard_error_survives_pickling():
    error = pickle.loads(pickle.dumps(ShardError(3, 7, 2)))
    assert (error.shard_id, error.opcode, error.epoch) == (3, 7, 2)
    assert str(error) == "shard worker 3 is gone on opcode 7 (epoch 2)"
    assert isinstance(error, ExperimentError)


def test_cycle_lru_policy_deterministic_across_backends():
    # LRUPolicy hosts migrate through their one-byte policy tag, and the
    # introspection calls through their own opcodes: both backends must
    # agree on every observable.
    params = tenth_scale_params()
    runs = []
    for backend in ("inprocess", "process"):
        with ShardedSimulation(
            params, seed=7, shards=4, exchange="cycle", backend=backend,
            policy_factory=LRUPolicy,
        ) as sim:
            collector = sim.run_workload(QueryKind.KNN, 10, 80)
            runs.append(
                (
                    collector.records,
                    sim.share_states(),
                    sim.traffic_totals(),
                    sim.owned_counts(),
                )
            )
    assert runs[0] == runs[1]
    assert sum(runs[0][3]) == params.mh_number


def test_unknown_rpc_method_rejected_before_the_pipe():
    with pytest.raises(ExperimentError, match="no RPC method"):
        rpc.encode_request("drop_all_hosts", ())


class _HomeGrownPolicy(LRUPolicy):
    """Not a stock policy: no wire form."""


def test_custom_policy_needs_an_inprocess_backend():
    params = tenth_scale_params()
    with pytest.raises(ExperimentError, match="_HomeGrownPolicy"):
        ShardedSimulation(
            params, seed=0, shards=4, exchange="cycle", backend="process",
            policy_factory=_HomeGrownPolicy,
        )
    assert multiprocessing.active_children() == []
    with ShardedSimulation(
        params, seed=0, shards=4, exchange="cycle", backend="inprocess",
        policy_factory=_HomeGrownPolicy,
    ) as sim:
        assert len(sim.run_workload(QueryKind.KNN, 0, 20).records) == 20


def test_one_pipeline_under_both_worlds():
    # Structural guard: the query pipeline and the snapshot reads
    # cannot quietly fork again.
    for name in (
        "_peer_ids", "_gather", "_run_query", "_spread_overheard",
        "_execute", "host_position", "host_heading", "_snapshot_rows",
    ):
        assert getattr(Simulation, name) is getattr(ShardWorld, name), name


def test_lockstep_shard_snapshots_are_slices_of_the_fleet_snapshot():
    params = tenth_scale_params()
    base = Simulation(params, seed=5)
    with ShardedSimulation(
        params, seed=5, shards=4, exchange="event"
    ) as sharded:
        for _ in range(3):  # 3 x 40 queries crosses refresh epochs
            base.run_workload(QueryKind.KNN, 0, 40)
            sharded.run_workload(QueryKind.KNN, 0, 40)
            assert sharded._last_refresh == base._last_refresh
            covered = set()
            for worker in sharded._workers:
                world = worker.world
                for gid in world.network.ids.tolist():
                    assert world.host_position(gid) == base.host_position(gid)
                    assert world.host_heading(gid) == base.host_heading(gid)
                covered |= set(world.network.ids[world._owned_mask].tolist())
                foreign = next(
                    gid for gid in range(params.mh_number)
                    if gid not in set(world.network.ids.tolist())
                )
                with pytest.raises(ExperimentError, match="unknown host"):
                    world.host_position(foreign)
                with pytest.raises(ExperimentError, match="unknown host"):
                    world.host_heading(-1)
            assert covered == set(range(params.mh_number))


def test_lockstep_refuses_the_process_backend():
    # Lockstep runs in-process; an explicit request for process workers
    # is refused, never quietly run in-process.  "auto" resolves.
    params = tenth_scale_params()
    with pytest.raises(ExperimentError, match="no process backend"):
        ShardedSimulation(params, exchange="event", backend="process")
    with ShardedSimulation(params, shards=2, exchange="event") as sim:
        assert sim.backend == "inprocess"
