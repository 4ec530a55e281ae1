"""An owned host is absent until it first needs a cache.

A :class:`~repro.shard.ShardWorld` builds a :class:`MobileHost` only
when the host issues a query, overhears a result or is sent an overhear
op.  Absence means generation 0 — an empty cache — so every read of the
shard must answer for an absent host exactly as for a fresh one, and a
migration ships only hosts that have cached something.  These tests
drive the contract on the in-process backend, where the worlds can be
inspected directly.
"""

import warnings

import pytest

from repro.errors import ExperimentError
from repro.p2p import ShareResponse
from repro.shard import ShardedSimulation, ShardWorld
from repro.workloads import (
    RIVERSIDE_COUNTY,
    QueryKind,
    ScalingClampWarning,
    scaled_parameters,
)

EMPTY = (0, (), ())


def tenth_scale_params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalingClampWarning)
        return scaled_parameters(RIVERSIDE_COUNTY, 0.1)


def inprocess_sim(**kwargs):
    return ShardedSimulation(
        tenth_scale_params(), seed=7, shards=4, exchange="cycle",
        backend="inprocess", **kwargs,
    )


def worlds(sim):
    return [worker.world for worker in sim._workers]


def owned_ids(world):
    """The snapshot ids the world's owned mask gives it, ascending."""
    return world.network.ids[world._owned_mask].tolist()


def halo_ids(world):
    return world.network.ids[~world._owned_mask].tolist()


def test_a_fresh_world_builds_no_host():
    with inprocess_sim() as sim:
        assert all(world.hosts == {} for world in worlds(sim))
        assert all(world._reported == {} for world in worlds(sim))


def test_never_touched_hosts_are_listed_empty_and_stay_unbuilt():
    with inprocess_sim() as sim:
        sim.run_workload(QueryKind.KNN, 0, 40)
        for world in worlds(sim):
            owned = owned_ids(world)
            built = dict(world.hosts)
            states = world.share_states()
            assert list(states) == owned == sorted(set(owned))
            absent = [gid for gid in owned if gid not in built]
            assert absent, "a 40-query run touches only a few hosts"
            assert all(states[gid] == EMPTY for gid in absent)
            # Listing an absent host does not build it.
            assert world.hosts == built
            assert world._reported.keys() == built.keys()
        assert sorted(sim.share_states()) == list(
            range(tenth_scale_params().mh_number)
        )


def test_owned_count_export_and_responder_answer_for_absent_hosts():
    params = tenth_scale_params()
    with inprocess_sim() as sim:
        counts = sim.owned_counts()
        assert sum(counts) == params.mh_number
        for world, count in zip(worlds(sim), counts):
            owned = owned_ids(world)
            assert count == len(owned)
            gid = owned[0]
            assert world._responder(gid) is None
            (response,) = world.export_payloads([gid])
            assert (response.peer_id, response.generation) == (gid, 0)
            assert (response.regions, response.pois) == ((), ())
            assert isinstance(response, ShareResponse)
            foreign = halo_ids(world)[0]
            with pytest.raises(ExperimentError, match="foreign host"):
                world.export_payloads([foreign])
            assert world.hosts == {}


def test_a_generation_zero_host_migrates_as_nothing():
    with inprocess_sim() as sim:
        world = worlds(sim)[0]
        owned = owned_ids(world)
        built, untouched = owned[0], owned[1]
        host = world._owned(built)
        assert host.cache.generation == 0
        assert world._reported == {built: 0}
        assert world.take_hosts([built, untouched]) == []
        assert world.hosts == {} and world._reported == {}
        with pytest.raises(ExperimentError, match="unowned host"):
            world.take_hosts([halo_ids(world)[0]])


def test_only_hosts_with_cached_state_migrate(monkeypatch):
    shipped, asked = [], []
    real_take = ShardWorld.take_hosts

    def recording_take(world, gids):
        hosts = real_take(world, gids)
        asked.extend(gids)
        shipped.extend(hosts)
        return hosts

    monkeypatch.setattr(ShardWorld, "take_hosts", recording_take)
    with inprocess_sim() as sim:
        sim.run_workload(QueryKind.KNN, 0, 120)
    assert shipped, "the run must cross a refresh epoch with cached hosts"
    assert all(host.cache.generation > 0 for host in shipped)
    assert len(shipped) < len(asked)


def test_a_dropped_host_with_cached_state_is_a_hard_error(monkeypatch):
    dropped = []
    real_take = ShardWorld.take_hosts

    def lossy_take(world, gids):
        hosts = real_take(world, gids)
        if hosts and not dropped:
            dropped.append(hosts.pop())
        return hosts

    monkeypatch.setattr(ShardWorld, "take_hosts", lossy_take)
    with inprocess_sim() as sim:
        with pytest.raises(ExperimentError, match="lost migration"):
            sim.run_workload(QueryKind.KNN, 0, 120)
    assert dropped and dropped[0].cache.generation > 0


def test_ids_outside_the_snapshot_and_halo_ids_are_not_owned():
    params = tenth_scale_params()
    with inprocess_sim() as sim:
        sim.run_workload(QueryKind.KNN, 0, 40)
        for world in worlds(sim):
            listed = set(world.network.ids.tolist())
            outside = [
                gid for gid in range(-1, params.mh_number + 1)
                if gid not in listed
            ]
            assert outside, "a quarter tile plus its halo is not the fleet"
            built = dict(world.hosts)
            for gid in (outside[0], outside[-1], halo_ids(world)[0]):
                assert world._owned(gid) is None
                with pytest.raises(ExperimentError, match="foreign host"):
                    world.export_payloads([owned_ids(world)[0], gid])
                with pytest.raises(ExperimentError, match="unowned host"):
                    world.take_hosts([gid])
            assert world.hosts == built

