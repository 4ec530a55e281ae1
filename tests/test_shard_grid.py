"""Shard grid decomposition and cross-boundary host migration.

The grid contract: every in-bounds position has exactly one owner
shard, the owner's halo-expanded rectangle contains the position, and
halo membership is exactly "within halo_width of the tile".  The
migration contract: as the fleet drifts across tile boundaries, hosts
are conserved (each owned by exactly one shard per epoch) and their
cache state travels with them — a host that cached something before
migrating still answers with it afterwards.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.geometry import Rect
from repro.shard import ShardedSimulation, ShardGrid
from repro.shard.grid import near_square_factoring
from repro.workloads import (
    RIVERSIDE_COUNTY,
    QueryKind,
    ScalingClampWarning,
    scaled_parameters,
)

BOUNDS = Rect(0.0, 0.0, 20.0, 20.0)


class TestFactoring:
    @given(st.integers(min_value=1, max_value=500))
    def test_factoring_is_exact_and_near_square(self, n):
        cols, rows = near_square_factoring(n)
        assert cols * rows == n
        assert cols >= rows >= 1
        # No better (more square) factoring exists.
        for candidate_rows in range(rows + 1, int(n**0.5) + 1):
            assert n % candidate_rows != 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ExperimentError):
            near_square_factoring(0)


class TestShardGrid:
    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0),
                st.floats(min_value=0.0, max_value=20.0),
            ),
            min_size=1,
            max_size=64,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_position_has_exactly_one_owner(self, n, points):
        grid = ShardGrid(BOUNDS, n, halo_width=0.2)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        owner = grid.owner_of(xs, ys)
        assert ((owner >= 0) & (owner < n)).all()
        membership = np.stack(
            [grid.member_mask(s, xs, ys) for s in range(n)]
        )
        # The owner's halo-expanded tile always contains the point...
        assert membership[owner, np.arange(len(points))].all()
        # ...and tiles alone (no halo) partition the world: each point
        # strictly inside a tile is owned by that tile.
        for shard in range(n):
            rect = grid.rect_of(shard)
            inside = (
                (xs > rect.x1) & (xs < rect.x2)
                & (ys > rect.y1) & (ys < rect.y2)
            )
            assert (owner[inside] == shard).all()

    def test_tiles_partition_bounds(self):
        grid = ShardGrid(BOUNDS, 6, halo_width=0.2)
        area = sum(grid.rect_of(s).area for s in range(6))
        assert area == pytest.approx(BOUNDS.area)

    def test_halo_wider_than_tile_rejected(self):
        with pytest.raises(ExperimentError, match="halo width"):
            ShardGrid(BOUNDS, 16, halo_width=6.0)

    def test_single_shard_owns_everything(self):
        grid = ShardGrid(BOUNDS, 1, halo_width=0.5)
        xs = np.linspace(0, 20, 17)
        assert (grid.owner_of(xs, xs) == 0).all()


class TestMigration:
    """Hosts drifting across shard boundaries over many refresh epochs."""

    def _run(self, seed, shards, measure=120):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalingClampWarning)
            params = scaled_parameters(RIVERSIDE_COUNTY, 0.1)
        with ShardedSimulation(
            params, seed=seed, shards=shards, exchange="cycle",
            backend="inprocess",
        ) as sim:
            first_owner = sim._owner.copy()
            collector = sim.run_workload(QueryKind.KNN, 0, measure)
            counts = sim.owned_counts()
            assert counts == [
                int(worker.world._owned_mask.sum()) for worker in sim._workers
            ]
            states = sim.share_states()
            last_owner = sim._owner.copy()
            return params, collector, counts, states, first_owner, last_owner

    @pytest.mark.parametrize("seed", [0, 13])
    def test_hosts_conserved_across_epochs(self, seed):
        params, collector, counts, states, _, _ = self._run(seed, shards=4)
        # Every host owned by exactly one shard after a long drift...
        assert sum(counts) == params.mh_number
        # ...and every host's cache is reachable exactly once.
        assert sorted(states) == list(range(params.mh_number))
        assert len(collector.records) == 120

    def test_migrating_hosts_keep_their_caches(self):
        # Some hosts must both cross a tile boundary during the run
        # AND end it holding cached content — the fingerprint shows
        # their cache travelled with them rather than being reset by
        # the migration.
        params, _, _, states, first_owner, last_owner = self._run(
            0, shards=4, measure=250
        )
        migrated = np.nonzero(first_owner != last_owner)[0].tolist()
        assert migrated, "fleet never crossed a shard boundary"
        migrated_warm = [
            gid for gid in migrated
            if states[gid][0] > 0 and states[gid][1]
        ]
        assert migrated_warm, "no migrated host kept cached content"
        for gid in migrated_warm:
            generation, regions, pois = states[gid]
            assert all(len(region) == 4 for region in regions)
