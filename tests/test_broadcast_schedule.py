"""Tests for (1, m) broadcast-cycle timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BroadcastError
from repro.broadcast import BroadcastSchedule, BroadcastServer
from repro.geometry import Point, Rect
from repro.workloads import generate_pois


class TestLayout:
    def test_validation(self):
        with pytest.raises(BroadcastError):
            BroadcastSchedule(0, 1)
        with pytest.raises(BroadcastError):
            BroadcastSchedule(10, 0)
        with pytest.raises(BroadcastError):
            BroadcastSchedule(10, 1, m=0)
        with pytest.raises(BroadcastError):
            BroadcastSchedule(10, 1, packet_time=0)

    def test_cycle_length_formula(self):
        # (1, m): cycle = m * index + data  (Figure 2 of the paper).
        sched = BroadcastSchedule(data_bucket_count=100, index_packet_count=5, m=4)
        assert sched.cycle_packets == 4 * 5 + 100

    def test_m_clamped_to_bucket_count(self):
        sched = BroadcastSchedule(data_bucket_count=2, index_packet_count=3, m=10)
        assert sched.m == 2
        assert sched.cycle_packets == 2 * 3 + 2

    def test_bucket_offsets_strictly_increase(self):
        sched = BroadcastSchedule(97, 4, m=3)
        offsets = [sched.bucket_offset(b) for b in range(97)]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == 97

    def test_unknown_bucket_raises(self):
        sched = BroadcastSchedule(10, 2)
        with pytest.raises(BroadcastError):
            sched.bucket_offset(10)

    def test_index_interleaving(self):
        sched = BroadcastSchedule(data_bucket_count=8, index_packet_count=2, m=2)
        # Layout: I I d0 d1 d2 d3 I I d4 d5 d6 d7
        assert sched.bucket_offset(0) == 2
        assert sched.bucket_offset(3) == 5
        assert sched.bucket_offset(4) == 8
        assert sched.cycle_packets == 12


class TestTiming:
    def make(self):
        return BroadcastSchedule(
            data_bucket_count=8, index_packet_count=2, m=2, packet_time=1.0
        )

    def test_next_index_start(self):
        sched = self.make()
        assert sched.next_index_start(0.0) == 0.0
        assert sched.next_index_start(0.5) == 6.0
        assert sched.next_index_start(6.0) == 6.0
        assert sched.next_index_start(6.5) == 12.0  # next cycle
        assert sched.next_index_start(12.0) == 12.0

    def test_next_bucket_end(self):
        sched = self.make()
        # Bucket 0 airs during [2, 3) each cycle.
        assert sched.next_bucket_end(0, 0.0) == 3.0
        assert sched.next_bucket_end(0, 2.0) == 3.0
        assert sched.next_bucket_end(0, 2.5) == 15.0  # missed its start
        assert sched.next_bucket_end(0, 13.0) == 15.0

    def test_retrieve_empty_bucket_list(self):
        sched = self.make()
        cost = sched.retrieve(0.0, [])
        # Probe + full index, no data.
        assert cost.buckets_downloaded == 0
        assert cost.tuning_packets == 1 + 2
        assert cost.access_latency > 0

    def test_retrieve_single_bucket(self):
        sched = self.make()
        cost = sched.retrieve(0.0, [0])
        # Probe ends at 1.0 -> next index at 6.0, read 2 -> 8.0;
        # bucket 0 next airs at 14.0, done at 15.0.
        assert cost.finish_time == 15.0
        assert cost.access_latency == 15.0
        assert cost.tuning_packets == 1 + 2 + 1

    def test_retrieve_all_buckets_fits_one_cycle(self):
        sched = self.make()
        cost = sched.retrieve(0.0, list(range(8)))
        assert cost.access_latency <= 1 + sched.cycle_duration + 2 + 12

    def test_index_read_packets_validation(self):
        sched = self.make()
        with pytest.raises(BroadcastError):
            sched.retrieve(0.0, [0], index_read_packets=0)
        with pytest.raises(BroadcastError):
            sched.retrieve(0.0, [0], index_read_packets=3)

    def test_fewer_buckets_never_slower(self):
        sched = BroadcastSchedule(50, 3, m=5, packet_time=0.5)
        t = 7.3
        full = sched.retrieve(t, list(range(50)))
        half = sched.retrieve(t, list(range(0, 50, 2)))
        one = sched.retrieve(t, [25])
        assert half.access_latency <= full.access_latency
        assert one.access_latency <= half.access_latency
        assert one.tuning_packets < half.tuning_packets < full.tuning_packets

    def test_shallow_index_read_never_slower(self):
        sched = BroadcastSchedule(60, 6, m=3)
        deep = sched.retrieve(1.0, [10, 40], index_read_packets=6)
        shallow = sched.retrieve(1.0, [10, 40], index_read_packets=2)
        assert shallow.access_latency <= deep.access_latency
        assert shallow.tuning_packets < deep.tuning_packets


class TestTimingProperties:
    @given(
        st.integers(1, 200),
        st.integers(1, 20),
        st.integers(1, 8),
        st.floats(0.01, 2.0),
        st.floats(0, 500),
        st.lists(st.integers(0, 199), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_latency_bounded_by_two_cycles(
        self, buckets, index_packets, m, packet_time, t_query, wanted
    ):
        sched = BroadcastSchedule(buckets, index_packets, m, packet_time)
        wanted = [b for b in wanted if b < buckets]
        cost = sched.retrieve(t_query, wanted)
        assert cost.access_latency > 0
        # Probe (<= 2 packets) + wait for index (< cycle) + index read
        # + all buckets (< cycle + packet).
        bound = (
            2 * sched.packet_time
            + 2 * sched.cycle_duration
            + sched.index_packet_count * sched.packet_time
            + sched.packet_time
        )
        assert cost.access_latency <= bound + 1e-6

    @given(st.integers(1, 100), st.integers(1, 10), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_every_bucket_airs_once_per_cycle(self, buckets, index_packets, m):
        sched = BroadcastSchedule(buckets, index_packets, m)
        for b in range(buckets):
            first = sched.next_bucket_end(b, 0.0)
            second = sched.next_bucket_end(b, first)
            assert second - first == pytest.approx(sched.cycle_duration)


class TestIndexReplicationTradeoff:
    def test_1m_index_tradeoff(self):
        """Figure 2 / Section 2.1 (Imielinski et al.): more index copies
        shorten the wait for an index segment until the longer cycle
        bites, while tuning time barely depends on m."""
        bounds = Rect(0, 0, 20, 20)
        rng = np.random.default_rng(0)
        pois = generate_pois(bounds, 800, rng)
        server = BroadcastServer(
            pois, bounds, hilbert_order=6, bucket_capacity=4,
            entries_per_index_packet=64,
        )
        queries = [
            (Point(float(x), float(y)), float(t))
            for x, y, t in rng.uniform(0, 20, (120, 3))
        ]
        latency, tuning = {}, {}
        for m in (1, 2, 4, 8, 16):
            schedule = BroadcastSchedule(
                data_bucket_count=server.bucket_count,
                index_packet_count=server.index.packet_count,
                m=m,
                packet_time=0.1,
            )
            costs = []
            for q, t in queries:
                values = server.grid.values_intersecting(
                    Rect(q.x - 1, q.y - 1, q.x + 1, q.y + 1).intersection(bounds)
                )
                buckets = server.buckets_in_range(values[0], values[-1])
                costs.append(
                    schedule.retrieve(t * schedule.cycle_duration / 20, buckets)
                )
            latency[m] = np.mean([c.access_latency for c in costs])
            tuning[m] = np.mean([c.tuning_packets for c in costs])
        # Replicating the index helps latency at first ...
        assert latency[4] < latency[1]
        # ... but the cycle bloat eventually bites (m=16 vs the optimum).
        assert latency[16] >= min(latency.values())
        # Tuning time barely depends on m (probe + index read + data).
        assert max(tuning.values()) - min(tuning.values()) < 3.0
