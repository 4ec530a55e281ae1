"""Tests for the ``REPRO_CHECK`` runtime invariant seams."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.broadcast.schedule import RetrievalCost
from repro.cache import POICache, VerifiedRegion
from repro.check import invariants
from repro.check.invariants import (
    InvariantViolation,
    check_cache,
    check_enabled,
    check_heap,
    check_record,
    check_retrieval_cost,
    check_traffic,
    check_union,
    set_check_enabled,
)
from repro.core import Resolution
from repro.core.heap import HeapEntry, ResultHeap
from repro.experiments.metrics import QueryRecord
from repro.geometry import Point, Rect, RectUnion, SlabUnion
from repro.model import POI
from repro.workloads import QueryKind


@pytest.fixture()
def checks_on():
    previous = set_check_enabled(True)
    yield
    set_check_enabled(previous)


class TestGate:
    def test_set_and_restore(self):
        previous = set_check_enabled(True)
        try:
            assert check_enabled()
            assert set_check_enabled(False) is True
            assert not check_enabled()
        finally:
            set_check_enabled(previous)

    def test_seams_are_noops_when_disabled(self):
        # The production seams guard on check_enabled(); by default
        # (no REPRO_CHECK=1 in the test env) the gate is off.
        assert invariants.check_enabled() in (True, False)


def make_heap(entries, k=3):
    heap = ResultHeap(k)
    heap._entries = list(entries)
    return heap


def entry(poi_id, distance, verified, correctness=None):
    return HeapEntry(
        POI(poi_id, Point(distance, 0.0)),
        distance,
        verified,
        correctness=correctness,
    )


class TestCheckHeap:
    def test_legal_heap_passes(self, checks_on):
        heap = make_heap(
            [entry(1, 1.0, True), entry(2, 2.0, True), entry(3, 3.0, False, 0.9)]
        )
        check_heap(heap)

    def test_over_capacity(self, checks_on):
        heap = make_heap([entry(i, float(i), True) for i in range(5)], k=3)
        with pytest.raises(InvariantViolation, match="capacity"):
            check_heap(heap)

    def test_duplicate_ids(self, checks_on):
        heap = make_heap([entry(1, 1.0, True), entry(1, 2.0, True)])
        with pytest.raises(InvariantViolation, match="duplicate"):
            check_heap(heap)

    def test_out_of_order(self, checks_on):
        heap = make_heap([entry(1, 2.0, True), entry(2, 1.0, True)])
        with pytest.raises(InvariantViolation, match="order"):
            check_heap(heap)

    def test_verified_after_unverified(self, checks_on):
        heap = make_heap([entry(1, 1.0, False, 0.9), entry(2, 2.0, True)])
        with pytest.raises(InvariantViolation, match="verified"):
            check_heap(heap)

    def test_correctness_out_of_range(self, checks_on):
        heap = make_heap([entry(1, 1.0, True), entry(2, 2.0, False, 1.5)])
        with pytest.raises(InvariantViolation, match="correctness"):
            check_heap(heap)

    def test_annotations_form_a_far_end_suffix(self, checks_on):
        # what an early stop leaves: the far entries annotated only
        check_heap(make_heap(
            [entry(1, 1.0, True), entry(2, 2.0, False), entry(3, 3.0, False, 0.2)]
        ))
        check_heap(make_heap([entry(i, float(i), False) for i in (1, 2, 3)]))
        heap = make_heap(
            [entry(1, 1.0, False), entry(2, 2.0, False, 0.9), entry(3, 3.0, False)]
        )
        with pytest.raises(InvariantViolation, match="beyond an annotated"):
            check_heap(heap)
        heap = make_heap([entry(1, 1.0, True, 0.9), entry(2, 2.0, False, 0.8)])
        with pytest.raises(InvariantViolation, match="verified poi 1 carries"):
            check_heap(heap)

    def test_accepted_heap_is_annotated_at_or_above_the_threshold(self, checks_on):
        full = [entry(1, 1.0, True), entry(2, 2.0, False, 0.8), entry(3, 3.0, False, 0.5)]
        check_heap(make_heap(full), accepted_at=0.5)
        with pytest.raises(InvariantViolation, match="< threshold 0.6"):
            check_heap(make_heap(full), accepted_at=0.6)
        stopped = [entry(1, 1.0, True), entry(2, 2.0, False), entry(3, 3.0, False, 0.9)]
        check_heap(make_heap(stopped))
        with pytest.raises(InvariantViolation, match="without a Lemma 3.2"):
            check_heap(make_heap(stopped), accepted_at=0.5)


def make_record(**overrides):
    fields = dict(
        time=0.0,
        host_id=0,
        kind=QueryKind.KNN,
        resolution=Resolution.VERIFIED,
        access_latency=0.1,
        tuning_packets=0,
        buckets_downloaded=0,
        peer_count=1,
        k=2,
        result_size=2,
    )
    fields.update(overrides)
    return QueryRecord(**fields)


class TestCheckRecord:
    def test_legal_record_passes(self, checks_on):
        check_record(make_record())

    def test_covered_fraction_out_of_range(self, checks_on):
        record = make_record(
            kind=QueryKind.WINDOW, covered_fraction_missing=1.5
        )
        with pytest.raises(InvariantViolation, match="covered_fraction"):
            check_record(record)

    def test_negative_latency(self, checks_on):
        with pytest.raises(InvariantViolation, match="latency"):
            check_record(make_record(access_latency=-0.5))


class TestCheckTraffic:
    def test_conservation_holds(self, checks_on):
        check_traffic(
            SimpleNamespace(requests_sent=3, responses_received=2, peers_heard=4)
        )

    def test_responses_exceed_heard(self, checks_on):
        with pytest.raises(InvariantViolation, match="responses"):
            check_traffic(
                SimpleNamespace(
                    requests_sent=1, responses_received=5, peers_heard=2
                )
            )

    def test_heard_without_request(self, checks_on):
        with pytest.raises(InvariantViolation, match="request"):
            check_traffic(
                SimpleNamespace(
                    requests_sent=0, responses_received=0, peers_heard=2
                )
            )


class TestCheckRetrievalCost:
    def make_cost(self, **overrides):
        fields = dict(
            access_latency=2.0,
            tuning_packets=4,
            finish_time=2.0,
            buckets_downloaded=3,
            index_latency=0.5,
            recovery_latency=0.0,
        )
        fields.update(overrides)
        return RetrievalCost(**fields)

    def test_legal_cost_passes(self, checks_on):
        check_retrieval_cost(self.make_cost(), planned_buckets=3)

    def test_phases_exceed_total(self, checks_on):
        cost = self.make_cost(index_latency=1.5, recovery_latency=1.0)
        with pytest.raises(InvariantViolation, match="phases"):
            check_retrieval_cost(cost, planned_buckets=3)

    def test_fewer_buckets_than_planned(self, checks_on):
        with pytest.raises(InvariantViolation, match="planned"):
            check_retrieval_cost(self.make_cost(), planned_buckets=5)

    def test_tuning_below_floor(self, checks_on):
        cost = self.make_cost(tuning_packets=2)
        with pytest.raises(InvariantViolation, match="tuning"):
            check_retrieval_cost(cost, planned_buckets=3)


class TestCheckCache:
    def test_cache_within_caps_passes(self, checks_on):
        cache = POICache(capacity=4, max_regions=4)
        cache.insert_result(
            [(Rect(0, 0, 1, 1), [POI(1, Point(0.5, 0.5))])],
            0.0,
            Point(0, 0),
            (1.0, 0.0),
        )
        check_cache(cache)

    def test_overfull_cache_detected(self, checks_on):
        cache = POICache(capacity=1, max_regions=4)
        cache._items[1] = object()
        cache._items[2] = object()
        with pytest.raises(InvariantViolation, match="capacity"):
            check_cache(cache)

    @staticmethod
    def planted(*rects, moved=()):
        cache = POICache(capacity=4, max_regions=4)
        cache._regions = [VerifiedRegion(r, 0.0) for r in rects]
        cache._moved = moved
        return cache

    def test_settled_containment_detected(self, checks_on):
        cache = self.planted(Rect(0, 0, 4, 4), Rect(5, 5, 7, 7), Rect(1, 1, 2, 2))
        with pytest.raises(InvariantViolation, match="inside the earlier"):
            check_cache(cache)
        # Unsettled, a containment is what the next settle drops.
        cache._moved = list(cache._regions[2:])
        check_cache(cache)

    def test_settled_area_order_detected(self, checks_on):
        cache = self.planted(Rect(0, 0, 1, 1), Rect(5, 5, 7, 7))
        with pytest.raises(InvariantViolation, match="area order"):
            check_cache(cache)

    def test_degenerate_region_detected(self, checks_on):
        cache = self.planted(Rect(0, 0, 4, 4), Rect(5, 5, 5, 7), moved=None)
        with pytest.raises(InvariantViolation, match="degenerate"):
            check_cache(cache)

    def test_seam_holds_through_world_shaped_churn(self, checks_on):
        cache = POICache(capacity=50, max_regions=50)
        for i in range(300):
            x, y = 7.0 * (i % 17), 5.0 * (i % 13)
            region = Rect(x, y, x + 9.0 + i % 5, y + 6.0 + i % 7)
            pois = [POI(4 * i + j, Point(x + j + 0.5, y + 0.5)) for j in range(4)]
            cache.insert_result([(region, pois)], float(i), Point(x, y), (1.0, 0.0))
        assert len(cache) == 50 and len(cache.regions) > 25


class TestCheckUnion:
    RECTS = [Rect(i, 0, i + 2, 1 + i % 3) for i in range(24)]

    def test_lazy_eager_and_subtracted_unions_pass(self, checks_on):
        inside, outside = Point(1.0, 0.5), Point(-3.0, 0.5)
        # what a subtraction leaves: fragments abutting along the cuts
        remainder = SlabUnion.from_rects(self.RECTS[::2]).subtract_from_rect(
            Rect(-1, -1, 30, 5)
        )
        assert len(remainder) >= 16
        for union in (
            SlabUnion.from_rects(self.RECTS),
            SlabUnion.from_rects(self.RECTS[:3]),
            RectUnion(self.RECTS),
            SlabUnion.from_rects([]),
            SlabUnion.from_rects(remainder),
            SlabUnion.from_rects(remainder[:5]),
        ):
            check_union(union, inside)
            check_union(union, outside)

    def test_wrong_boundary_distance_detected(self, checks_on):
        union = SlabUnion.from_rects(self.RECTS)
        ax, ay, dx, dy, len_sq = union._boundary_coord_arrays()
        # drop the nearest edge, as a kernel that lost a segment would
        union._memo["boundary_arrays"] = (
            ax[2:], ay[2:], dx[2:], dy[2:], len_sq[2:]
        )
        with pytest.raises(InvariantViolation, match="distance_to_boundary"):
            check_union(union, Point(0.25, 0.125))

    def test_wrong_disc_area_detected(self, checks_on):
        # a piece short, as a run-length read that lost a run would be
        union = SlabUnion.from_rects(self.RECTS)
        union._memo["piece_table"] = tuple(c[1:] for c in union.piece_table())
        with pytest.raises(InvariantViolation, match="disc area"):
            check_union(union, Point(0.25, 0.125))
        # the built-in discs pass here; the heap's, batched, do not
        union = SlabUnion.from_rects(self.RECTS)
        union._memo["piece_table"] = tuple(c[:-1] for c in union.piece_table())
        with pytest.raises(InvariantViolation, match="disc area"):
            check_union(union, Point(24.5, 0.5), radii=[0.1, 0.4])

    def test_annotate_seam_fires(self, checks_on, monkeypatch):
        from repro.core import sbnn
        from repro.geometry.region import DiscPieces
        from repro.p2p import ShareResponse

        # k=2 from one peer: the near POI verifies, the far one does
        # not, the heap is full — the annotation decides the answer
        pois = (POI(0, Point(1.0, 0.6)), POI(1, Point(1.9, 0.5)))
        response = ShareResponse(0, tuple(self.RECTS), pois, generation=1)
        outcome = sbnn(Point(1.0, 0.5), [response], 2, poi_density=0.1)
        assert outcome.annotated and "slabs" not in outcome.read.mvr._memo
        # wrong only in the batch the heap's farthest disc prepares:
        # nnv's own check_union, with no radii, cannot see it
        far = outcome.heap.last_distance
        real = DiscPieces._covered
        monkeypatch.setattr(
            DiscPieces,
            "_covered",
            lambda self, circle: real(self, circle)
            / (2.0 if self.reach == far else 1.0),
        )
        with pytest.raises(InvariantViolation, match="disc area"):
            sbnn(Point(1.0, 0.5), [response], 2, poi_density=0.1)

    WINDOWS = [
        Rect(3.0, 0.25, 9.0, 0.75),   # covered
        Rect(3.5, 0.5, 30.0, 2.5),    # straddles the extent
        Rect(4.0, 0.0, 10.0, 1.0),    # every edge on a member cut
        Rect(26.0, 3.0, 28.0, 4.0),   # touches a corner only
        Rect(5.0, 0.5, 5.0, 2.0),     # degenerate
    ]

    def test_window_reads_pass(self, checks_on):
        for window in self.WINDOWS:
            for union in (
                SlabUnion.from_rects(self.RECTS),
                SlabUnion.from_rects(self.RECTS[:3]),
                RectUnion(self.RECTS),
                SlabUnion.from_rects([]),
            ):
                check_union(union, window.center, window)

    def test_wrong_cover_and_remainder_detected(self, checks_on, monkeypatch):
        union = SlabUnion.from_rects(self.RECTS)
        window = self.WINDOWS[1]
        with monkeypatch.context() as patch:
            patch.setattr(SlabUnion, "covers_rect", lambda self, w: True)
            with pytest.raises(InvariantViolation, match="covers_rect"):
                check_union(union, window.center, window)
        # one fragment short, as a kernel that dropped a slab would be
        real = SlabUnion.subtract_from_rect
        monkeypatch.setattr(
            SlabUnion, "subtract_from_rect", lambda self, w: real(self, w)[1:]
        )
        with pytest.raises(InvariantViolation, match="subtract_from_rect"):
            check_union(union, window.center, window)

    def test_window_seam_fires_on_corrupted_cuts(self, checks_on, monkeypatch):
        from repro.experiments.host import MobileHost
        from repro.geometry import slabunion
        from repro.p2p import ShareResponse

        host = MobileHost(0, POICache(8))
        responses = [
            ShareResponse(i, (rect,), (), generation=1)
            for i, rect in enumerate(self.RECTS)
        ]
        window = Rect(3.5, 0.25, 9.5, 0.75)
        outcome = host.resolve_window(window, responses)
        assert outcome.resolution is Resolution.VERIFIED
        assert "slabs" not in outcome.mvr._memo
        # the memoised cuts lose x=5 and x=6: no member is as wide as
        # the slab 4..7, and the window looks uncovered there
        cuts = outcome.mvr._memo["x_cuts"]
        outcome.mvr._memo["x_cuts"] = [x for x in cuts if x not in (5, 6)]
        with pytest.raises(InvariantViolation, match="covers_rect"):
            check_union(outcome.mvr, window.center, window)
        # every query merges afresh, so the seam sees the fault only
        # when the kernel itself produces it
        real = slabunion.x_cuts
        monkeypatch.setattr(
            slabunion,
            "x_cuts",
            lambda rects: [x for x in real(rects) if x not in (5, 6)],
        )
        with pytest.raises(InvariantViolation, match="covers_rect"):
            host.resolve_window(window, responses)
        with pytest.raises(InvariantViolation, match="covers_rect"):
            host.execute_window(
                window.center, (1.0, 0.0), window, responses, None, now=0.0
            )

    def test_nnv_seam_fires(self, checks_on, monkeypatch):
        from repro.core import nnv
        from repro.p2p import ShareResponse

        monkeypatch.setattr(
            SlabUnion, "contains_point", lambda self, p: False
        )
        mvr = SlabUnion.from_rects(self.RECTS)
        response = ShareResponse(0, tuple(self.RECTS), (), generation=1)
        with pytest.raises(InvariantViolation, match="contains_point"):
            nnv(Point(1.0, 0.5), [response], 1, mvr=mvr)


class TestReuseSeams:
    """The host answers from NNV's one peer read; under checks each
    answer is recomputed from scratch and any disagreement raises."""

    VR = Rect(0, 0, 10, 10)
    POIS = (POI(0, Point(5.0, 5.2)), POI(1, Point(6.0, 5.0)),
            POI(2, Point(9.0, 9.0)))

    def outcome(self):
        from repro.core import sbnn
        from repro.p2p import ShareResponse

        response = ShareResponse(1, (self.VR,), self.POIS, generation=1)
        return sbnn(Point(5.0, 5.0), [response], 2, poi_density=0.1)

    def test_reads_agree_with_checks_on(self, checks_on):
        from repro.experiments.host import MobileHost

        outcome = self.outcome()
        assert outcome.resolution is Resolution.VERIFIED
        assert outcome.read.boundary_distance == 5.0
        host = MobileHost(0, POICache(8))
        shared = host._gossip_cache(
            Point(5.0, 5.0), (1.0, 0.0), outcome.read, 0.0, None
        )
        [(region, pois)] = shared
        assert pois == tuple(outcome.read.pois_within(region))
        assert [p.poi_id for p in pois] == [0, 1]

    def test_wrong_gather_detected(self, checks_on, monkeypatch):
        from repro.core.nnv import PeerRead

        read = self.outcome().read
        real = PeerRead.first
        monkeypatch.setattr(
            PeerRead, "first", lambda self, within=None: real(self, within)[1:]
        )
        with pytest.raises(InvariantViolation, match="reused read"):
            read.pois_within(self.VR)

    def test_wrong_d_star_detected(self, checks_on):
        from repro.experiments.host import MobileHost

        read = self.outcome().read
        read.boundary_distance = 4.0
        host = MobileHost(0, POICache(8))
        with pytest.raises(InvariantViolation, match="d\\*"):
            host._gossip_cache(Point(5.0, 5.0), (1.0, 0.0), read, 0.0, None)
        read.boundary_distance = -np.inf  # as if the query were outside
        with pytest.raises(InvariantViolation, match="d\\*"):
            host._gossip_cache(Point(5.0, 5.0), (1.0, 0.0), read, 0.0, None)

    def test_checks_off_run_no_referee(self, monkeypatch):
        from importlib import import_module

        from repro.experiments.host import MobileHost

        def boom(*args, **kwargs):
            raise AssertionError("referee ran with checks off")

        previous = set_check_enabled(False)
        try:
            monkeypatch.setattr(
                import_module("repro.core.nnv"), "first_contained", boom
            )
            monkeypatch.setattr(invariants, "check_boundary_distance", boom)
            read = self.outcome().read
            host = MobileHost(0, POICache(8))
            assert host._gossip_cache(
                Point(5.0, 5.0), (1.0, 0.0), read, 0.0, None
            )
        finally:
            set_check_enabled(previous)


class TestSearchRadiusSeam:
    """The on-air first-scan radius is a selection; under checks the
    full sort of the index recomputes it and any difference raises."""

    def server(self):
        from repro.broadcast import BroadcastServer

        # A lattice: rings of equal centre distance around every query.
        pois = [POI(4 * x + y, Point(float(x), float(y)))
                for x in range(4) for y in range(4)]
        return BroadcastServer(pois, Rect(0, 0, 4, 4), hilbert_order=3)

    def test_selection_agrees_with_checks_on(self, checks_on):
        from repro.broadcast import estimate_search_radius

        server = self.server()
        for q in (Point(1.5, 1.5), Point(2.25, 0.75), Point(-9.0, 40.0)):
            for k in (1, 4, 5, 16, 30):
                radius = estimate_search_radius(server, q, k)
                invariants.check_search_radius(server, q, k, radius)

    def test_wrong_radius_detected(self, checks_on):
        from repro.broadcast import estimate_search_radius

        server = self.server()
        q = Point(1.5, 1.5)
        radius = estimate_search_radius(server, q, 5)
        with pytest.raises(InvariantViolation, match="search radius"):
            invariants.check_search_radius(
                server, q, 5, float(np.nextafter(radius, np.inf))
            )

    def test_referee_runs_only_with_checks_on(self, monkeypatch):
        from repro.broadcast import estimate_search_radius

        def boom(*args, **kwargs):
            raise AssertionError("referee ran")

        monkeypatch.setattr(invariants, "check_search_radius", boom)
        server = self.server()
        previous = set_check_enabled(False)
        try:
            assert estimate_search_radius(server, Point(1.5, 1.5), 3) > 0
            set_check_enabled(True)
            with pytest.raises(AssertionError, match="referee ran"):
                estimate_search_radius(server, Point(1.5, 1.5), 3)
        finally:
            set_check_enabled(previous)


class TestSeamIntegration:
    """The seams in the production pipelines actually fire."""

    def make_client(self):
        from repro.broadcast import OnAirClient

        pois = [
            POI(i, Point(float(x), float(y)))
            for i, (x, y) in enumerate(
                (x, y) for x in range(4) for y in range(4)
            )
        ]
        return OnAirClient.build(pois, Rect(0, 0, 4, 4), hilbert_order=3,
                                 bucket_capacity=2)

    def test_onair_knn_passes_with_checks_on(self, checks_on):
        client = self.make_client()
        result = client.knn(Point(1.1, 1.1), 3)
        assert len(result.results) == 3

    def test_onair_seam_fires_on_corrupted_cost(self, checks_on, monkeypatch):
        from repro.broadcast.schedule import BroadcastSchedule

        client = self.make_client()
        real = BroadcastSchedule.retrieve_with_recovery

        def corrupted(self, t_query, bucket_ids, index_packets, **kwargs):
            cost = real(self, t_query, bucket_ids, index_packets, **kwargs)
            return RetrievalCost(
                access_latency=cost.access_latency,
                tuning_packets=cost.tuning_packets,
                finish_time=cost.finish_time,
                buckets_downloaded=0,  # claims no bucket was read
                index_latency=cost.index_latency,
            )

        monkeypatch.setattr(
            BroadcastSchedule, "retrieve_with_recovery", corrupted
        )
        with pytest.raises(InvariantViolation, match="planned"):
            client.knn(Point(1.1, 1.1), 3)
