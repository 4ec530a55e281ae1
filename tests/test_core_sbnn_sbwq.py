"""Tests for SBNN (Algorithm 2) and SBWQ (Algorithm 3), including
end-to-end integration with the on-air fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast import OnAirClient
from repro.core import Resolution, SBWQOutcome, sbnn, sbwq
from repro.errors import ReproError
from repro.geometry import Point, Rect, RectUnion
from repro.index import brute_force_knn, brute_force_window
from repro.model import POI
from repro.obs import Tracer
from repro.p2p import ShareResponse
from repro.workloads import generate_pois

WORLD = Rect(0, 0, 20, 20)


def make_pois(n=150, seed=0):
    rng = np.random.default_rng(seed)
    return [
        POI(i, Point(float(x), float(y)))
        for i, (x, y) in enumerate(rng.uniform(0, 20, (n, 2)))
    ]


def honest_response(peer_id, vr, server_pois):
    inside = tuple(p for p in server_pois if vr.contains_point(p.location))
    return ShareResponse(peer_id, (vr,), inside)


class TestSBNNDecisions:
    def test_verified_resolution(self):
        pois = make_pois(seed=1)
        vr = Rect(5, 5, 15, 15)
        q = Point(10, 10)
        outcome = sbnn(q, [honest_response(0, vr, pois)], k=2, poi_density=0.5)
        assert outcome.resolution is Resolution.VERIFIED
        expected = brute_force_knn(pois, q, 2)
        got = outcome.heap.verified_entries[:2]
        assert [e.poi.poi_id for e in got] == [e.poi.poi_id for e in expected]

    def test_broadcast_resolution_without_peers(self):
        outcome = sbnn(Point(1, 1), [], k=3, poi_density=0.5)
        assert outcome.resolution is Resolution.BROADCAST
        assert (outcome.bounds.lower, outcome.bounds.upper) == (None, None)

    def test_approximate_resolution(self):
        # A big VR, q near its edge: the far candidates stay
        # unverified but their unverified regions are slivers.
        pois = [POI(0, Point(10, 10.05)), POI(1, Point(10, 10.4))]
        vr = Rect(0, 0, 20, 10.5)
        q = Point(10, 10)
        outcome = sbnn(
            q,
            [ShareResponse(0, (vr,), tuple(pois))],
            k=2,
            poi_density=0.05,
            accept_approximate=True,
            min_correctness=0.5,
        )
        assert outcome.resolution in (
            Resolution.APPROXIMATE,
            Resolution.VERIFIED,
        )
        if outcome.resolution is Resolution.APPROXIMATE:
            for e in outcome.heap.unverified_entries:
                assert e.correctness >= 0.5

    def test_approximate_refused_when_disabled(self):
        pois = [POI(0, Point(10, 10.05)), POI(1, Point(10, 10.4))]
        vr = Rect(0, 0, 20, 10.5)
        outcome = sbnn(
            Point(10, 10),
            [ShareResponse(0, (vr,), tuple(pois))],
            k=2,
            poi_density=0.05,
            accept_approximate=False,
        )
        assert outcome.resolution in (Resolution.VERIFIED, Resolution.BROADCAST)

    def test_low_correctness_forces_broadcast(self):
        # Tiny VR and huge density: unverified entries are untrustworthy.
        pois = [POI(0, Point(10.01, 10)), POI(1, Point(13, 10))]
        vr = Rect(9.9, 9.9, 10.1, 10.1)
        outcome = sbnn(
            Point(10, 10),
            [ShareResponse(0, (vr,), (pois[0], ))],
            k=2,
            poi_density=50.0,
        )
        assert outcome.resolution is Resolution.BROADCAST

    def test_invalid_min_correctness(self):
        with pytest.raises(ReproError):
            sbnn(Point(0, 0), [], 1, 0.5, min_correctness=1.5)

    def test_bounds_exposed_for_filtering(self):
        pois = make_pois(seed=2)
        vr = Rect(8, 8, 12, 12)
        q = Point(10, 10)
        outcome = sbnn(q, [honest_response(0, vr, pois)], k=50, poi_density=0.4)
        assert outcome.resolution is Resolution.BROADCAST
        # Some nearby POIs are verified, so a lower bound must exist.
        assert outcome.bounds.lower is not None


class TestSBNNOnAirIntegration:
    """SBNN bounds + filtered on-air retrieval = exact global answer."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_exactness_end_to_end(self, seed, k):
        rng = np.random.default_rng(seed)
        pois = make_pois(n=120, seed=seed)
        client = OnAirClient.build(
            pois, WORLD, hilbert_order=5, bucket_capacity=8
        )
        responses = []
        for peer_id in range(int(rng.integers(0, 5))):
            x1, y1 = rng.uniform(0, 15, 2)
            vr = Rect(x1, y1, x1 + rng.uniform(1, 5), y1 + rng.uniform(1, 5))
            responses.append(honest_response(peer_id, vr, pois))
        q = Point(float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
        outcome = sbnn(q, responses, k=k, poi_density=0.4)
        if outcome.resolution is Resolution.VERIFIED:
            answer = [e.poi.poi_id for e in outcome.heap.verified_entries[:k]]
        else:
            onair = client.knn(
                q,
                k,
                t_query=float(rng.uniform(0, 60)),
                upper_bound=outcome.bounds.upper,
                lower_bound=outcome.bounds.lower,
                known_pois=outcome.verified_pois,
            )
            answer = [e.poi.poi_id for e in onair.results]
        expected = brute_force_knn(pois, q, k)
        expected_d = [e.distance for e in expected]
        got_d = sorted(POI_dist(pois, pid, q) for pid in answer)
        assert got_d == pytest.approx(expected_d)

    def test_filtering_saves_packets(self):
        pois = make_pois(n=600, seed=9)
        client = OnAirClient.build(
            pois, WORLD, hilbert_order=6, bucket_capacity=2
        )
        q = Point(10, 10)
        k = 8
        vr = Rect(7, 7, 13, 13)
        outcome = sbnn(q, [honest_response(0, vr, pois)], k=30, poi_density=1.5)
        plain = client.knn(q, k)
        filtered = client.knn(
            q,
            k,
            upper_bound=outcome.bounds.upper,
            lower_bound=outcome.bounds.lower,
            known_pois=outcome.verified_pois,
        )
        assert (
            filtered.cost.tuning_packets <= plain.cost.tuning_packets
        )
        assert [e.poi.poi_id for e in filtered.results] == [
            e.poi.poi_id for e in plain.results
        ]

    def test_filtering_bounds_save_channel_time(self):
        """Section 3.3.3: the same 60 exact 10-NN queries priced blind,
        with the heap's upper bound, and with upper + lower bounds."""
        rng = np.random.default_rng(1)
        pois = generate_pois(WORLD, 1500, rng)
        client = OnAirClient.build(
            pois, WORLD, hilbert_order=7, bucket_capacity=4
        )
        density = len(pois) / WORLD.area
        costs = {"blind": [], "upper": [], "upper+lower": []}
        for _ in range(60):
            q = Point(float(rng.uniform(2, 18)), float(rng.uniform(2, 18)))
            t = float(rng.uniform(0, 100))
            # A peer whose VR guarantees some verified neighbours.
            vr = Rect(q.x - 1.2, q.y - 1.2, q.x + 1.2, q.y + 1.2)
            inside = tuple(p for p in pois if vr.contains_point(p.location))
            outcome = sbnn(
                q, [ShareResponse(0, (vr,), inside)], k=10,
                poi_density=density, accept_approximate=False,
            )
            bounds = outcome.bounds
            runs = {
                "blind": client.knn(q, 10, t_query=t),
                "upper": client.knn(q, 10, t_query=t, upper_bound=bounds.upper),
                "upper+lower": client.knn(
                    q, 10, t_query=t, upper_bound=bounds.upper,
                    lower_bound=bounds.lower, known_pois=outcome.verified_pois,
                ),
            }
            for name, result in runs.items():
                costs[name].append(
                    (result.cost.access_latency, result.cost.tuning_packets)
                )
            truth = [e.poi.poi_id for e in brute_force_knn(pois, q, 10)]
            assert [e.poi.poi_id for e in runs["upper+lower"].results] == truth
        latency = {name: np.mean([c[0] for c in s]) for name, s in costs.items()}
        tuning = {name: np.mean([c[1] for c in s]) for name, s in costs.items()}
        # The upper bound shrinks the search range (and skips the full
        # index scan); adding the lower bound can only remove packets.
        assert tuning["upper"] < tuning["blind"]
        assert tuning["upper+lower"] <= tuning["upper"]
        assert latency["upper"] <= latency["blind"] + 1e-9


def POI_dist(pois, pid, q):
    return next(p for p in pois if p.poi_id == pid).location.distance_to(q)


class TestSBWQ:
    def test_fully_covered_window_resolves(self):
        pois = make_pois(seed=3)
        vr = Rect(2, 2, 12, 12)
        window = Rect(4, 4, 8, 8)
        outcome = sbwq(window, [honest_response(0, vr, pois)])
        assert outcome.resolution is Resolution.VERIFIED
        assert outcome.remainder_windows == ()
        expected = brute_force_window(pois, window)
        assert [p.poi_id for p in outcome.verified_pois] == [
            p.poi_id for p in expected
        ]

    def test_partial_coverage_reduces_window(self):
        pois = make_pois(seed=4)
        vr = Rect(0, 0, 6, 20)
        window = Rect(4, 4, 10, 8)
        outcome = sbwq(window, [honest_response(0, vr, pois)])
        assert outcome.resolution is Resolution.BROADCAST
        remainder_area = sum(r.area for r in outcome.remainder_windows)
        assert remainder_area == pytest.approx((10 - 6) * (8 - 4))
        for r in outcome.remainder_windows:
            assert window.intersection(r) == r

    def test_no_peers_remainder_is_whole_window(self):
        window = Rect(1, 1, 3, 3)
        outcome = sbwq(window, [])
        assert outcome.remainder_windows == (window,)
        assert outcome.verified_pois == ()

    def test_window_across_multiple_vrs(self):
        pois = make_pois(seed=5)
        responses = [
            honest_response(0, Rect(0, 0, 10, 10), pois),
            honest_response(1, Rect(10, 0, 20, 10), pois),
        ]
        window = Rect(8, 2, 12, 6)
        outcome = sbwq(window, responses)
        assert outcome.resolution is Resolution.VERIFIED
        expected = brute_force_window(pois, window)
        assert [p.poi_id for p in outcome.verified_pois] == [
            p.poi_id for p in expected
        ]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_end_to_end_window_exactness(self, seed):
        rng = np.random.default_rng(seed)
        pois = make_pois(n=120, seed=seed + 1)
        client = OnAirClient.build(
            pois, WORLD, hilbert_order=5, bucket_capacity=8
        )
        responses = []
        for peer_id in range(int(rng.integers(0, 4))):
            x1, y1 = rng.uniform(0, 15, 2)
            vr = Rect(x1, y1, x1 + rng.uniform(1, 6), y1 + rng.uniform(1, 6))
            responses.append(honest_response(peer_id, vr, pois))
        x1, y1 = rng.uniform(0, 16, 2)
        window = Rect(x1, y1, x1 + rng.uniform(0.5, 4), y1 + rng.uniform(0.5, 4))
        outcome = sbwq(window, responses)
        answer = {p.poi_id for p in outcome.verified_pois}
        if outcome.resolution is Resolution.BROADCAST:
            onair = client.window(outcome.remainder_windows, t_query=0.0)
            answer |= {p.poi_id for p in onair.pois}
        expected = {p.poi_id for p in brute_force_window(pois, window)}
        assert answer == expected


class TestSBWQCoveredFraction:
    """The covered_fraction_missing accounting bugfix: it must be an
    area *share* of the query window in [0, 1], not absolute area."""

    def test_no_peers_fraction_is_one(self):
        # Pre-fix this returned the absolute remainder area (4.0 here).
        outcome = sbwq(Rect(1, 1, 3, 3), [])
        assert outcome.covered_fraction_missing == pytest.approx(1.0)

    def test_fully_covered_fraction_is_zero(self):
        pois = make_pois(seed=3)
        outcome = sbwq(
            Rect(4, 4, 8, 8), [honest_response(0, Rect(2, 2, 12, 12), pois)]
        )
        assert outcome.covered_fraction_missing == 0.0

    def test_partial_coverage_fraction(self):
        pois = make_pois(seed=4)
        vr = Rect(0, 0, 6, 20)  # covers windows's x in [4, 6] of [4, 10]
        outcome = sbwq(Rect(4, 4, 10, 8), [honest_response(0, vr, pois)])
        assert outcome.covered_fraction_missing == pytest.approx(4 / 6)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fraction_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        pois = make_pois(n=80, seed=seed + 1)
        responses = []
        for peer_id in range(int(rng.integers(0, 4))):
            x1, y1 = rng.uniform(0, 15, 2)
            vr = Rect(x1, y1, x1 + rng.uniform(1, 8), y1 + rng.uniform(1, 8))
            responses.append(honest_response(peer_id, vr, pois))
        x1, y1 = rng.uniform(0, 16, 2)
        window = Rect(x1, y1, x1 + rng.uniform(0.5, 4), y1 + rng.uniform(0.5, 4))
        outcome = sbwq(window, responses)
        fraction = outcome.covered_fraction_missing
        assert 0.0 <= fraction <= 1.0
        if outcome.resolution is Resolution.VERIFIED:
            assert fraction == 0.0
        else:
            assert fraction > 0.0

    def test_degenerate_window(self):
        degenerate = Rect(2, 2, 2, 5)  # zero area
        resolved = SBWQOutcome(
            resolution=Resolution.VERIFIED,
            verified_pois=(),
            remainder_windows=(),
            mvr=RectUnion(()),
            window=degenerate,
        )
        assert resolved.covered_fraction_missing == 0.0
        unresolved = SBWQOutcome(
            resolution=Resolution.BROADCAST,
            verified_pois=(),
            remainder_windows=(degenerate,),
            mvr=RectUnion(()),
            window=degenerate,
        )
        assert unresolved.covered_fraction_missing == 1.0


class TestAnnotateKnob:
    """Annotation follows the tracer: a traced BROADCAST outcome carries
    Lemma 3.2 correctness annotations, and no resolution changes."""

    def broadcast_setup(self):
        # Two candidates for k=3: the near one verifies, the far one's
        # verification disc exits the VR (unverified), and the heap
        # stays short — so untraced the annotation is skipped and the
        # query goes to broadcast with an unannotated unverified entry.
        pois = [POI(0, Point(10, 10.05)), POI(1, Point(10.5, 10))]
        vr = Rect(0, 0, 20, 10.2)
        return Point(10, 10), [ShareResponse(0, (vr,), tuple(pois))]

    def test_auto_skips_annotation_on_broadcast(self):
        q, responses = self.broadcast_setup()
        outcome = sbnn(q, responses, k=3, poi_density=0.05)
        assert outcome.resolution is Resolution.BROADCAST
        assert not outcome.annotated
        assert all(e.correctness is None for e in outcome.heap.unverified_entries)

    def test_always_annotates_broadcast_without_changing_resolution(self):
        q, responses = self.broadcast_setup()
        plain = sbnn(q, responses, k=3, poi_density=0.05)
        tracer = Tracer()
        traced = sbnn(q, responses, k=3, poi_density=0.05, tracer=tracer)
        assert traced.resolution is plain.resolution is Resolution.BROADCAST
        assert traced.annotated
        assert all(
            e.correctness is not None for e in traced.heap.unverified_entries
        )
        assert [root.name for root in tracer.roots] == [
            "core.nnv", "core.annotate"
        ]
        assert tracer.roots[1].attributes == {
            "entries": 1, "annotated": 1, "pieces": 1, "pieces_near": 1
        }

    def test_untraced_pass_stops_at_the_entry_that_decides(self):
        # A full heap of k=3 with one verified entry: the farthest
        # candidate's disc leaves the VR by far, so it alone refuses
        # the approximate answer.  Traced, both unverified entries are
        # annotated and the outcome is the same.
        pois = [POI(i, Point(3.5 - d, 2)) for i, d in enumerate((0.4, 1.5, 3.0))]
        q, responses = Point(3.5, 2), [ShareResponse(0, (Rect(0, 0, 4, 4),), tuple(pois))]
        plain = sbnn(q, responses, k=3, poi_density=0.1)
        tracer = Tracer()
        traced = sbnn(q, responses, k=3, poi_density=0.1, tracer=tracer)
        assert plain.resolution is traced.resolution is Resolution.BROADCAST
        assert plain.annotated and traced.annotated
        near, far = plain.heap.unverified_entries
        assert near.correctness is None and far.correctness < 0.5
        assert [e.correctness for e in traced.heap.unverified_entries] == [
            pytest.approx(0.8136, abs=1e-4), far.correctness
        ]
        assert tracer.roots[1].attributes["annotated"] == 2
        # a threshold the far entry clears accepts, fully annotated
        accepted = sbnn(q, responses, k=3, poi_density=0.1, min_correctness=0.2)
        assert accepted.resolution is Resolution.APPROXIMATE
        assert [e.correctness for e in accepted.heap.unverified_entries] == [
            e.correctness for e in traced.heap.unverified_entries
        ]

    def test_resolution_invariant_auto_vs_always(self):
        # Property: the traced annotations are pure metadata —
        # resolutions match the untraced ones across random worlds,
        # whether or not approximate answers are accepted.
        rng = np.random.default_rng(11)
        pois = make_pois(n=100, seed=12)
        for _ in range(25):
            responses = []
            for peer_id in range(int(rng.integers(0, 4))):
                x1, y1 = rng.uniform(0, 15, 2)
                vr = Rect(x1, y1, x1 + rng.uniform(1, 8), y1 + rng.uniform(1, 8))
                responses.append(honest_response(peer_id, vr, pois))
            q = Point(*rng.uniform(2, 18, 2))
            k = int(rng.integers(1, 6))
            for accept in (True, False):
                plain = sbnn(
                    q, responses, k=k, poi_density=0.25,
                    accept_approximate=accept,
                )
                traced = sbnn(
                    q, responses, k=k, poi_density=0.25,
                    accept_approximate=accept, tracer=Tracer(),
                )
                assert plain.resolution is traced.resolution
