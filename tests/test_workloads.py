"""Tests for parameter sets, POI generation, and query workloads."""

import math

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.geometry import Point, Rect
from repro.workloads import (
    ALL_REGIONS,
    LA_CITY,
    METERS_PER_MILE,
    RIVERSIDE_COUNTY,
    SYNTHETIC_SUBURBIA,
    ParameterSet,
    QueryEvent,
    QueryKind,
    QueryWorkload,
    clustered_pois,
    generate_pois,
    ScalingClampWarning,
    scaled_parameters,
)


class TestTable3:
    """The parameter sets must match Table 3 of the paper exactly."""

    def test_la_city(self):
        assert LA_CITY.poi_number == 2750
        assert LA_CITY.mh_number == 93300
        assert LA_CITY.cache_size == 50
        assert LA_CITY.query_rate_per_min == 6220
        assert LA_CITY.tx_range_m == 200
        assert LA_CITY.knn_k == 5
        assert LA_CITY.window_percent == 3
        assert LA_CITY.window_distance_mi == 1
        assert LA_CITY.execution_hours == 10

    def test_riverside(self):
        assert RIVERSIDE_COUNTY.poi_number == 1450
        assert RIVERSIDE_COUNTY.mh_number == 9700
        assert RIVERSIDE_COUNTY.query_rate_per_min == 650

    def test_suburbia(self):
        assert SYNTHETIC_SUBURBIA.poi_number == 2100
        assert SYNTHETIC_SUBURBIA.mh_number == 51500
        assert SYNTHETIC_SUBURBIA.query_rate_per_min == 3440

    def test_suburbia_lies_between(self):
        for attr in ("poi_number", "mh_number", "query_rate_per_min"):
            lo = getattr(RIVERSIDE_COUNTY, attr)
            hi = getattr(LA_CITY, attr)
            assert lo < getattr(SYNTHETIC_SUBURBIA, attr) < hi

    def test_regions_ordering(self):
        assert [r.name for r in ALL_REGIONS] == [
            "Los Angeles City",
            "Synthetic Suburbia",
            "Riverside County",
        ]


class TestDerivedQuantities:
    def test_density(self):
        assert LA_CITY.poi_density == pytest.approx(2750 / 400)
        assert LA_CITY.mh_density == pytest.approx(93300 / 400)

    def test_tx_range_conversion(self):
        assert LA_CITY.tx_range_mi == pytest.approx(200 / METERS_PER_MILE)

    def test_expected_peers_la(self):
        # ~11 reachable vehicles at 200 m in LA density.
        assert LA_CITY.expected_peers == pytest.approx(11.3, abs=0.2)

    def test_expected_peers_riverside_sparse(self):
        assert RIVERSIDE_COUNTY.expected_peers < 1.5

    def test_expected_peers_ordering(self):
        # The derived peer counts drive the whole evaluation.
        assert (
            LA_CITY.expected_peers
            > SYNTHETIC_SUBURBIA.expected_peers
            > RIVERSIDE_COUNTY.expected_peers
        )

    def test_window_side(self):
        # 3% of the 20-mile side = 0.6 miles.
        assert LA_CITY.window_side_mi == pytest.approx(0.6)
        assert LA_CITY.window_area_mi2 == pytest.approx(0.36)

    def test_bounds(self):
        assert LA_CITY.bounds == Rect(0, 0, 20, 20)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            LA_CITY.replace(poi_number=0)
        with pytest.raises(ExperimentError):
            LA_CITY.replace(window_percent=0)
        with pytest.raises(ExperimentError):
            LA_CITY.replace(tx_range_m=0)


class TestScaling:
    def test_densities_preserved(self):
        scaled = scaled_parameters(LA_CITY, area_scale=0.1)
        assert scaled.poi_density == pytest.approx(LA_CITY.poi_density, rel=0.05)
        assert scaled.mh_density == pytest.approx(LA_CITY.mh_density, rel=0.05)
        assert scaled.query_rate_per_min / scaled.mh_number == pytest.approx(
            LA_CITY.query_rate_per_min / LA_CITY.mh_number, rel=0.05
        )
        # The area every figure and table of `make experiments` runs at.
        scaled = scaled_parameters(LA_CITY, area_scale=0.06)
        assert abs(scaled.mh_density - LA_CITY.mh_density) / LA_CITY.mh_density < 0.05
        assert abs(scaled.poi_density - LA_CITY.poi_density) / LA_CITY.poi_density < 0.05

    def test_absolute_window_geometry_preserved(self):
        scaled = scaled_parameters(LA_CITY, area_scale=0.25)
        assert scaled.window_side_mi == pytest.approx(LA_CITY.window_side_mi)

    def test_overrides_have_full_scale_meaning(self):
        scaled = scaled_parameters(LA_CITY, area_scale=0.25, window_percent=5)
        assert scaled.window_side_mi == pytest.approx(0.05 * 20)
        assert scaled.tx_range_m == LA_CITY.tx_range_m

    def test_identity_scale(self):
        assert scaled_parameters(LA_CITY, area_scale=1.0) == LA_CITY

    def test_clamp_surfaced_not_silent(self):
        # window_percent=3 at area_scale 4e-4 wants 150% of the scaled
        # side: the clamp must warn and stamp the effective scale.
        with pytest.warns(ScalingClampWarning, match="clamps the window"):
            scaled = scaled_parameters(LA_CITY, area_scale=4e-4)
        assert scaled.window_percent == pytest.approx(100.0)
        assert scaled.window_clamped
        assert scaled.window_scale_effective == pytest.approx(100.0 / 150.0)

    def test_unclamped_scale_is_quiet(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", ScalingClampWarning)
            scaled = scaled_parameters(LA_CITY, area_scale=0.01)
        assert not scaled.window_clamped
        assert scaled.window_scale_effective == 1.0

    def test_invalid_scale(self):
        with pytest.raises(ExperimentError):
            scaled_parameters(LA_CITY, area_scale=0)
        with pytest.raises(ExperimentError):
            scaled_parameters(LA_CITY, area_scale=1.5)


class TestPOIGeneration:
    def test_exact_count_and_bounds(self):
        rng = np.random.default_rng(0)
        bounds = Rect(0, 0, 10, 10)
        pois = generate_pois(bounds, 100, rng)
        assert len(pois) == 100
        assert len({p.poi_id for p in pois}) == 100
        assert all(bounds.contains_point(p.location) for p in pois)

    def test_invalid_count(self):
        with pytest.raises(ExperimentError):
            generate_pois(Rect(0, 0, 1, 1), 0, np.random.default_rng(0))

    def test_id_offset(self):
        pois = generate_pois(
            Rect(0, 0, 1, 1), 5, np.random.default_rng(0), id_offset=100
        )
        assert [p.poi_id for p in pois] == [100, 101, 102, 103, 104]

    def test_clustered_pois_more_clumped_than_uniform(self):
        rng = np.random.default_rng(2)
        bounds = Rect(0, 0, 20, 20)
        clustered = clustered_pois(bounds, 300, rng, cluster_count=5)
        uniform = generate_pois(bounds, 300, np.random.default_rng(3))

        def mean_nn(pois):
            best = []
            for p in pois:
                best.append(
                    min(
                        p.location.distance_to(q.location)
                        for q in pois
                        if q is not p
                    )
                )
            return np.mean(best)

        assert mean_nn(clustered) < mean_nn(uniform)

    def test_clustered_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ExperimentError):
            clustered_pois(Rect(0, 0, 1, 1), 0, rng)
        with pytest.raises(ExperimentError):
            clustered_pois(Rect(0, 0, 1, 1), 5, rng, cluster_count=0)


class TestQueryWorkload:
    def make(self, kind=QueryKind.KNN, seed=0):
        params = scaled_parameters(LA_CITY, area_scale=0.05)
        return params, QueryWorkload(params, kind, np.random.default_rng(seed))

    def test_arrival_times_increase(self):
        _, workload = self.make()
        times = [next(workload).time for _ in range(100)]
        assert times == sorted(times)
        assert times[0] > 0

    def test_arrival_rate_matches(self):
        params, workload = self.make(seed=1)
        events = [next(workload) for _ in range(3000)]
        duration = events[-1].time - events[0].time
        rate = len(events) / duration
        assert rate == pytest.approx(params.query_rate_per_sec, rel=0.1)

    def test_hosts_in_range(self):
        params, workload = self.make(seed=2)
        for _ in range(200):
            event = next(workload)
            assert 0 <= event.host_id < params.mh_number

    def test_knn_k_distribution(self):
        params, workload = self.make(seed=3)
        ks = [next(workload).k for _ in range(2000)]
        assert min(ks) >= 1
        assert np.mean(ks) == pytest.approx(params.knn_k, rel=0.1)

    def test_window_events(self):
        params, workload = self.make(kind=QueryKind.WINDOW, seed=4)
        events = [next(workload) for _ in range(500)]
        areas = [e.window_area for e in events]
        assert np.mean(areas) == pytest.approx(params.window_area_mi2, rel=0.15)
        offsets = [math.hypot(*e.center_offset) for e in events]
        assert np.mean(offsets) == pytest.approx(
            params.window_distance_mi, rel=0.25
        )

    def test_window_for_materialisation(self):
        params, workload = self.make(kind=QueryKind.WINDOW, seed=5)
        event = next(workload)
        window = event.window_for(Point(10, 10), params.bounds)
        assert params.bounds.intersection(window) == window
        assert window.area == pytest.approx(event.window_area, rel=0.01)

    def test_window_clamped_near_edge(self):
        params, workload = self.make(kind=QueryKind.WINDOW, seed=6)
        event = next(workload)
        window = event.window_for(Point(0, 0), params.bounds)
        assert params.bounds.intersection(window) == window

    def test_window_for_on_knn_event_raises(self):
        _, workload = self.make(kind=QueryKind.KNN, seed=7)
        event = next(workload)
        with pytest.raises(ExperimentError):
            event.window_for(Point(0, 0), Rect(0, 0, 1, 1))
