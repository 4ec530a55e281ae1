"""Tests for the shared domain objects, reporting helpers, and the
OnAirClient façade's validation."""

import pytest

from repro.broadcast import BroadcastSchedule, BroadcastServer, OnAirClient
from repro.experiments import SweepSeries, format_series, format_table
from repro.geometry import Point, Rect
from repro.model import DEFAULT_CATEGORY, POI, QueryResultEntry


class TestPOI:
    def test_accessors(self):
        poi = POI(7, Point(1.5, 2.5))
        assert poi.x == 1.5
        assert poi.y == 2.5
        assert poi.category == DEFAULT_CATEGORY

    def test_value_semantics(self):
        assert POI(1, Point(0, 0)) == POI(1, Point(0, 0))
        assert POI(1, Point(0, 0)) != POI(2, Point(0, 0))
        assert len({POI(1, Point(0, 0)), POI(1, Point(0, 0))}) == 1

    def test_custom_category(self):
        assert POI(0, Point(0, 0), "hospital").category == "hospital"


class TestQueryResultEntry:
    def test_ordering_by_distance(self):
        near = QueryResultEntry(POI(0, Point(0, 0)), 1.0)
        far = QueryResultEntry(POI(1, Point(0, 0)), 2.0)
        assert near < far
        assert sorted([far, near]) == [near, far]


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ["name", "value"], [["alpha", 1.25], ["b", 100]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.2" in text  # floats render with one decimal
        assert "100" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_format_series(self):
        series = SweepSeries(
            region="R",
            x_label="X",
            xs=[1.0, 2.0],
            series={"S": [10.0, 20.0]},
        )
        text = format_series(series)
        assert text.startswith("R")
        assert "X" in text and "S" in text
        assert "20.0" in text


class TestOnAirClientValidation:
    def test_mismatched_schedule_rejected(self):
        pois = [POI(i, Point(float(i), 1.0)) for i in range(20)]
        bounds = Rect(0, 0, 20, 20)
        server = BroadcastServer(pois, bounds, hilbert_order=4, bucket_capacity=4)
        wrong = BroadcastSchedule(
            data_bucket_count=server.bucket_count + 3,
            index_packet_count=server.index.packet_count,
        )
        with pytest.raises(ValueError):
            OnAirClient(server, wrong)

    def test_build_wires_matching_schedule(self):
        pois = [POI(i, Point(float(i), 1.0)) for i in range(20)]
        client = OnAirClient.build(pois, Rect(0, 0, 20, 20), hilbert_order=4)
        assert client.schedule.data_bucket_count == client.server.bucket_count
