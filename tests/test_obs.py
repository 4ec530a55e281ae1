"""Tests for the observability layer (repro.obs).

Covers the span tree machinery, the metrics registry, the JSONL
exporter round-trip, the trace-summary aggregation, and — the layer's
load-bearing invariant — that a traced simulation's per-phase ``sim_s``
exactly reproduces the recorded access latency while leaving every
recorded metric bit-identical to the untraced run.
"""

import json
import math

import pytest

from repro.cache import POICache
from repro.errors import ReproError
from repro.geometry import Point, Rect
from repro.model import POI
from repro.obs import (
    LATENCY_BUCKETS_S,
    NO_TRACER,
    Counter,
    Histogram,
    JsonLinesExporter,
    MetricsRegistry,
    NullSpan,
    Tracer,
    format_summary,
    load_trace,
    summarize_spans,
)
from repro.experiments import Simulation, scaled_parameters
from repro.workloads import QueryKind, SYNTHETIC_SUBURBIA


class TestSpanTree:
    def test_nesting_builds_one_tree(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("p2p.collect") as p2p:
                p2p.set(peers=3)
            with tracer.span("core.nnv"):
                pass
        assert tracer.roots == [root]
        assert [c.name for c in root.children] == ["p2p.collect", "core.nnv"]
        assert root.children[0].attributes == {"peers": 3}
        assert root.is_root and not root.children[0].is_root

    def test_root_goes_to_sink(self):
        sunk = []
        tracer = Tracer(sink=sunk.append)
        with tracer.span("query"):
            with tracer.span("child"):
                pass
        assert [s.name for s in sunk] == ["query"]
        assert tracer.roots == []

    def test_max_roots_bounds_retention(self):
        tracer = Tracer(max_roots=2)
        for _ in range(5):
            with tracer.span("query"):
                pass
        assert len(tracer.roots) == 2

    def test_backfill_after_child_exit(self):
        # Broadcast spans learn their sim_s only after retrieval is
        # priced; the span must stay writable until the root exports.
        sunk = []
        tracer = Tracer(sink=sunk.append)
        with tracer.span("query"):
            with tracer.span("broadcast.index_scan") as index_span:
                pass
            index_span.set(sim_s=1.25)
        tree = sunk[0].to_dict()
        assert tree["children"][0]["attributes"] == {"sim_s": 1.25}

    def test_wall_time_measured(self):
        ticks = iter([10.0, 10.5])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("query") as span:
            pass
        assert span.wall_ms == pytest.approx(500.0)

    def test_to_dict_shape(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            root.set(k=5)
        doc = root.to_dict()
        assert doc["name"] == "query"
        assert doc["attributes"] == {"k": 5}
        assert "children" not in doc  # empty lists stay off the wire

    def test_exception_unwinds_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("query"):
                with tracer.span("child"):
                    raise RuntimeError("boom")
        # The stack fully unwound: a new span is a fresh root.
        with tracer.span("next") as span:
            pass
        assert span.is_root


class TestNullTracer:
    def test_disabled_and_allocation_free(self):
        assert NO_TRACER.enabled is False
        first = NO_TRACER.span("a")
        second = NO_TRACER.span("b")
        assert first is second  # one shared NullSpan, no per-call objects
        assert isinstance(first, NullSpan)

    def test_null_span_is_inert(self):
        with NO_TRACER.span("query") as span:
            span.set(k=5).set(n=1)
        assert span.attributes == {}
        assert NO_TRACER.roots == []


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_histogram_bucket_placement(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 9.0):
            hist.observe(value)
        # Inclusive upper edges: 1.0 lands in le_1, 9.0 overflows.
        snap = hist.snapshot()
        assert snap["buckets"] == {"le_1": 2, "le_2": 1, "overflow": 1}
        assert snap["count"] == 4
        assert snap["mean"] == pytest.approx(3.0)
        assert snap["min"] == 0.5 and snap["max"] == 9.0

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h", bounds=(1.0,)).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.histogram("h").bounds == LATENCY_BUCKETS_S

    def test_registry_snapshot_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["a"] == 2


class TestExporter:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        registry = MetricsRegistry()
        registry.counter("queries").inc(3)
        with JsonLinesExporter(path) as exporter:
            tracer.sink = exporter
            with tracer.span("query") as root:
                root.set(access_latency=1.5)
                with tracer.span("p2p.collect") as child:
                    child.set(sim_s=1.5)
            exporter.write_metrics(registry)
            assert exporter.spans_written == 1
        spans, metrics = load_trace(path)
        assert len(spans) == 1
        assert spans[0]["children"][0]["attributes"]["sim_s"] == 1.5
        assert metrics["counters"]["queries"] == 3

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"span","name":"q"}\nnot json\n')
        with pytest.raises(ReproError, match="bad.jsonl:2"):
            load_trace(str(path))

    def test_unknown_kinds_skipped(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind":"hologram"}\n\n{"kind":"span","name":"q"}\n')
        spans, metrics = load_trace(str(path))
        assert len(spans) == 1
        assert metrics is None


class TestSummary:
    def make_spans(self):
        return [
            {
                "kind": "span",
                "name": "query",
                "wall_ms": 2.0,
                "attributes": {"access_latency": 3.0, "resolution": "verified"},
                "children": [
                    {"name": "p2p.collect", "wall_ms": 1.0,
                     "attributes": {"sim_s": 1.0}},
                    {"name": "broadcast.data_scan", "wall_ms": 0.5,
                     "attributes": {"sim_s": 2.0}},
                ],
            }
        ]

    def test_phase_aggregation_and_coverage(self):
        summary = summarize_spans(self.make_spans())
        assert summary.queries == 1
        assert summary.resolutions == {"verified": 1}
        assert summary.phase_sim_s == pytest.approx(3.0)
        assert summary.recorded_access_latency_s == pytest.approx(3.0)
        assert summary.coverage == pytest.approx(1.0)
        assert summary.phases["p2p.collect"].count == 1

    def test_format_summary_renders_table(self):
        text = format_summary(summarize_spans(self.make_spans()))
        assert "broadcast.data_scan" in text
        assert "coverage 1.0000" in text

    def test_annotate_counts_are_summed_and_printed(self):
        spans = self.make_spans()
        assert "annotate:" not in format_summary(summarize_spans(spans))
        for entries, annotated in ((4, 4), (3, 1)):
            spans[0]["children"].append(
                {"name": "core.annotate", "wall_ms": 0.1,
                 "attributes": {"entries": entries, "annotated": annotated,
                                "pieces": 70, "pieces_near": 10}}
            )
        summary = summarize_spans(spans)
        assert summary.annotate == summary.to_dict()["annotate"] == {
            "entries": 7, "annotated": 5, "pieces": 140, "pieces_near": 20
        }
        lines = format_summary(summary).splitlines()
        assert lines[-2] == (
            "annotate: 5 of 7 unverified entries annotated,"
            " 20 of 140 MVR pieces near a disc"
        )
        assert lines[-1].startswith("phase sim latency")

    def test_cache_region_counts_are_summed_and_printed(self):
        spans = self.make_spans()
        assert "cache:" not in format_summary(summarize_spans(spans))
        for moved, shrunk in ((0, 2), (2, 1)):
            spans[0]["children"].append(
                {"name": "cache.insert", "wall_ms": 0.1,
                 "attributes": {"regions": 27, "regions_moved": moved,
                                "regions_shrunk": shrunk, "size": 50}}
            )
        summary = summarize_spans(spans)
        assert summary.cache == summary.to_dict()["cache"] == {
            "regions": 54, "regions_moved": 2, "regions_shrunk": 3
        }
        lines = format_summary(summary).splitlines()
        assert lines[-2] == (
            "cache: 2 of 54 held regions moved since the last settle,"
            " 3 shrunk by evictions"
        )

    def test_empty_trace(self):
        summary = summarize_spans([])
        assert summary.queries == 0
        assert summary.coverage == 1.0


def run_sim(measure=60, tracer=None, registry=None, fault_kwargs=None):
    params = scaled_parameters(SYNTHETIC_SUBURBIA, area_scale=0.02)
    kwargs = dict(fault_kwargs or {})
    if tracer is not None:
        kwargs["tracer"] = tracer
    if registry is not None:
        kwargs["registry"] = registry
    sim = Simulation(params, seed=7, **kwargs)
    return sim.run_workload(QueryKind.KNN, 40, measure)


class TestTracedSimulation:
    def test_phase_sim_covers_access_latency(self):
        tracer = Tracer()
        run_sim(tracer=tracer)
        summary = summarize_spans([root.to_dict() for root in tracer.roots])
        assert summary.queries > 0
        assert summary.coverage == pytest.approx(1.0, rel=1e-9)

    def test_every_query_tree_balances(self):
        # Per-query, not just in aggregate: the children's sim_s must
        # reproduce that query's recorded access_latency.
        tracer = Tracer()
        run_sim(tracer=tracer)
        for root in tracer.roots:
            doc = root.to_dict()
            recorded = doc["attributes"]["access_latency"]
            sim_total = 0.0
            stack = list(doc.get("children", ()))
            while stack:
                node = stack.pop()
                sim_total += (node.get("attributes") or {}).get("sim_s", 0.0)
                stack.extend(node.get("children", ()))
            assert math.isclose(sim_total, recorded, rel_tol=1e-9, abs_tol=1e-12)

    def test_traced_ticks_balance_and_match_untraced(self):
        # A standing re-evaluation is the one-shot pipeline under a
        # shared scan: the same core.* / broadcast.* spans, the tick's
        # channel time recorded on continuous.tick, coverage 1.
        params = scaled_parameters(SYNTHETIC_SUBURBIA, area_scale=0.02)
        runs = {}
        for label, tracer in (("plain", None), ("traced", Tracer())):
            sim = Simulation(
                params, seed=7, accept_approximate=False, overhear=False,
                tracer=tracer,
            )
            monitor = sim.run_continuous(
                QueryKind.KNN, standing=8, ticks=4, warmup_queries=30
            )
            runs[label] = (monitor.stats, sim.share_states())
        assert runs["plain"] == runs["traced"]
        ticks = [r.to_dict() for r in tracer.roots if r.name == "continuous.tick"]
        assert len(ticks) == 4
        names = set()
        for doc in ticks:
            sim_total = 0.0
            stack = list(doc.get("children", ()))
            while stack:
                node = stack.pop()
                names.add(node["name"])
                sim_total += (node.get("attributes") or {}).get("sim_s", 0.0)
                stack.extend(node.get("children", ()))
            assert math.isclose(
                sim_total, doc["attributes"]["access_latency"],
                rel_tol=1e-9, abs_tol=1e-12,
            )
        assert {
            "core.nnv", "cache.insert",
            "broadcast.index_scan", "broadcast.data_scan",
        } <= names
        assert sum(d["attributes"]["access_latency"] for d in ticks) == (
            pytest.approx(runs["traced"][0].access_latency)
        )
        summary = summarize_spans([root.to_dict() for root in tracer.roots])
        assert summary.queries == 30
        assert summary.coverage == pytest.approx(1.0, rel=1e-9)

    def test_cache_insert_span_reads_the_moved_marker(self):
        # Evicting inserts on one host: each span's regions_shrunk is
        # the marker this insert's evictions left, which the next
        # insert's settle re-checks as its regions_moved.
        tracer = Tracer()
        cache = POICache(capacity=6, max_regions=50)
        with tracer.span("query"):
            for i in range(12):
                x = 3.0 * i
                pois = [POI(3 * i + j, Point(x + j + 0.5, 1.0 + j)) for j in range(3)]
                cache.insert_result(
                    [(Rect(x, 0.0, x + 4.0, 4.0), pois)], float(i), Point(x, 2.0),
                    (1.0, 0.0), tracer=tracer,
                )
        spans = tracer.roots[0].to_dict()["children"]
        counts = [span["attributes"] for span in spans]
        assert [c["regions_moved"] for c in counts] == [0] + [
            c["regions_shrunk"] for c in counts[:-1]
        ]
        assert counts[-1]["regions_shrunk"] == len(cache._moved)
        assert sum(c["regions_shrunk"] for c in counts) > 0
        summary = summarize_spans([tracer.roots[0].to_dict()])
        assert 0 < summary.cache["regions_moved"] < summary.cache["regions"]
        assert "cache: " in format_summary(summary)

    def test_tracing_leaves_records_bit_identical(self):
        plain = run_sim()
        traced = run_sim(tracer=Tracer(), registry=MetricsRegistry())
        assert len(plain.records) == len(traced.records)
        for a, b in zip(plain.records, traced.records):
            assert a == b

    def test_registry_filled_by_collector_and_network(self):
        registry = MetricsRegistry()
        collector = run_sim(registry=registry)
        snap = registry.snapshot()
        resolved = sum(
            value for name, value in snap["counters"].items()
            if name.startswith("query.resolved.")
        )
        assert resolved == len(collector.records)
        assert snap["counters"]["p2p.requests_sent"] > 0
        assert snap["histograms"]["query.access_latency_s"]["count"] == len(
            collector.records
        )


class TestCLITrace:
    def test_query_trace_and_summary(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "q.jsonl")
        code = main(
            ["query", "--region", "suburbia", "--k", "2", "--scale", "0.02",
             "--warmup", "20", "--trace", trace_path]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["trace-summary", trace_path]) == 0
        out = capsys.readouterr().out
        assert "p2p.collect" in out
        assert "coverage 1.0000" in out

    def test_trace_summary_json(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "q.jsonl")
        main(["query", "--region", "suburbia", "--k", "2", "--scale", "0.02",
              "--warmup", "10", "--trace", trace_path])
        capsys.readouterr()
        assert main(["trace-summary", trace_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["queries"] == 11
        assert doc["coverage"] == pytest.approx(1.0, rel=1e-9)
