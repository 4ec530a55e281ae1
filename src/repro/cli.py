"""Command-line interface: regenerate figures and poke at worlds.

Usage::

    python -m repro.cli figure fig10 --scale 0.06 --warmup 2500 \
        --measure 400 --out results/fig10.csv
    python -m repro.cli figure fig10 fig13 --values 50 200 --scale 0.02 \
        --warmup 150 --measure 100 --trace trace.jsonl
    python -m repro.cli query --region la --k 5 --seed 3
    python -m repro.cli params
    python -m repro.cli trace-summary trace.jsonl
    python -m repro.cli check --seed 0 --queries 10000
    python -m repro.cli serve --region suburbia --scale 0.02 --port 7007
    python -m repro.cli load --spawn --count 200 --connections 4 --json

The CSV written by ``figure`` has one row per (region, x, series) —
see :mod:`repro.experiments.export`; several figure names print (and
export) their panels one after the other, each figure's followed by a
``claim PASS`` / ``claim FAIL`` line per paper claim of its
``FIGURES`` row (printed only: the exit status ignores them, since
smoke budgets are too small for the paper's shapes).  ``--trace PATH`` (on
``figure`` and ``query``) records every query's lifecycle as
JSON-lines spans plus a metrics snapshot; ``trace-summary`` renders
the per-phase latency breakdown.  ``check`` runs the seeded
differential-oracle campaigns of :mod:`repro.check` (README
"Checking correctness"), exiting non-zero on any disagreement.
``serve`` runs the asyncio base-station server of :mod:`repro.serve`
until interrupted; ``load`` replays a seeded workload against it
(``--spawn`` starts an in-process server on an ephemeral port first)
and reports achieved QPS, latency percentiles, and shed counts.
``params`` prints Table 3 with its derived densities.  A
:class:`~repro.errors.ReproError` from any command is one
``repro: error: <message>`` line on stderr and exit status 2.
Speed is measured by ``bench/run.py`` alone (README "Measuring
performance"); no command here times itself against a baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .errors import ReproError
from .faults import FaultConfig
from .obs import (
    JsonLinesExporter,
    MetricsRegistry,
    Tracer,
    format_summary,
    load_trace,
    summarize_spans,
)
from .experiments import (
    FIGURES,
    Simulation,
    check_claims,
    format_series,
    format_table,
    run_figure,
    scaled_parameters,
)
from .experiments.export import write_sweep_csv
from .workloads import (
    ALL_REGIONS,
    LA_CITY,
    RIVERSIDE_COUNTY,
    SYNTHETIC_SUBURBIA,
    QueryKind,
)

REGIONS = {
    "la": LA_CITY,
    "suburbia": SYNTHETIC_SUBURBIA,
    "riverside": RIVERSIDE_COUNTY,
}


def add_fault_args(parser: argparse.ArgumentParser) -> None:
    """The unreliable-wireless knobs shared by the simulation commands."""
    group = parser.add_argument_group("fault injection (off by default)")
    group.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="per-link P2P message (and broadcast bucket) loss probability",
    )
    group.add_argument(
        "--peer-timeout",
        type=float,
        default=None,
        help="peer response deadline in seconds (default: no deadline)",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retry rounds for unheard peers (with exponential backoff)",
    )
    group.add_argument(
        "--churn-rate",
        type=float,
        default=0.0,
        help="probability that an in-range peer has silently departed",
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault layer's own RNG",
    )


def add_trace_arg(parser: argparse.ArgumentParser) -> None:
    """The observability knob shared by the simulation commands."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record query-lifecycle spans + metrics as JSON lines"
        " (render with `repro trace-summary PATH`)",
    )


class _TraceSession:
    """CLI-side bundle: tracer + registry + exporter for one command.

    ``sim_kwargs`` plugs straight into Simulation / the figure
    runners; :meth:`finish` appends the metrics snapshot and closes
    the file.  A ``None`` path makes every piece inert.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.exporter = JsonLinesExporter(path) if path else None
        self.registry = MetricsRegistry() if path else None
        self.tracer = Tracer(sink=self.exporter) if path else None

    @property
    def active(self) -> bool:
        return self.exporter is not None

    @property
    def sim_kwargs(self) -> dict:
        if not self.active:
            return {}
        return {"tracer": self.tracer, "registry": self.registry}

    def finish(self) -> None:
        if not self.active:
            return
        self.exporter.write_metrics(self.registry)
        self.exporter.close()
        print(
            f"wrote {self.exporter.spans_written} spans to {self.path}"
            f" (render: python -m repro.cli trace-summary {self.path})"
        )


def fault_config_from_args(args: argparse.Namespace) -> FaultConfig | None:
    """Build the opt-in FaultConfig; ``None`` when every knob is off."""
    if (
        args.loss_rate <= 0.0
        and args.churn_rate <= 0.0
        and args.peer_timeout is None
    ):
        return None
    kwargs: dict = {
        "loss_rate": args.loss_rate,
        "churn_rate": args.churn_rate,
        "retries": args.retries,
        "seed": args.fault_seed,
    }
    if args.peer_timeout is not None:
        kwargs["peer_timeout"] = args.peer_timeout
    return FaultConfig(**kwargs)


def _sweep_value(text: str) -> int | float:
    """One ``--values`` entry: an int where it reads as one (cache
    sizes, k, standing counts), else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LBSQ-with-data-sharing reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate evaluation figures")
    fig.add_argument("names", nargs="+", choices=sorted(FIGURES), metavar="name")
    fig.add_argument(
        "--values",
        nargs="+",
        type=_sweep_value,
        default=None,
        help="sweep these values instead of the figure's own (two values"
        " and tiny budgets make a sub-minute smoke sweep)",
    )
    fig.add_argument("--scale", type=float, default=0.06)
    fig.add_argument("--warmup", type=int, default=2500)
    fig.add_argument("--measure", type=int, default=400)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep-runner process count (1 = serial in-process)",
    )
    fig.add_argument("--out", default=None, help="optional CSV output path")
    fig.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run every sweep point on a sharded world of N spatial"
        " tiles (full-scale Table 3 runs; incompatible with faults,"
        " tracing, and figc)",
    )
    fig.add_argument(
        "--exchange",
        choices=("event", "cycle"),
        default="cycle",
        help="halo exchange cadence for --shards (event = lockstep"
        " bit-identical, cycle = batched per refresh epoch)",
    )
    fig.add_argument(
        "--shard-backend",
        choices=("auto", "process", "inprocess"),
        default="auto",
        help="where shard workers run for --shards",
    )
    add_fault_args(fig)
    add_trace_arg(fig)

    query = sub.add_parser("query", help="run one kNN query in a fresh world")
    query.add_argument("--region", choices=sorted(REGIONS), default="suburbia")
    query.add_argument("--k", type=int, default=5)
    query.add_argument("--scale", type=float, default=0.05)
    query.add_argument("--warmup", type=int, default=800)
    query.add_argument("--seed", type=int, default=0)
    add_fault_args(query)
    add_trace_arg(query)

    sub.add_parser("params", help="print the Table 3 parameter sets")

    ts = sub.add_parser(
        "trace-summary",
        help="per-phase latency breakdown of a --trace JSONL file",
    )
    ts.add_argument("path", help="trace file written by --trace")
    ts.add_argument(
        "--json",
        action="store_true",
        help="print the summary as one JSON document instead of a table",
    )

    serve = sub.add_parser(
        "serve",
        help="run the asyncio base-station server until interrupted",
    )
    serve.add_argument("--region", choices=sorted(REGIONS), default="suburbia")
    serve.add_argument("--scale", type=float, default=0.02)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument("--max-inflight", type=int, default=8)
    serve.add_argument(
        "--max-wait",
        type=float,
        default=2.0,
        help="shed when the live M/M/1 wait estimate exceeds this",
    )
    serve.add_argument("--idle-timeout", type=float, default=60.0)
    serve.add_argument(
        "--tick-interval",
        type=float,
        default=1.0,
        help="standing-query tick period in seconds (0 disables)",
    )
    serve.add_argument(
        "--service-delay",
        type=float,
        default=0.0,
        help="artificial per-request delay (overload experiments)",
    )
    serve.add_argument(
        "--warmup", type=int, default=0, help="cache-warming queries at boot"
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        help="write one JSONL span trace per connection here",
    )

    load = sub.add_parser(
        "load",
        help="replay a seeded workload against a server and measure it",
    )
    load.add_argument("--region", choices=sorted(REGIONS), default="suburbia")
    load.add_argument("--scale", type=float, default=0.02)
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument(
        "--port",
        type=int,
        default=None,
        help="server port (required unless --spawn)",
    )
    load.add_argument(
        "--spawn",
        action="store_true",
        help="start an in-process server on an ephemeral port first",
    )
    load.add_argument("--kind", choices=("knn", "window"), default="knn")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--count", type=int, default=200)
    load.add_argument("--connections", type=int, default=4)
    load.add_argument(
        "--qps",
        type=float,
        default=None,
        help="target offered QPS (default: as fast as possible)",
    )
    load.add_argument(
        "--lockstep",
        action="store_true",
        help="one query at a time in event order (determinism mode)",
    )
    load.add_argument(
        "--ignore-cap",
        action="store_true",
        help="ignore the server's advertised in-flight cap (provoke SHED)",
    )
    load.add_argument(
        "--encoding",
        choices=("json", "binary"),
        default="json",
        help="wire encoding the clients negotiate at HELLO",
    )
    load.add_argument(
        "--expect-clean",
        action="store_true",
        help="exit non-zero if anything was shed or errored",
    )
    load.add_argument(
        "--json",
        action="store_true",
        help="print the report as one JSON document",
    )
    load.add_argument("--out", default=None, help="optional JSON output path")

    check = sub.add_parser(
        "check",
        help="differential fuzz campaign: pipelines vs brute-force oracles",
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--queries",
        type=int,
        default=600,
        help="total query budget, split across every (region, fault) leg",
    )
    check.add_argument(
        "--regions",
        nargs="+",
        choices=sorted(REGIONS),
        default=sorted(REGIONS),
        help="parameter sets to fuzz (default: all three)",
    )
    check.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="area scale of the fuzzed worlds (small keeps oracles cheap)",
    )
    check.add_argument(
        "--faults",
        choices=("off", "on", "both"),
        default="both",
        help="run legs with the wireless fault layer off, on, or both",
    )
    check.add_argument(
        "--min-correctness",
        type=float,
        default=0.5,
        help="Lemma 3.2 acceptance threshold the pipelines run with",
    )
    check.add_argument(
        "--no-shrink",
        action="store_true",
        help="report disagreements without minimizing the reproducer",
    )
    check.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for JSON disagreement artifacts",
    )
    return parser


def cmd_figure(args: argparse.Namespace) -> int:
    sweep_kwargs = {}
    fault_config = fault_config_from_args(args)
    if fault_config is not None:
        sweep_kwargs["fault_config"] = fault_config
    if args.shards is not None:
        if "figc" in args.names:
            print("--shards does not apply to figc (continuous"
                  " engine is not sharded)", file=sys.stderr)
            return 2
        if fault_config is not None or args.trace:
            print("--shards is incompatible with fault injection and"
                  " --trace (see ShardedSimulation)", file=sys.stderr)
            return 2
        sweep_kwargs.update(
            shards=args.shards,
            exchange=args.exchange,
            shard_backend=args.shard_backend,
        )
    if args.trace and args.workers != 1:
        # The tracer and registry are live in-process objects; only the
        # serial sweep path threads them through without pickling.
        print("--trace forces --workers 1 (serial sweep)", file=sys.stderr)
        args.workers = 1
    trace = _TraceSession(args.trace)
    panels = []
    for name in args.names:
        figure = run_figure(
            name,
            args.values,
            area_scale=args.scale,
            warmup_queries=args.warmup,
            measure_queries=args.measure,
            seed=args.seed,
            max_workers=args.workers,
            **sweep_kwargs,
            **trace.sim_kwargs,
        )
        for panel in figure:
            print(format_series(panel))
            print()
        for holds, text in check_claims(name, figure):
            print(f"claim {'PASS' if holds else 'FAIL'} {name}: {text}")
        panels += figure
    if args.out:
        path = write_sweep_csv(panels, args.out)
        print(f"wrote {path}")
    trace.finish()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    params = scaled_parameters(REGIONS[args.region], area_scale=args.scale)
    trace = _TraceSession(args.trace)
    sim = Simulation(
        params,
        seed=args.seed,
        fault_config=fault_config_from_args(args),
        **trace.sim_kwargs,
    )
    sim.run_workload(QueryKind.KNN, 0, args.warmup)
    result = sim.run_knn_query(k=args.k)
    record = result.record
    print(f"host {record.host_id}: {record.resolution.value},"
          f" latency {record.access_latency:.2f} s,"
          f" {record.peer_count} peers")
    if record.p2p_drops or record.p2p_retries or record.recovery_retunes:
        print(f"  faults: {record.p2p_drops} drops,"
              f" {record.p2p_retries} retries,"
              f" {record.p2p_deadline_misses} deadline misses,"
              f" {record.recovery_retunes} re-tunes")
    for rank, poi in enumerate(result.answers, start=1):
        print(f"  #{rank}: POI {poi.poi_id} at"
              f" ({poi.x:.2f}, {poi.y:.2f})")
    trace.finish()
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import DEFAULT_FAULTS, run_campaign, run_continuous_campaign

    fault_modes = {
        "off": (False,),
        "on": (True,),
        "both": (False, True),
    }[args.faults]
    legs = [
        (region, faulty)
        for region in args.regions
        for faulty in fault_modes
    ]
    per_leg = max(1, args.queries // len(legs))
    total_disagreements = 0
    for region, faulty in legs:
        report = run_campaign(
            region,
            seed=args.seed,
            queries=per_leg,
            area_scale=args.scale,
            fault_config=DEFAULT_FAULTS if faulty else None,
            min_correctness=args.min_correctness,
            shrink=not args.no_shrink,
            artifact_dir=args.out,
        )
        status = "ok" if report.ok else f"{len(report.disagreements)} DISAGREE"
        print(
            f"{region:>10s} faults={'on ' if faulty else 'off'}"
            f" {report.queries_run:>6d} queries"
            f" ({report.knn_checked} knn / {report.window_checked} window,"
            f" {report.metamorphic_checks} metamorphic,"
            f" {report.soundness_checks} soundness)"
            f" in {report.elapsed_s:6.1f}s: {status}"
        )
        for disagreement in report.disagreements:
            print(f"    {disagreement.summary()}")
        total_disagreements += len(report.disagreements)
    # Continuous legs: the incremental engine (safe regions + batched
    # scans) vs the per-tick recompute baseline vs the oracle, plus the
    # live safe-region metamorphic contract.
    standing = min(40, max(8, per_leg // 10))
    for region in args.regions:
        continuous = run_continuous_campaign(
            region,
            seed=args.seed,
            standing=standing,
            ticks=8,
            area_scale=args.scale,
        )
        status = (
            "ok"
            if continuous.ok
            else f"{len(continuous.mismatches)} DISAGREE"
        )
        print(
            f"{region:>10s} continuous {continuous.evaluations_checked:>6d}"
            f" evals ({continuous.standing} standing x {continuous.ticks}"
            f" ticks, {continuous.contract_checks} contracts,"
            f" ratio {continuous.broadcast_access_ratio:.1f}x)"
            f" in {continuous.elapsed_s:6.1f}s: {status}"
        )
        for mismatch in continuous.mismatches:
            print(f"    {mismatch}")
        total_disagreements += len(continuous.mismatches)
    # Codec leg: seeded random payloads, ops, records and events
    # round-tripped through their binary frames, with
    # truncation/corruption rejection checked on the same frames.
    from .codec.fuzz import run_codec_fuzz

    fuzz = run_codec_fuzz(seed=args.seed, rounds=max(10, per_leg // 4))
    status = "ok" if fuzz.ok else f"{len(fuzz.mismatches)} DISAGREE"
    print(
        f"{'codec':>10s} fuzz {fuzz.objects_checked:>6d} objects"
        f" ({fuzz.truncations_rejected} truncations rejected,"
        f" {fuzz.corruptions_tried} corruptions)"
        f" in {fuzz.elapsed_s:6.1f}s: {status}"
    )
    for mismatch in fuzz.mismatches:
        print(f"    {mismatch}")
    total_disagreements += len(fuzz.mismatches)
    # Union-kernel leg: seeded float and integer-lattice rectangle sets
    # through the coverage grid and the pure-Python sweep.
    from .check import grid_vs_sweep_campaign

    rounds = max(10, per_leg // 4)
    started = time.perf_counter()
    mismatches = grid_vs_sweep_campaign(args.seed, rounds)
    status = "ok" if not mismatches else f"{len(mismatches)} DISAGREE"
    print(
        f"{'union':>10s} grid_vs_sweep {rounds:>6d} rect sets"
        f" in {time.perf_counter() - started:6.1f}s: {status}"
    )
    for mismatch in mismatches:
        print(f"    {mismatch}")
    total_disagreements += len(mismatches)
    if total_disagreements:
        where = f" (artifacts in {args.out})" if args.out else ""
        print(f"FAIL: {total_disagreements} disagreement(s){where}")
        return 1
    print(f"OK: {per_leg * len(legs)} queries, zero disagreements")
    return 0


def _serve_config_from_args(args: argparse.Namespace):
    from .serve import ServeConfig

    return ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        max_inflight=args.max_inflight,
        max_wait_s=args.max_wait,
        idle_timeout=args.idle_timeout,
        tick_interval=args.tick_interval,
        service_delay=args.service_delay,
        warmup_queries=args.warmup,
        trace_dir=args.trace_dir,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import BaseStationServer

    params = scaled_parameters(REGIONS[args.region], area_scale=args.scale)

    async def run() -> None:
        server = BaseStationServer(
            params, seed=args.seed, config=_serve_config_from_args(args)
        )
        await server.start()
        print(
            f"serving {args.region} (scale {args.scale:g}, seed {args.seed})"
            f" on {args.host}:{server.port}"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()
            counters = server.snapshot()
            if counters:
                print("counters:", json.dumps(counters, sort_keys=True))

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import BaseStationServer, ServeConfig, run_load

    if not args.spawn and args.port is None:
        print("load: --port is required without --spawn", file=sys.stderr)
        return 2
    params = scaled_parameters(REGIONS[args.region], area_scale=args.scale)
    kind = QueryKind.KNN if args.kind == "knn" else QueryKind.WINDOW

    async def run():
        server = None
        port = args.port
        if args.spawn:
            server = BaseStationServer(
                params, seed=args.seed, config=ServeConfig(host=args.host)
            )
            await server.start()
            port = server.port
        try:
            report = await run_load(
                params,
                port,
                host=args.host,
                kind=kind,
                seed=args.seed,
                count=args.count,
                connections=args.connections,
                qps=args.qps,
                lockstep=args.lockstep,
                respect_cap=not args.ignore_cap,
                encoding=args.encoding,
            )
        finally:
            if server is not None:
                await server.stop()
        return report

    report = asyncio.run(run())
    document: dict = {
        "parameters": {
            "region": args.region,
            "area_scale": args.scale,
            "kind": args.kind,
            "seed": args.seed,
            "count": args.count,
            "connections": args.connections,
            "qps": args.qps,
            "lockstep": args.lockstep,
            "spawned": args.spawn,
            "encoding": args.encoding,
        },
    }
    document.update(report.to_dict())

    text = json.dumps(document, indent=2)
    if args.json:
        print(text)
    else:
        lat = report.latency_s
        print(
            f"{report.count} {report.kind} queries over"
            f" {report.connections} connection(s)"
            f"{' lockstep' if report.lockstep else ''}:"
            f" {report.achieved_qps:.0f} q/s achieved"
            f" ({report.answered} answered, {report.shed} shed,"
            f" {report.errors} errors)"
        )
        print(
            f"  latency p50 {lat['p50'] * 1e3:.2f} ms,"
            f" p95 {lat['p95'] * 1e3:.2f} ms,"
            f" p99 {lat['p99'] * 1e3:.2f} ms,"
            f" max {lat['max'] * 1e3:.2f} ms"
        )
        if report.shed_reasons:
            print(f"  shed reasons: {report.shed_reasons}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        if not args.json:
            print(f"wrote {args.out}")
    if args.expect_clean and not report.clean:
        print(
            f"NOT CLEAN: {report.shed} shed, {report.errors} errors"
            f" (reasons: {report.shed_reasons})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace_summary(args: argparse.Namespace) -> int:
    spans, _metrics = load_trace(args.path)
    summary = summarize_spans(spans)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(format_summary(summary))
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    rows = [
        [label, *(getattr(region, field) for region in ALL_REGIONS), units]
        for label, field, units in (
            ("POINumber", "poi_number", ""), ("MHNumber", "mh_number", ""),
            ("CSize", "cache_size", "POIs"),
            ("Query", "query_rate_per_min", "1/min"),
            ("TxRange", "tx_range_m", "m"), ("kNN", "knn_k", ""),
            ("Window", "window_percent", "%"),
            ("Distance", "window_distance_mi", "mile"),
            ("Texecution", "execution_hours", "hr"),
            ("POI density", "poi_density", "/mi^2"),
            ("MH density", "mh_density", "/mi^2"),
            ("E[peers@200m]", "expected_peers", ""),
        )
    ]
    print(format_table(["Parameter", *(r.name for r in ALL_REGIONS), "Units"],
                       rows, title="Table 3 parameter sets"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "figure": cmd_figure,
        "query": cmd_query,
        "params": cmd_params,
        "trace-summary": cmd_trace_summary,
        "check": cmd_check,
        "serve": cmd_serve,
        "load": cmd_load,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
