"""The repo's benchmark: one command, four workloads, named metrics.

    python3 bench/run.py                       # every workload, both passes, full report
    python3 bench/run.py --smoke               # the same at 1/20 size, one rep (< 60 s)
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

A single-workload run prints every metric by name with its unit and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0`` (tracing off),
the per-layer metrics with ``--trace 1`` (the separate traced pass).
The full detail of a run (digests, simulated statistics, every rep,
environment) goes to ``bench/out/``; the all-workloads report is
``bench/out/report.json``, the input of ``bench/compare.py``.
Any failed output check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import metrics  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = [name for name, _ in metrics.WORKLOADS]


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: the program is not here ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import procstat
    import workloads

    env = procstat.environment(ROOT)
    procstat.warn_if_loaded(env["loadavg_1m"])
    trace = bool(args.trace)
    calibrator = workloads.start_calibration(args.workload)
    try:
        result = workloads.RUNNERS[args.workload](
            args.workload, args.seed, args.seconds, trace, args.smoke
        )
    finally:
        calibrator.close()
    checks = result.pop("checks")
    if trace:
        table, values = metrics.LAYER_UNITS, result["per_layer"]
        # A layer that is not on this workload's path reads 0.
        reported = {name: values.get(name, 0.0) for name in table}
    else:
        table, values = metrics.E2E_UNITS, result["end_to_end"]
        reported = {name: values[name] for name in table}
        for name, value in reported.items():
            if not value > 0:
                checks.fail(f"end-to-end metric {name} is {value}, not > 0")

    print(f"# {args.workload}  seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}{' smoke' if args.smoke else ''}")
    for name, value in reported.items():
        print(f"{name:40s} {value:16.6f} {table[name]}")
    for key, value in result.get("derived", {}).items():
        print(f"{key:40s} {value:16.6f} (derived)")
    for key, value in result["digests"].items():
        print(f"{key + '_digest':40s} {value}")

    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, smoke=args.smoke, env=env,
        correct=checks.failed == 0, attempted=checks.attempted,
        failed=checks.failed, notes=checks.notes,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json")
    with open(detail, "w") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": table[name]}
            for name, value in reported.items()
        },
    }))
    return 0 if checks.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    report: dict = {"workloads": {}, "smoke": args.smoke, "seed": args.seed,
                    "seconds": args.seconds}
    status = 0
    for name in WORKLOAD_NAMES:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command)
            status = status or done.returncode
            detail = os.path.join(OUT_DIR, f"{name}-trace{trace}.json")
            if done.returncode in (0, 1) and os.path.exists(detail):
                with open(detail) as handle:
                    entry[f"trace{trace}"] = json.load(handle)
    first = next(iter(report["workloads"].values()), {}).get("trace0", {})
    report["env"] = first.get("env", {})
    path = args.out or os.path.join(OUT_DIR, "report.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"report written to {path}")
    return status


def run_drift(args: argparse.Namespace) -> int:
    """Throughput by thousand queries from an empty world (README curve)."""
    sys.path.insert(0, SRC)
    from time import perf_counter

    from repro.experiments import Simulation
    from repro.workloads import scaled_parameters

    import workloads

    spec = workloads.SIM_SPECS[args.workload]
    params = scaled_parameters(spec.region, area_scale=spec.scale)
    sim = Simulation(params, seed=args.seed)
    curve = []
    for k in range(1, args.drift + 1):
        started = perf_counter()
        sim.run_workload(spec.kind, 0, 1000)
        rate = 1000 / (perf_counter() - started)
        curve.append({"kquery": k, "queries_per_s": rate})
        print(f"{k:4d}k  {rate:9.1f} q/s", flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"drift-{args.workload}.json"), "w") as handle:
        json.dump({"experiments.queries_per_s_by_kquery": curve}, handle, indent=1)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="all counts / 20, one rep")
    parser.add_argument("--out", help="report path (all-workloads mode)")
    parser.add_argument("--drift", type=int, default=0, metavar="K",
                        help="record q/s per thousand queries for K thousand"
                        " (single-process workloads; README curve)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.drift:
        return run_drift(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
