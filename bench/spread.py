"""Run-to-run spread of every end-to-end metric, per workload.

    python3 bench/spread.py [--runs 10] [--workload W ...] [--first-seed 1]

Runs the benchmark ``--runs`` times on each workload, each time with
another ``--seed``, and prints for each end-to-end metric its median
and the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median,
beside the metric's bound.  The benchmark is steady enough when every
spread is below a third of its bound; ``setup_s`` is shown but exempt.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    """One ``--trace 0`` run: its values, digests and simulated statistics."""
    started = perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    elapsed = perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # Digests are not metrics: they are in the run's detail file.
    with open(os.path.join(HERE, "out", f"{workload}-trace0.json")) as handle:
        detail = json.load(handle)
    run = {
        "seed": seed,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digests": detail["digests"],
        "model": {k: v for k, v in detail["per_layer"].items()
                  if k.startswith("model.")},
        # Raw timings and calibration kernels: bench/fit_calib.py input.
        "timing": {k: detail[k] for k in ("setup", "timed", "reps", "phases")
                   if k in detail},
    }
    return run, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--workload", action="append",
                        choices=[name for name, _ in metrics.WORKLOADS])
    parser.add_argument("--out", help="write the set (bench/compare.py input)")
    args = parser.parse_args()
    names = args.workload or [name for name, _ in metrics.WORKLOADS]
    status = 0
    document: dict = {}
    for workload in names:
        runs, times = [], []
        for i in range(args.runs):
            run, elapsed = one_run(workload, args.first_seed + i, args.seconds)
            runs.append(run)
            times.append(elapsed)
        series = {n: [run["metrics"][n] for run in runs]
                  for n, *_ in metrics.END_TO_END}
        print(f"# {workload}: {args.runs} runs, {statistics.mean(times):.1f} s"
              f" each (max {max(times):.1f} s)")
        document[workload] = {"run_s_mean": statistics.mean(times), "runs": runs}
        for name, unit, _, bound in metrics.END_TO_END:
            share = metrics.spread(series[name])
            steady = share <= bound / 3 or name == "setup_s"
            status = status or (0 if steady else 1)
            print(f"{name:20s} median {statistics.median(series[name]):12.4f}"
                  f" {unit:4s} spread {share:7.4f}  bound {bound:5.2f}"
                  f"  {'ok' if steady else 'UNSTEADY'}")
            document[workload][name] = {
                "median": statistics.median(series[name]), "spread": share,
            }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
