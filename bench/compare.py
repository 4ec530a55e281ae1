"""Compare two sets of benchmark runs against the benchmark's bounds.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first set), ``B`` the
candidate.  Each file is either a ``bench/run.py`` report (one run per
workload) or a ``bench/spread.py --out`` set (several seeds per
workload).  Per workload x end-to-end metric it prints both medians,
the ratio B/A, how much worse B is as a share of A, and a verdict
against the metric's bound:

* ``ok``         B is not worse than A by more than the bound;
* ``regressed``  it is;
* ``unresolved`` the run-to-run spread of either side is wider than
  the bound, so the medians cannot tell (unless every run of B reads
  better than every run of A, which is ``ok``).

Simulated statistics (``model.*``) and digests repeat exactly at a
fixed seed, so for every seed both sets hold they are compared for
equality.  Exits non-zero on any ``regressed`` or moved digest.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def load(path: str) -> dict[str, list[dict]]:
    """Either file format as ``{workload: [run, ...]}``."""
    with open(path) as handle:
        document = json.load(handle)
    if "workloads" not in document:
        return {name: entry["runs"] for name, entry in document.items()}
    out = {}
    for name, entry in document["workloads"].items():
        detail = entry.get("trace0")
        if detail is None:
            continue
        out[name] = [{
            "seed": detail["seed"],
            "metrics": detail["end_to_end"],
            "digests": detail["digests"],
            "model": {k: v for k, v in detail["per_layer"].items()
                      if k.startswith("model.")},
        }]
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float):
    base, cand = statistics.median(a), statistics.median(b)
    worse = (cand - base) / base if better == "lower" else (base - cand) / base
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if max(metrics.spread(a), metrics.spread(b)) > bound and not all_better:
        word = "unresolved"
    else:
        word = "regressed" if worse > bound else "ok"
    return base, cand, worse, word


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for workload, _ in metrics.WORKLOADS:
        if workload not in a or workload not in b:
            print(f"# {workload}: missing from one set")
            status = 1
            continue
        print(f"# {workload}  ({len(a[workload])} vs {len(b[workload])} runs)")
        for name, unit, better, bound in metrics.END_TO_END:
            base, cand, worse, word = verdict(
                [run["metrics"][name] for run in a[workload]],
                [run["metrics"][name] for run in b[workload]],
                better, bound,
            )
            status = status or (1 if word == "regressed" else 0)
            print(f"{name:18s} A {base:12.4f}  B {cand:12.4f} {unit:4s}"
                  f" B/A {cand / base:6.3f} (base A)  worse by {worse:+7.2%}"
                  f" of bound {bound:.0%}  {word}")
        by_seed = {run["seed"]: run for run in a[workload]}
        for run in b[workload]:
            twin = by_seed.get(run["seed"])
            if twin is None:
                continue
            same = (twin["digests"] == run["digests"]
                    and twin["model"] == run["model"])
            status = status or (0 if same else 1)
            if not same:
                print(f"seed {run['seed']}: model.* or digests MOVED:"
                      f" {twin['digests']} {twin['model']} !="
                      f" {run['digests']} {run['model']}")
        shared = sum(1 for run in b[workload] if run["seed"] in by_seed)
        print(f"model.* and digests compared on {shared} shared seed(s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
