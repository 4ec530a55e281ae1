"""Check, or fit again, the two exponents of bench/calib.py.

    python3 bench/fit_calib.py SET.json [SET.json ...]

Input: sets written by ``bench/spread.py --out``; only raw timings and
kernel means are read.  Every timed window of every run is one
observation: a raw time ``y`` (seconds per query, CPU per query,
latency, set-up) and the mean ``spin`` and ``chase`` kernel times over
that window.  Per workload and metric it prints the least-squares fit of
``log y = a * log spin + b * log chase + c`` and the spread (IQR /
median) of the observations raw and divided by ``calib.slowdown`` with
the exponents in use.  Observations of different seeds differ in work as
well as in host speed, so the fit is blunter than one over reps of
identical work; it is here to show that one pair of exponents serves
every workload.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import metrics  # noqa: E402

def observations(timing: dict) -> list[tuple[str, float, float, float]]:
    """(metric, raw time-like value, spin_s, chase_s) per timed window."""
    out = []
    if "setup" in timing:
        s = timing["setup"]
        out.append(("setup_s", s["raw_s"], s["spin_s"], s["chase_s"]))
    for rep in timing.get("reps", []):
        speed, raw = rep["host_speed"], rep["raw"]
        at = (speed["spin_s"], speed["chase_s"])
        out.append(("queries_per_s", 1.0 / raw["queries_per_s"], *at))
        out.append(("cpu_ms_per_query", raw["cpu_ms_per_query"], *at))
        out.append(("latency_ms_p50", raw["latency_ms_p50"], *at))
        if "setup_speed" in rep:
            s = rep["setup_speed"]
            out.append(("setup_s", raw["setup_s"], s["spin_s"], s["chase_s"]))
    for phase in timing.get("phases", []):
        speed, raw = phase["host_speed"], phase["raw"]
        at = (speed["spin_s"], speed["chase_s"])
        if phase["kind"] == "closed":
            out.append(("queries_per_s", 1.0 / raw["queries_per_s"], *at))
        elif phase["kind"] == "open":
            out.append(("latency_ms_p50", raw["latency_ms_p50"], *at))
    if "timed" in timing:
        t = timing["timed"]
        out.append(("cpu_ms_per_query", t["server_cpu_s"] / t["queries"],
                    t["spin_s"], t["chase_s"]))
    return out


def fitted_exponents(y, spin, chase) -> tuple[float, float]:
    columns = np.column_stack([np.log(spin), np.log(chase), np.ones_like(y)])
    (a, b, _), *_ = np.linalg.lstsq(columns, np.log(y), rcond=None)
    return float(a), float(b)


def main() -> int:
    by_workload: dict[str, dict[str, list]] = {}
    for path in sys.argv[1:]:
        with open(path) as handle:
            document = json.load(handle)
        for workload, entry in document.items():
            for run in entry["runs"]:
                for metric, *row in observations(run["timing"]):
                    by_workload.setdefault(workload, {}).setdefault(
                        metric, []
                    ).append(row)
    print(f"exponents in use: spin {calib.SPIN_EXPONENT}, chase {calib.CHASE_EXPONENT}")
    for workload, series in by_workload.items():
        print(f"# {workload}")
        for metric, rows in series.items():
            y, spin, chase = np.array(rows).T
            a, b = fitted_exponents(y, spin, chase)
            corrected = y / calib.slowdown((spin, chase))
            print(
                f"{metric:18s} n={len(y):3d}  fit spin {a:5.2f} chase {b:5.2f}"
                f"  spread raw {metrics.spread(list(y)):5.3f}"
                f" corrected {metrics.spread(list(corrected)):5.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
