"""Shared benchmark configuration and reporting.

Two profiles, selected with the ``REPRO_BENCH_PROFILE`` environment
variable:

* ``quick`` (default) — small scaled worlds and short runs; every
  table regenerates in a couple of minutes and the paper's *shapes*
  (orderings, trends) are already visible;
* ``full``  — larger worlds and deeper warm-up, closer to the paper's
  steady state; use for the numbers quoted in EXPERIMENTS.md.

Every benchmark prints its table (run pytest with ``-s`` to see it
live) and writes it under ``benchmarks/results/`` regardless — as
``<slug>.txt`` for humans and, when a payload is supplied, as
``<slug>.json`` for machines.  Figures 10–15 are not here: ``make
experiments`` writes them there as ``fig1*.csv`` and checks the paper's
claims about them.

``REPRO_BENCH_WORKERS`` sets the sweep-runner process count (default:
one per CPU); the results are identical for every worker count because
the per-point seeds are fixed up-front.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class BenchProfile:
    name: str
    area_scale: float
    warmup_queries: int
    measure_queries: int


PROFILES = {
    "quick": BenchProfile(
        name="quick",
        area_scale=0.06,
        warmup_queries=2200,
        measure_queries=400,
    ),
    "full": BenchProfile(
        name="full",
        area_scale=0.1,
        warmup_queries=8000,
        measure_queries=1000,
    ),
}


def profile() -> BenchProfile:
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name not in PROFILES:
        raise ValueError(
            f"REPRO_BENCH_PROFILE must be one of {sorted(PROFILES)}, got {name!r}"
        )
    return PROFILES[name]


def workers() -> int:
    """Sweep-runner process count (``REPRO_BENCH_WORKERS``, default: CPUs)."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if raw:
        count = int(raw)
        if count < 1:
            raise ValueError(f"REPRO_BENCH_WORKERS must be >= 1, got {count}")
        return count
    return os.cpu_count() or 1


def emit(title: str, text: str, payload: dict | None = None) -> None:
    """Print a result block and persist it under benchmarks/results/.

    ``payload`` additionally writes a machine-readable ``<slug>.json``
    next to the human-readable ``<slug>.txt``.
    """
    banner = f"\n===== {title} [{profile().name} profile] ====="
    print(banner)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = title.lower().replace(" ", "_").replace("/", "-")
    (RESULTS_DIR / f"{slug}.txt").write_text(banner + "\n" + text + "\n")
    if payload is not None:
        record = {"title": title, "profile": profile().name, **payload}
        (RESULTS_DIR / f"{slug}.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
