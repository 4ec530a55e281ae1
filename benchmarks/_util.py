"""Shared budget and reporting for the table scripts.

``make experiments`` runs every script here (``pytest benchmarks``)
after Figures 10–15, at one budget: worlds at ``AREA_SCALE`` of the
paper's area (densities preserved), ``WARMUP_QUERIES`` warm-up and
``MEASURE_QUERIES`` measured queries, fixed seeds.  Each script prints
its table (run pytest with ``-s`` to see it live) and writes it to
``benchmarks/results/<slug>.txt``.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
AREA_SCALE = 0.06
WARMUP_QUERIES = 2200
MEASURE_QUERIES = 400


def emit(title: str, text: str) -> None:
    """Print a result block and write it to ``results/<slug>.txt``."""
    banner = f"\n===== {title} ====="
    print(banner)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = title.lower().replace(" ", "_").replace("/", "-")
    (RESULTS_DIR / f"{slug}.txt").write_text(banner + "\n" + text + "\n")
