"""Result export: CSV serialisation of figure sweeps.

The benchmark harness prints ASCII tables; downstream analysis wants
machine-readable files.  Pure standard library (``csv``), no pandas.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from ..errors import ExperimentError
from .parallel import SweepSeries


def sweep_to_rows(panels: Iterable[SweepSeries]) -> list[dict[str, object]]:
    """Flatten figure panels into one row per (region, x, series)."""
    rows: list[dict[str, object]] = []
    for panel in panels:
        for i, x in enumerate(panel.xs):
            for name, values in panel.series.items():
                rows.append(
                    {
                        "region": panel.region,
                        "x_label": panel.x_label,
                        "x": x,
                        "series": name,
                        "percent": values[i],
                    }
                )
    return rows


def write_sweep_csv(panels: Iterable[SweepSeries], path: str | Path) -> Path:
    """Write figure panels to a CSV file; returns the path."""
    rows = sweep_to_rows(panels)
    if not rows:
        raise ExperimentError("nothing to export: empty sweep")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path
