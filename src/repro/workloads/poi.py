"""POI generation.

The paper models POIs (gas stations, from GasPriceWatch.com data) as
Poisson distributed — the assumption behind Lemma 3.2.  Two flavours:

* :func:`generate_pois` — a *conditioned* Poisson field: exactly the
  Table 3 count, uniformly placed;
* :func:`clustered_pois` — a Neyman-Scott (cluster) process for the
  robustness ablation: real gas stations cluster along arterials.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExperimentError
from ..geometry import Point, Rect
from ..model import DEFAULT_CATEGORY, POI


def generate_pois(
    bounds: Rect,
    count: int,
    rng: np.random.Generator,
    category: str = DEFAULT_CATEGORY,
    id_offset: int = 0,
) -> list[POI]:
    """Exactly ``count`` uniform POIs in ``bounds``."""
    if count < 1:
        raise ExperimentError(f"POI count must be >= 1, got {count}")
    xs = rng.uniform(bounds.x1, bounds.x2, count)
    ys = rng.uniform(bounds.y1, bounds.y2, count)
    return [
        POI(id_offset + i, Point(float(x), float(y)), category)
        for i, (x, y) in enumerate(zip(xs, ys))
    ]


def clustered_pois(
    bounds: Rect,
    count: int,
    rng: np.random.Generator,
    cluster_count: int = 12,
    cluster_sigma: float | None = None,
    category: str = DEFAULT_CATEGORY,
) -> list[POI]:
    """``count`` POIs clustered around random parent centres.

    A Neyman-Scott process: parents are uniform; offspring are Gaussian
    around their parent (clipped to the bounds).  Used to test how the
    Poisson-based correctness probabilities degrade on clustered data.
    """
    if count < 1:
        raise ExperimentError(f"POI count must be >= 1, got {count}")
    if cluster_count < 1:
        raise ExperimentError("cluster_count must be >= 1")
    if cluster_sigma is None:
        cluster_sigma = min(bounds.width, bounds.height) / 20.0
    parents_x = rng.uniform(bounds.x1, bounds.x2, cluster_count)
    parents_y = rng.uniform(bounds.y1, bounds.y2, cluster_count)
    assignment = rng.integers(0, cluster_count, count)
    xs = np.clip(
        parents_x[assignment] + rng.normal(0, cluster_sigma, count),
        bounds.x1,
        bounds.x2,
    )
    ys = np.clip(
        parents_y[assignment] + rng.normal(0, cluster_sigma, count),
        bounds.y1,
        bounds.y2,
    )
    return [
        POI(i, Point(float(x), float(y)), category)
        for i, (x, y) in enumerate(zip(xs, ys))
    ]
