"""repro — Location-based Spatial Queries with Data Sharing in
Wireless Broadcast Environments (Ku, Zimmermann, Wang — ICDE 2007).

A full reimplementation of the paper's system and its substrates:

* ``repro.core``       — NNV / SBNN / SBWQ, the paper's contribution;
* ``repro.geometry``   — exact rectilinear region algebra + Hilbert curve;
* ``repro.index``      — uniform grid and the brute-force oracle;
* ``repro.broadcast``  — (1, m) broadcast channel + on-air algorithms;
* ``repro.mobility``   — random waypoint and road-network movement;
* ``repro.cache``      — cooperative caches with verified regions;
* ``repro.p2p``        — single-hop peer discovery and share protocol;
* ``repro.analysis``   — the probabilistic hit-ratio model;
* ``repro.workloads``  — Table 3/4 parameter sets and generators;
* ``repro.experiments``— the simulation harness behind Figures 10–15;
* ``repro.faults``     — opt-in unreliable-wireless channel model.

Quickstart::

    from repro import quick_world
    world = quick_world(seed=7)
    outcome = world.run_knn_query(host_id=0, k=3)
"""

from .core import (
    HeapEntry,
    HeapState,
    Resolution,
    ResultHeap,
    SBNNOutcome,
    SBWQOutcome,
    SearchBounds,
    correctness_probability,
    nnv,
    sbnn,
    sbwq,
    search_bounds,
    surpassing_ratio,
)
from .geometry import Circle, Point, Rect, RectUnion
from .model import DEFAULT_CATEGORY, POI, QueryResultEntry

__version__ = "1.0.0"

__all__ = [
    "Circle",
    "DEFAULT_CATEGORY",
    "HeapEntry",
    "HeapState",
    "POI",
    "Point",
    "QueryResultEntry",
    "Rect",
    "RectUnion",
    "Resolution",
    "ResultHeap",
    "SBNNOutcome",
    "SBWQOutcome",
    "SearchBounds",
    "correctness_probability",
    "nnv",
    "quick_world",
    "sbnn",
    "sbwq",
    "search_bounds",
    "surpassing_ratio",
    "__version__",
]


def quick_world(seed: int = 0, **overrides):
    """Build a small ready-to-query simulated world (see examples/).

    Imported lazily so that ``import repro`` stays cheap.
    """
    from .experiments import Simulation, scaled_parameters
    from .workloads import SYNTHETIC_SUBURBIA

    params = scaled_parameters(SYNTHETIC_SUBURBIA, area_scale=0.15, **overrides)
    return Simulation(params, seed=seed)
