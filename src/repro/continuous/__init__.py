"""Continuous safe-region monitoring queries (:mod:`repro.continuous`).

Standing kNN / window queries re-evaluated per tick: a per-query
*safe region* derived from the cache's verified regions answers most
ticks locally and provably exactly, and the re-evaluations that do
fall back to the channel in a tick share one batched broadcast scan.
"""

from .engine import (
    ContinuousMonitor,
    ContinuousStats,
    StandingQuery,
    standing_queries,
)
from .safe_region import SafeRegion, derive_safe_region

__all__ = [
    "ContinuousMonitor",
    "ContinuousStats",
    "SafeRegion",
    "StandingQuery",
    "derive_safe_region",
    "standing_queries",
]
