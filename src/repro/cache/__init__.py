"""Cooperative caching: per-host POI stores with verified regions."""

from .entry import SharedResult, VerifiedRegion
from .policy import DirectionDistancePolicy, FIFOPolicy, LRUPolicy, ReplacementPolicy
from .store import EVICTION_MARGIN, POICache, shrink_rect_to_exclude

__all__ = [
    "DirectionDistancePolicy",
    "EVICTION_MARGIN",
    "FIFOPolicy",
    "LRUPolicy",
    "POICache",
    "ReplacementPolicy",
    "SharedResult",
    "VerifiedRegion",
    "shrink_rect_to_exclude",
]
