"""Wireless broadcast substrate: (1, m) cycle, Hilbert data file, and
the on-air spatial query algorithms (Zheng et al. [17])."""

from .batch import BatchMember, BatchScanResult, batch_scan
from .client import OnAirClient
from .onair_knn import (
    KnnPlan,
    OnAirKnnResult,
    answer_knn,
    estimate_search_radius,
    onair_knn,
    plan_knn,
)
from .onair_window import (
    OnAirWindowResult,
    answer_window,
    onair_window,
    plan_window,
)
from .packets import DataBucket, IndexEntry, IndexSegment
from .schedule import BroadcastSchedule, RetrievalCost
from .server import BroadcastServer

__all__ = [
    "BatchMember",
    "BatchScanResult",
    "BroadcastSchedule",
    "BroadcastServer",
    "DataBucket",
    "IndexEntry",
    "IndexSegment",
    "KnnPlan",
    "OnAirClient",
    "OnAirKnnResult",
    "OnAirWindowResult",
    "RetrievalCost",
    "answer_knn",
    "answer_window",
    "batch_scan",
    "estimate_search_radius",
    "onair_knn",
    "onair_window",
    "plan_knn",
    "plan_window",
]
