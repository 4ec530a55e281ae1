"""The experiment harness behind the paper's evaluation section."""

from .host import HostQueryResult, MobileHost
from .metrics import MetricsCollector, QueryRecord
from .parallel import PointResult, SweepPoint, SweepRunner, assemble_series
from .reporting import format_series, format_table
from .runners import (
    CONTINUOUS_SERIES,
    KNN_SERIES,
    WQ_SERIES,
    SweepSeries,
    run_continuous_sharing,
    run_knn_cache,
    run_knn_k,
    run_knn_txrange,
    run_sweep,
    run_wq_cache,
    run_wq_size,
    run_wq_txrange,
)
from .simulator import Simulation
from .station import BaseStation, PacketEvent
from ..workloads import scaled_parameters

__all__ = [
    "BaseStation",
    "CONTINUOUS_SERIES",
    "HostQueryResult",
    "KNN_SERIES",
    "MetricsCollector",
    "MobileHost",
    "PacketEvent",
    "PointResult",
    "QueryRecord",
    "Simulation",
    "SweepPoint",
    "SweepRunner",
    "SweepSeries",
    "WQ_SERIES",
    "assemble_series",
    "format_series",
    "format_table",
    "run_continuous_sharing",
    "run_knn_cache",
    "run_knn_k",
    "run_knn_txrange",
    "run_sweep",
    "run_wq_cache",
    "run_wq_size",
    "run_wq_txrange",
    "scaled_parameters",
]
