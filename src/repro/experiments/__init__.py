"""The experiment harness behind the paper's evaluation section."""

from .host import HostQueryResult, MobileHost
from .metrics import MetricsCollector, QueryRecord
from .parallel import (
    KNN_SERIES,
    WQ_SERIES,
    PointResult,
    SweepPoint,
    SweepSeries,
    assemble_series,
    run_points,
    run_sweep,
)
from .reporting import format_series, format_table
from .runners import (
    CONTINUOUS_SERIES,
    FIGURES,
    check_claims,
    run_continuous_sharing,
    run_figure,
)
from .simulator import Simulation
from .station import BaseStation, PacketEvent
from ..workloads import scaled_parameters

__all__ = [
    "BaseStation",
    "CONTINUOUS_SERIES",
    "FIGURES",
    "HostQueryResult",
    "KNN_SERIES",
    "MetricsCollector",
    "MobileHost",
    "PacketEvent",
    "PointResult",
    "QueryRecord",
    "Simulation",
    "SweepPoint",
    "SweepSeries",
    "WQ_SERIES",
    "assemble_series",
    "check_claims",
    "format_series",
    "format_table",
    "run_continuous_sharing",
    "run_figure",
    "run_points",
    "run_sweep",
    "scaled_parameters",
]
