"""Workloads: Table 3/4 parameter sets, POI fields, query streams."""

from .params import (
    ALL_REGIONS,
    LA_CITY,
    METERS_PER_MILE,
    RIVERSIDE_COUNTY,
    SYNTHETIC_SUBURBIA,
    ParameterSet,
    ScalingClampWarning,
    scaled_parameters,
)
from .poi import clustered_pois, generate_pois
from .queries import QueryEvent, QueryKind, QueryWorkload, seeded_events

__all__ = [
    "ALL_REGIONS",
    "LA_CITY",
    "METERS_PER_MILE",
    "ParameterSet",
    "QueryEvent",
    "QueryKind",
    "QueryWorkload",
    "RIVERSIDE_COUNTY",
    "SYNTHETIC_SUBURBIA",
    "ScalingClampWarning",
    "clustered_pois",
    "generate_pois",
    "scaled_parameters",
    "seeded_events",
]
