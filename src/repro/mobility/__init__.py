"""Mobility substrate: vectorised random waypoint and
road-network-constrained trajectories."""

from .fleet import WaypointFleet
from .roadnet import GridRoadNetwork, RoadTrajectory

__all__ = [
    "GridRoadNetwork",
    "RoadTrajectory",
    "WaypointFleet",
]
