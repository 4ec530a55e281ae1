"""Geometry substrate: points, rectangles, discs, rectilinear regions,
and the Hilbert space-filling curve.

This package replaces the computational-geometry dependencies of the
original system (a MapOverlay implementation and ad-hoc disc/area
routines) with exact, dependency-free code specialised to the shapes
the paper actually uses: axis-aligned MBRs and discs.
"""

from .circle import Circle, circle_rect_intersection_area
from .hilbert import (
    HilbertGrid,
    hilbert_d_to_xy,
    hilbert_d_to_xy_batch,
    hilbert_xy_to_d,
    hilbert_xy_to_d_batch,
)
from .point import Point
from .rect import Rect
from .region import (
    RectUnion,
    intervals_complement_within,
    intervals_cover,
    intervals_difference,
    intervals_total_length,
    merge_intervals,
)
from .slabunion import SlabUnion

__all__ = [
    "Circle",
    "HilbertGrid",
    "Point",
    "Rect",
    "RectUnion",
    "SlabUnion",
    "circle_rect_intersection_area",
    "hilbert_d_to_xy",
    "hilbert_d_to_xy_batch",
    "hilbert_xy_to_d",
    "hilbert_xy_to_d_batch",
    "intervals_complement_within",
    "intervals_cover",
    "intervals_difference",
    "intervals_total_length",
    "merge_intervals",
]
