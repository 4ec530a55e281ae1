"""Line segments: the boundary pieces a union of rectangles reports."""

from __future__ import annotations

from dataclasses import dataclass

from .point import Point


@dataclass(frozen=True, slots=True)
class Segment:
    """An immutable 2-D line segment between two endpoints."""

    a: Point
    b: Point
