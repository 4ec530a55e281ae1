"""Circles (discs) and exact circle-rectangle intersection areas.

The correctness-probability model of the paper (Lemma 3.2) needs the
area of an *unverified region*: the part of the disc
``C(q, ||q, o||)`` not covered by the merged verified region.  Because
the merged verified region decomposes into disjoint axis-aligned
rectangles, an exact closed-form area for ``disc ∩ rectangle`` is all
that is required; :func:`circle_rect_intersection_area` provides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import GeometryError
from .point import Point
from .rect import Rect


@dataclass(frozen=True, slots=True)
class Circle:
    """A closed disc with ``radius >= 0``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise GeometryError(f"negative circle radius: {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def mbr(self) -> Rect:
        """The minimum bounding rectangle of the disc."""
        return Rect(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def inscribed_rect(self) -> Rect:
        """The largest axis-aligned square inscribed in the disc."""
        half = self.radius / math.sqrt(2.0)
        return Rect(
            self.center.x - half,
            self.center.y - half,
            self.center.x + half,
            self.center.y + half,
        )

    def intersects_rect(self, rect: Rect) -> bool:
        """True when the disc and the rectangle share at least one point."""
        return rect.distance_to_point(self.center) <= self.radius

    def contains_rect(self, rect: Rect) -> bool:
        """True when the whole rectangle lies inside the disc."""
        return rect.max_distance_to_point(self.center) <= self.radius


def _antiderivative(x: float, r: float) -> float:
    """Antiderivative of ``sqrt(r^2 - x^2)`` for ``|x| <= r``."""
    x = max(-r, min(r, x))
    return 0.5 * (x * math.sqrt(max(0.0, r * r - x * x)) + r * r * math.asin(x / r))


def _chord_x(y: float, r: float) -> float | None:
    """Positive x where the circle of radius ``r`` crosses height ``y``."""
    if abs(y) >= r:
        return None
    return math.sqrt(r * r - y * y)


def circle_rect_intersection_area(circle: Circle, rect: Rect) -> float:
    """Exact area of ``disc ∩ rectangle``.

    Works by translating the rectangle into the circle frame and
    integrating the vertical extent
    ``max(0, min(y2, f(x)) - max(y1, -f(x)))`` with ``f(x) = sqrt(r^2 - x^2)``
    piecewise: the integration domain is split at every x where the
    circle crosses ``y1`` or ``y2``, so within each piece the upper and
    lower envelopes are a single analytic branch.
    """
    r = circle.radius
    if r == 0.0:
        return 0.0
    x1 = rect.x1 - circle.center.x
    x2 = rect.x2 - circle.center.x
    y1 = rect.y1 - circle.center.y
    y2 = rect.y2 - circle.center.y

    a = max(x1, -r)
    b = min(x2, r)
    if a >= b or y1 >= r or y2 <= -r:
        return 0.0

    breakpoints = {a, b}
    for y in (y1, y2):
        cx = _chord_x(y, r)
        if cx is not None:
            for candidate in (-cx, cx):
                if a < candidate < b:
                    breakpoints.add(candidate)
    xs = sorted(breakpoints)

    total = 0.0
    for lo, hi in zip(xs, xs[1:]):
        mid = (lo + hi) / 2.0
        f_mid = math.sqrt(max(0.0, r * r - mid * mid))
        # Non-strict comparisons: when the circle is internally tangent
        # to an edge (f_mid == y2 or -f_mid == y1 at the sampled
        # midpoint) the circular arc is the binding envelope over the
        # whole piece — the strict form billed the rect strip instead,
        # over-reporting the area beyond min(circle, rect).
        top_is_circle = f_mid <= y2
        bottom_is_circle = -f_mid >= y1
        top_mid = f_mid if top_is_circle else y2
        bottom_mid = -f_mid if bottom_is_circle else y1
        if top_mid <= bottom_mid:
            continue
        piece = 0.0
        if top_is_circle:
            piece += _antiderivative(hi, r) - _antiderivative(lo, r)
        else:
            piece += y2 * (hi - lo)
        if bottom_is_circle:
            piece += _antiderivative(hi, r) - _antiderivative(lo, r)
        else:
            piece -= y1 * (hi - lo)
        total += piece
    return max(0.0, total)
