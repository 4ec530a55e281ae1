"""Vectorised random-waypoint mobility for tens of thousands of hosts.

The experiment harness simulates up to ~10^5 mobile hosts; stepping
each one in Python is hopeless, so the fleet keeps every host's
current leg in numpy arrays and advances all of them with array
operations.  Positions are exact (analytic interpolation along the
leg), not integrated.
"""

from __future__ import annotations

import numpy as np

from ..errors import MobilityError
from ..geometry import Rect


class WaypointFleet:
    """``n`` hosts moving by random waypoint inside ``bounds``."""

    def __init__(
        self,
        n: int,
        bounds: Rect,
        rng: np.random.Generator,
        speed_range: tuple[float, float] = (5.0, 15.0),
        pause_range: tuple[float, float] = (0.0, 30.0),
    ):
        if n < 0:
            raise MobilityError(f"fleet size must be non-negative, got {n}")
        if bounds.is_degenerate():
            raise MobilityError("mobility area must have positive area")
        if not (0 < speed_range[0] <= speed_range[1]):
            raise MobilityError(f"invalid speed range {speed_range}")
        if not (0 <= pause_range[0] <= pause_range[1]):
            raise MobilityError(f"invalid pause range {pause_range}")
        self.n = n
        self.bounds = bounds
        self.rng = rng
        self.speed_range = speed_range
        self.pause_range = pause_range

        self.ox = rng.uniform(bounds.x1, bounds.x2, n)
        self.oy = rng.uniform(bounds.y1, bounds.y2, n)
        self.dx = rng.uniform(bounds.x1, bounds.x2, n)
        self.dy = rng.uniform(bounds.y1, bounds.y2, n)
        self.depart = np.zeros(n)
        speed = rng.uniform(*speed_range, n)
        dist = np.hypot(self.dx - self.ox, self.dy - self.oy)
        self.arrive = self.depart + dist / speed
        self.next_depart = self.arrive + rng.uniform(*pause_range, n)
        self._now = 0.0

    def advance_to(self, t: float) -> None:
        """Roll every host's leg forward so all legs are current at ``t``."""
        if t < self._now:
            raise MobilityError(f"time ran backwards: {t} < {self._now}")
        self._now = t
        if self.n == 0:
            return
        while True:
            expired = self.next_depart <= t
            if not expired.any():
                return
            idx = np.nonzero(expired)[0]
            self.ox[idx] = self.dx[idx]
            self.oy[idx] = self.dy[idx]
            self.dx[idx] = self.rng.uniform(
                self.bounds.x1, self.bounds.x2, idx.size
            )
            self.dy[idx] = self.rng.uniform(
                self.bounds.y1, self.bounds.y2, idx.size
            )
            self.depart[idx] = self.next_depart[idx]
            speed = self.rng.uniform(*self.speed_range, idx.size)
            dist = np.hypot(
                self.dx[idx] - self.ox[idx], self.dy[idx] - self.oy[idx]
            )
            self.arrive[idx] = self.depart[idx] + dist / speed
            self.next_depart[idx] = self.arrive[idx] + self.rng.uniform(
                *self.pause_range, idx.size
            )

    def positions(self, t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Exact x/y arrays at time ``t`` (defaults to the fleet clock)."""
        if t is None:
            t = self._now
        else:
            self.advance_to(t)
        duration = np.maximum(self.arrive - self.depart, 1e-12)
        frac = np.clip((t - self.depart) / duration, 0.0, 1.0)
        xs = self.ox + frac * (self.dx - self.ox)
        ys = self.oy + frac * (self.dy - self.oy)
        return xs, ys

    def headings(self, t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Unit direction arrays at ``t``; zero vectors while pausing."""
        if t is None:
            t = self._now
        else:
            self.advance_to(t)
        vx = self.dx - self.ox
        vy = self.dy - self.oy
        norm = np.hypot(vx, vy)
        norm[norm == 0.0] = 1.0
        moving = (self.depart <= t) & (t < self.arrive)
        ux = np.where(moving, vx / norm, 0.0)
        uy = np.where(moving, vy / norm, 0.0)
        return ux, uy
