"""Query workload generation.

Arrivals form a Poisson process at the Table 3 rate; each arrival
picks a uniformly random mobile host (Section 4.1: "the simulator
selects a random subset of the mobile hosts to launch spatial
queries").  Per-query parameters follow the paper's *means*: ``k`` is
Poisson around the mean (clipped to >= 1); window areas are truncated
normal around the mean size; the window centre sits at a
normal-distributed distance from the host in a uniform direction
(Section 4.3.3).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from ..errors import ExperimentError
from ..geometry import Point, Rect
from .params import ParameterSet


class QueryKind(Enum):
    KNN = "knn"
    WINDOW = "window"


@dataclass(frozen=True, slots=True)
class QueryEvent:
    """One scheduled query: who asks what, when.

    Window geometry is *not* resolved here — the window centre depends
    on the host's position at fire time, so the event carries the area
    and the centre offset instead.
    """

    time: float
    host_id: int
    kind: QueryKind
    k: int = 1
    window_area: float = 0.0
    center_offset: tuple[float, float] = (0.0, 0.0)

    def window_for(self, host_position: Point, bounds: Rect) -> Rect:
        """Materialise the query window around the host's position."""
        if self.kind is not QueryKind.WINDOW:
            raise ExperimentError("window_for() on a kNN query event")
        side = math.sqrt(self.window_area)
        cx = host_position.x + self.center_offset[0]
        cy = host_position.y + self.center_offset[1]
        # Keep the window inside the service area (clamp the centre).
        cx = min(max(cx, bounds.x1 + side / 2), bounds.x2 - side / 2)
        cy = min(max(cy, bounds.y1 + side / 2), bounds.y2 - side / 2)
        window = Rect(cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2)
        clipped = window.intersection(bounds)
        assert clipped is not None
        return clipped


def seeded_events(
    params: ParameterSet,
    kind: QueryKind,
    seed: int,
    count: int,
    start_time: float = 0.0,
) -> list[QueryEvent]:
    """Materialise ``count`` workload events from a dedicated stream.

    The RNG is derived from ``seed`` alone (stream key
    ``(seed, 0x5E12E)``), never from a :class:`Simulation`'s world
    RNG, so the *same* event list can be replayed against an
    in-process simulation and over the wire against a base-station
    server and both worlds stay bit-identical.  This is the contract
    the serving layer's differential test leans on.
    """
    if count < 1:
        raise ExperimentError(f"need at least one event, got {count}")
    rng = np.random.default_rng((seed, 0x5E12E))
    workload = QueryWorkload(params, kind, rng, start_time=start_time)
    return list(itertools.islice(workload, count))


class QueryWorkload:
    """A Poisson stream of :class:`QueryEvent` for one experiment."""

    def __init__(
        self,
        params: ParameterSet,
        kind: QueryKind,
        rng: np.random.Generator,
        start_time: float = 0.0,
    ):
        self.params = params
        self.kind = kind
        self.rng = rng
        self._time = start_time

    def _draw_k(self) -> int:
        return max(1, int(self.rng.poisson(self.params.knn_k)))

    def _draw_window_area(self) -> float:
        mean = self.params.window_area_mi2
        area = float(self.rng.normal(mean, 0.25 * mean))
        lower = 0.1 * mean
        upper = min(3.0 * mean, self.params.area_mi2)
        return min(max(area, lower), upper)

    def _draw_center_offset(self) -> tuple[float, float]:
        distance = abs(
            float(
                self.rng.normal(
                    self.params.window_distance_mi,
                    0.25 * self.params.window_distance_mi,
                )
            )
        )
        angle = float(self.rng.uniform(0, 2 * math.pi))
        return (distance * math.cos(angle), distance * math.sin(angle))

    def __iter__(self) -> Iterator[QueryEvent]:
        return self

    def __next__(self) -> QueryEvent:
        self._time += float(
            self.rng.exponential(1.0 / self.params.query_rate_per_sec)
        )
        host_id = int(self.rng.integers(self.params.mh_number))
        if self.kind is QueryKind.KNN:
            return QueryEvent(
                time=self._time,
                host_id=host_id,
                kind=QueryKind.KNN,
                k=self._draw_k(),
            )
        return QueryEvent(
            time=self._time,
            host_id=host_id,
            kind=QueryKind.WINDOW,
            window_area=self._draw_window_area(),
            center_offset=self._draw_center_offset(),
        )
