"""Calibration of the Lemma 3.2 correctness probabilities.

Lemma 3.2 prices an unverified candidate's correctness under a Poisson
POI assumption ("based on our observation of several common POI
types").  This module measures how well those probabilities are
calibrated on an actual POI field: it generates random queries against
random partial verified regions, collects (predicted probability,
actually correct) pairs for the unverified heap entries, and reports
reliability bins and the Brier score.

Running it on a :func:`repro.workloads.clustered_pois` field
quantifies how much the Poisson assumption degrades on clustered data
— the robustness question the paper leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import nnv
from ..core.approx import annotate_heap
from ..errors import ExperimentError
from ..geometry import Point, Rect
from ..index import brute_force_knn
from ..model import POI
from ..p2p import ShareResponse


@dataclass(frozen=True, slots=True)
class CalibrationBin:
    """One reliability-diagram bin."""

    lower: float
    upper: float
    count: int
    mean_predicted: float
    empirical_rate: float


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    """Reliability bins plus summary scores."""

    bins: tuple[CalibrationBin, ...]
    brier_score: float
    sample_count: int

    @property
    def max_calibration_gap(self) -> float:
        """Worst |predicted − empirical| over the populated bins."""
        gaps = [
            abs(b.mean_predicted - b.empirical_rate)
            for b in self.bins
            if b.count >= 10
        ]
        return max(gaps) if gaps else 0.0


def correctness_calibration(
    pois: Sequence[POI],
    bounds: Rect,
    rng: np.random.Generator,
    trials: int = 400,
    k: int = 5,
    vr_side_range: tuple[float, float] = (0.5, 2.0),
    peers_range: tuple[int, int] = (1, 4),
    bin_count: int = 5,
) -> CalibrationResult:
    """Measure Lemma 3.2 calibration on a given POI field.

    Each trial drops 1–4 honest verified regions near a random query
    point, runs NNV, annotates the heap at the field's *average*
    density (exactly what a real host would use), and checks each
    unverified entry against the brute-force ground truth: an
    unverified i-th entry is "correct" when it really is the i-th NN.
    """
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    if not pois:
        raise ExperimentError("calibration needs a POI field")
    density = len(pois) / bounds.area
    predicted: list[float] = []
    actual: list[bool] = []
    for _ in range(trials):
        q = Point(
            float(rng.uniform(bounds.x1 + 2, bounds.x2 - 2)),
            float(rng.uniform(bounds.y1 + 2, bounds.y2 - 2)),
        )
        responses = []
        n_peers = int(rng.integers(peers_range[0], peers_range[1] + 1))
        for peer in range(n_peers):
            side = float(rng.uniform(*vr_side_range))
            # Keep q inside or near the first region so some entries
            # verify and the rest carry probabilities.
            ox, oy = rng.uniform(-side / 2, side / 2, 2)
            vr = Rect(
                q.x + ox - side / 2,
                q.y + oy - side / 2,
                q.x + ox + side / 2,
                q.y + oy + side / 2,
            )
            inside = tuple(
                p for p in pois if vr.contains_point(p.location)
            )
            responses.append(ShareResponse(peer, (vr,), inside))
        heap, read = nnv(q, responses, k)
        mvr = read.mvr
        if mvr.is_empty:
            continue
        annotate_heap(q, heap, mvr, density)
        truth = [
            e.poi.poi_id for e in brute_force_knn(pois, q, len(heap))
        ]
        for rank, entry in enumerate(heap):
            if entry.verified or entry.correctness is None:
                continue
            predicted.append(entry.correctness)
            actual.append(
                rank < len(truth) and truth[rank] == entry.poi.poi_id
            )
    if not predicted:
        raise ExperimentError("no unverified entries sampled; widen the setup")

    predicted_arr = np.asarray(predicted)
    actual_arr = np.asarray(actual, dtype=float)
    brier = float(np.mean((predicted_arr - actual_arr) ** 2))
    edges = np.linspace(0.0, 1.0, bin_count + 1)
    bins: list[CalibrationBin] = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (predicted_arr >= lo) & (
            (predicted_arr < hi) if hi < 1.0 else (predicted_arr <= hi)
        )
        count = int(mask.sum())
        bins.append(
            CalibrationBin(
                lower=float(lo),
                upper=float(hi),
                count=count,
                mean_predicted=float(predicted_arr[mask].mean()) if count else 0.0,
                empirical_rate=float(actual_arr[mask].mean()) if count else 0.0,
            )
        )
    return CalibrationResult(
        bins=tuple(bins),
        brier_score=brier,
        sample_count=len(predicted),
    )
