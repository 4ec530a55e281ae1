"""The probabilistic hit-ratio model (contribution (d) of the paper).

The paper demonstrates the feasibility of sharing with a probabilistic
analysis of the *hit ratio* — the chance a query is fully answered by
peers.  The published text sketches the ingredients (Poisson POIs,
Poisson peers, verified-region coverage); this module is our
reconstruction, kept deliberately transparent:

1. A kNN query of rank ``k`` needs the disc ``C(q, r_k)`` covered,
   with ``r_k`` the k-th NN distance (Gamma-distributed for Poisson
   POIs).
2. Each of the ``N ~ Poisson(ρ_mh · πR²)`` reachable peers holds a
   verified region modelled as a square of area ``a`` (what a cache of
   ``CSize`` POIs can certify at POI density ``λ``: ``a = min(CSize,
   s_result)/λ``), centred within ``drift`` of the peer.
3. One peer covers the disc iff its square contains it; the model
   combines the per-peer coverage probability ``p`` into
   ``P(hit) = 1 − (1 − p)^E[N]``.

:func:`simulate_knn_hit_ratio` Monte-Carlo-checks the same geometry
without the closed-form approximations; the benchmark compares model,
Monte Carlo, and the full simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ExperimentError
from ..geometry import Circle, Point, Rect, RectUnion
from ..workloads import ParameterSet
from .poisson import expected_peers, knn_distance_mean

# How far a peer's verified region has wandered from the peer since it
# was built (movement between its query and now), in miles.
REGION_DRIFT_MI = 0.25


@dataclass(frozen=True, slots=True)
class HitRatioInputs:
    """The distilled quantities the model runs on."""

    expected_peer_count: float
    knn_radius: float
    vr_side: float
    drift: float


def model_inputs(
    params: ParameterSet,
    k: int | None = None,
    cache_size: int | None = None,
    pois_per_result: float | None = None,
) -> HitRatioInputs:
    """Derive the model inputs from a Table 3 parameter set.

    The region drift is :data:`REGION_DRIFT_MI`.  ``pois_per_result``
    caps how many POIs one broadcast answer yields (the paper's
    example: a 5-NN download carries ~15 POIs).  Its
    default is pinned to the *workload mean* ``params.knn_k`` — an
    above-average-k query faces caches built mostly by average-k
    downloads, which is why Figure 12's hit ratio falls as k grows.
    """
    k = k if k is not None else params.knn_k
    cache_size = cache_size if cache_size is not None else params.cache_size
    if pois_per_result is None:
        pois_per_result = 3.0 * params.knn_k
    certified = min(float(cache_size), pois_per_result)
    vr_area = certified / params.poi_density
    return HitRatioInputs(
        expected_peer_count=expected_peers(params.mh_density, params.tx_range_mi),
        knn_radius=knn_distance_mean(k, params.poi_density),
        vr_side=math.sqrt(vr_area),
        drift=REGION_DRIFT_MI,
    )


def single_peer_coverage(inputs: HitRatioInputs) -> float:
    """``p``: one random peer's VR square covers the query disc.

    The square (side ``s``) covers the disc (radius ``r``) iff its
    centre lies within the centred square of side ``s − 2r``; the
    centre is uniform over a square of side ``2·drift + s`` around the
    query point (peer position within range plus region drift).
    """
    s = inputs.vr_side
    r = inputs.knn_radius
    if s <= 2 * r:
        return 0.0
    usable = s - 2 * r
    spread = 2 * inputs.drift + s
    return min(1.0, (usable / spread) ** 2)


def knn_hit_ratio(inputs: HitRatioInputs) -> float:
    """``P(kNN resolved by peers) ≈ 1 − (1 − p)^{E[N]}``."""
    p = single_peer_coverage(inputs)
    n = inputs.expected_peer_count
    if p >= 1.0:
        return 1.0
    return 1.0 - math.exp(n * math.log(1.0 - p)) if p > 0 else 0.0


def knn_hit_ratio_for(params: ParameterSet, **kwargs) -> float:
    """Convenience: parameter set → model hit ratio."""
    return knn_hit_ratio(model_inputs(params, **kwargs))


def window_hit_ratio(
    params: ParameterSet,
    window_area: float | None = None,
    **kwargs,
) -> float:
    """The window-query variant: the window itself must be covered.

    Reuses the kNN machinery with the disc radius replaced by the
    window's circumradius (a square window of area ``A`` has
    circumradius ``sqrt(A/2)``)."""
    inputs = model_inputs(params, **kwargs)
    if window_area is None:
        window_area = params.window_area_mi2
    if window_area <= 0:
        raise ExperimentError("window_area must be positive")
    circum = math.sqrt(window_area / 2.0)
    adjusted = HitRatioInputs(
        expected_peer_count=inputs.expected_peer_count,
        knn_radius=circum,
        vr_side=inputs.vr_side,
        drift=inputs.drift + params.window_distance_mi,
    )
    return knn_hit_ratio(adjusted)


# ----------------------------------------------------------------------
# Monte-Carlo cross-check (same geometry, no closed-form shortcuts)
# ----------------------------------------------------------------------
def simulate_knn_hit_ratio(
    inputs: HitRatioInputs,
    rng: np.random.Generator,
    trials: int = 2000,
) -> float:
    """Estimate the hit ratio by sampling the model's geometry.

    Peers are Poisson-many; VR squares are dropped with uniform offsets
    and the *union* is tested against the disc — so the Monte Carlo is
    strictly more permissive than the single-peer closed form (several
    partial VRs can jointly cover the disc)."""
    if trials < 1:
        raise ExperimentError("trials must be >= 1")
    hits = 0
    q = Point(0.0, 0.0)
    disc = Circle(q, inputs.knn_radius)
    half = inputs.vr_side / 2.0
    spread = inputs.drift + half
    for _ in range(trials):
        n = int(rng.poisson(inputs.expected_peer_count))
        if n == 0:
            continue
        offsets = rng.uniform(-spread, spread, (n, 2))
        rects = [
            Rect(ox - half, oy - half, ox + half, oy + half)
            for ox, oy in offsets
        ]
        region = RectUnion(rects)
        if region.contains_circle(disc):
            hits += 1
    return hits / trials
