"""The simulation parameter sets of Tables 3 and 4.

Three worlds: *Los Angeles City* (dense urban), *Riverside County*
(rural), and *Synthetic Suburbia* (their blend).  All densities come
straight from the paper; the region is a 20 mi × 20 mi square.

Because a full-scale world (93,300 hosts for 10 simulated hours) is a
cluster-sized job, :func:`scaled_parameters` shrinks the *region*
while preserving every density the results depend on: hosts/mi²,
POIs/mi², and query arrivals per host.  The paper's metrics are all
density-driven percentages, so the curves survive scaling (modulo
small edge effects).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

from ..errors import ExperimentError
from ..geometry import Rect

METERS_PER_MILE = 1609.344


class ScalingClampWarning(UserWarning):
    """A density-preserving rescale silently hit a parameter bound.

    Raised as a *warning* (not an error) because the clamped world is
    still simulable — but its curves are no longer comparable to other
    scales, so validation sweeps must exclude the clamped points.
    """


@dataclass(frozen=True, slots=True)
class ParameterSet:
    """One column of Table 3 (plus the fixed 20-mile region side)."""

    name: str
    poi_number: int  # POINumber
    mh_number: int  # MHNumber
    cache_size: int  # CSize (POIs per data type)
    query_rate_per_min: float  # Query (mean queries/minute, whole system)
    tx_range_m: float  # TxRange (metres)
    knn_k: int  # kNN (mean k)
    window_percent: float  # Window (mean window size, % of area)
    window_distance_mi: float  # Distance (mean MH-to-window-centre, miles)
    execution_hours: float  # Texecution
    area_side_mi: float = 20.0
    # Fraction of the *requested* window percentage that survived
    # rescaling: 1.0 for an unclamped world, < 1.0 when
    # :func:`scaled_parameters` had to cap ``window_percent`` at 100 %
    # of the shrunken side.  Clamped worlds run fine but their
    # window-size curves are not comparable across scales, so
    # edge-effect validation keys on :attr:`window_clamped`.
    window_scale_effective: float = 1.0

    def __post_init__(self) -> None:
        if min(self.poi_number, self.mh_number, self.cache_size) < 1:
            raise ExperimentError(f"{self.name}: counts must be >= 1")
        if self.query_rate_per_min <= 0 or self.tx_range_m <= 0:
            raise ExperimentError(f"{self.name}: rates and ranges must be > 0")
        if self.knn_k < 1 or not (0 < self.window_percent <= 100):
            raise ExperimentError(f"{self.name}: invalid query parameters")
        if self.area_side_mi <= 0:
            raise ExperimentError(f"{self.name}: region side must be > 0")
        if not (0 < self.window_scale_effective <= 1):
            raise ExperimentError(
                f"{self.name}: window_scale_effective must be in (0, 1],"
                f" got {self.window_scale_effective}"
            )

    @property
    def window_clamped(self) -> bool:
        """True when rescaling capped the window percentage at 100 %."""
        return self.window_scale_effective < 1.0

    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Rect:
        return Rect(0.0, 0.0, self.area_side_mi, self.area_side_mi)

    @property
    def area_mi2(self) -> float:
        return self.area_side_mi**2

    @property
    def tx_range_mi(self) -> float:
        return self.tx_range_m / METERS_PER_MILE

    @property
    def poi_density(self) -> float:
        """POIs per square mile (the λ of Lemma 3.2)."""
        return self.poi_number / self.area_mi2

    @property
    def mh_density(self) -> float:
        """Mobile hosts per square mile."""
        return self.mh_number / self.area_mi2

    @property
    def query_rate_per_sec(self) -> float:
        return self.query_rate_per_min / 60.0

    @property
    def window_side_mi(self) -> float:
        """Mean window side: ``window_percent`` of the region side.

        Table 4's "mean size of query windows [as a fraction] of the
        whole search space" is read against the search-space *extent*
        (side), not its area: a 3 % window of the 20-mile region is
        0.6 mi × 0.6 mi (~2.5 gas stations in LA) — which is the only
        reading under which the cache-capacity sweep of Figure 14
        (6–30 cached items) can move window queries at all.
        """
        return self.window_percent / 100.0 * self.area_side_mi

    @property
    def window_area_mi2(self) -> float:
        """Mean window area implied by the window percentage."""
        return self.window_side_mi**2

    @property
    def expected_peers(self) -> float:
        """Mean single-hop neighbour count at this host density."""
        return self.mh_density * math.pi * self.tx_range_mi**2

    def replace(self, **overrides) -> "ParameterSet":
        """A copy with some fields overridden (sweep helper)."""
        return dataclasses.replace(self, **overrides)


LA_CITY = ParameterSet(
    name="Los Angeles City",
    poi_number=2750,
    mh_number=93300,
    cache_size=50,
    query_rate_per_min=6220,
    tx_range_m=200,
    knn_k=5,
    window_percent=3,
    window_distance_mi=1,
    execution_hours=10,
)

RIVERSIDE_COUNTY = ParameterSet(
    name="Riverside County",
    poi_number=1450,
    mh_number=9700,
    cache_size=50,
    query_rate_per_min=650,
    tx_range_m=200,
    knn_k=5,
    window_percent=3,
    window_distance_mi=1,
    execution_hours=10,
)

SYNTHETIC_SUBURBIA = ParameterSet(
    name="Synthetic Suburbia",
    poi_number=2100,
    mh_number=51500,
    cache_size=50,
    query_rate_per_min=3440,
    tx_range_m=200,
    knn_k=5,
    window_percent=3,
    window_distance_mi=1,
    execution_hours=10,
)

ALL_REGIONS = (LA_CITY, SYNTHETIC_SUBURBIA, RIVERSIDE_COUNTY)


def scaled_parameters(
    base: ParameterSet, area_scale: float = 1.0, **overrides
) -> ParameterSet:
    """Shrink the world by an *area* factor, preserving all densities.

    ``area_scale=0.04`` keeps a 4 %-area region (side 4 mi instead of
    20 mi) with proportionally fewer hosts, POIs, and queries per
    minute — identical densities, hence comparable resolution shares.
    Field overrides (e.g. ``tx_range_m=100``) apply BEFORE rescaling of
    the window percentage, so override values keep their full-scale
    meaning.

    The *absolute* window geometry is preserved too: ``window_percent``
    is re-expressed against the shrunken side so a "3 % window" still
    measures 0.6 mi on a side (same POIs per window, same size relative
    to host drift — the quantities Figures 13–15 actually exercise).
    """
    if not (0 < area_scale <= 1):
        raise ExperimentError(f"area_scale must be in (0, 1], got {area_scale}")
    base = dataclasses.replace(base, **overrides) if overrides else base
    side = base.area_side_mi * math.sqrt(area_scale)
    window_pct_requested = base.window_percent / math.sqrt(area_scale)
    window_pct = min(100.0, window_pct_requested)
    # The clamp used to be silent: at small area_scale a "5 % window"
    # re-expressed against the shrunken side can exceed the whole
    # region, and quietly capping it distorts window-size figures —
    # the capped point measures a *different* (smaller) window than
    # its label claims.  Surface it loudly and stamp the parameter set
    # so validation sweeps can exclude the point.
    window_scale_effective = 1.0
    if window_pct < window_pct_requested:
        window_scale_effective = window_pct / window_pct_requested
        warnings.warn(
            f"{base.name}: area_scale={area_scale:g} clamps the window"
            f" to 100% of the scaled side ({window_pct_requested:.1f}%"
            f" requested); window-size curves at this point are not"
            f" comparable across scales",
            ScalingClampWarning,
            stacklevel=2,
        )
    return dataclasses.replace(
        base,
        name=f"{base.name} (x{area_scale:g} area)" if area_scale != 1 else base.name,
        poi_number=max(8, round(base.poi_number * area_scale)),
        mh_number=max(2, round(base.mh_number * area_scale)),
        query_rate_per_min=base.query_rate_per_min * area_scale,
        area_side_mi=side,
        window_percent=window_pct,
        window_scale_effective=window_scale_effective,
    )
