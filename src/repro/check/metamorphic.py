"""Metamorphic properties: relations between *pairs* of runs.

A differential oracle says "this answer matches brute force"; a
metamorphic property says "these two answers must relate in a known
way even when neither is independently checkable".  Four families:

* **Translation invariance** — shifting the whole world (POIs, bounds,
  query point) by a constant offset must not change a kNN answer,
  even though every Hilbert cell, bucket id, and broadcast segment
  changes underneath.
* **k-monotonicity** — the k-th NN radius is non-decreasing in ``k``,
  and each answer extends the previous one as a prefix.
* **Window-shrink duality** — ``w' = w − MVR`` (Section 3.4.2): the
  remainder rectangles and the covered part partition the window.
* **Grid vs sweep** — the vectorised coverage-grid union kernel and
  the pure-Python slab sweep are two routes to one canonical
  structure: same slabs, same boundary segments, same lazy reads.

Every function returns a list of human-readable violation strings
(empty = property holds) so the fuzz campaign and the hypothesis
tests share one implementation.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from ..broadcast import OnAirClient
from ..geometry import Point, Rect, RectUnion, SlabUnion
from ..geometry.region import (
    grid_boundary_coord_arrays,
    grid_slabs,
    slabs_boundary_coord_arrays,
    slabs_contains_point,
    sweep_slabs,
)
from ..model import POI
from .invariants import InvariantViolation, check_union
from .oracles import oracle_union_area

AREA_TOL = 1e-9
# How many eviction margins of knowledge loss the shrink check models.
SHRINK_MARGIN_SCALE = 4.0


def _knn_ids(client: OnAirClient, query: Point, k: int) -> list[int]:
    return [e.poi.poi_id for e in client.knn(query, k, t_query=0.0).results]


def translation_invariant_knn(
    pois: Sequence[POI],
    bounds: Rect,
    query: Point,
    k: int,
    offset: tuple[float, float],
    hilbert_order: int = 4,
    bucket_capacity: int = 4,
) -> list[str]:
    """On-air kNN answers must survive a rigid translation of the world."""
    dx, dy = offset
    moved = [
        POI(p.poi_id, Point(p.x + dx, p.y + dy), p.category) for p in pois
    ]
    moved_bounds = Rect(
        bounds.x1 + dx, bounds.y1 + dy, bounds.x2 + dx, bounds.y2 + dy
    )
    base = OnAirClient.build(
        pois, bounds, hilbert_order=hilbert_order,
        bucket_capacity=bucket_capacity,
    )
    shifted = OnAirClient.build(
        moved, moved_bounds, hilbert_order=hilbert_order,
        bucket_capacity=bucket_capacity,
    )
    got = _knn_ids(base, query, k)
    got_shifted = _knn_ids(shifted, Point(query.x + dx, query.y + dy), k)
    if got != got_shifted:
        return [
            f"translation by {offset} changed kNN answer:"
            f" {got} != {got_shifted}"
        ]
    return []


def knn_radius_monotone(
    client: OnAirClient, query: Point, ks: Sequence[int]
) -> list[str]:
    """Increasing ``k`` must grow the answer outward, prefix-stable."""
    violations: list[str] = []
    previous_ids: list[int] = []
    previous_radius = 0.0
    for k in sorted(ks):
        results = client.knn(query, k, t_query=0.0).results
        ids = [e.poi.poi_id for e in results]
        radius = results[-1].distance if results else 0.0
        if radius + 1e-12 < previous_radius:
            violations.append(
                f"k={k} radius {radius} below k-1 radius {previous_radius}"
            )
        if ids[: len(previous_ids)] != previous_ids:
            violations.append(
                f"k={k} answer {ids} does not extend {previous_ids}"
            )
        previous_ids = ids
        previous_radius = radius
    return violations


def window_shrink_duality(union: RectUnion, window: Rect) -> list[str]:
    """``w'`` duality: remainder + covered part partition the window.

    * every remainder rectangle lies inside the window;
    * remainder rectangles are interior-disjoint from the union;
    * ``area(w') + area(w ∩ union) == area(w)`` (measured with the
      independent coordinate-compression oracle);
    * the remainder is empty iff the union covers the window.
    """
    violations: list[str] = []
    remainder = union.subtract_from_rect(window)
    for piece in remainder:
        if not (
            window.x1 - AREA_TOL <= piece.x1
            and piece.x2 <= window.x2 + AREA_TOL
            and window.y1 - AREA_TOL <= piece.y1
            and piece.y2 <= window.y2 + AREA_TOL
        ):
            violations.append(
                f"remainder piece {piece.as_tuple()} leaves window"
                f" {window.as_tuple()}"
            )
    clipped = [
        r for r in (rect.intersection(window) for rect in union.rects)
        if r is not None
    ]
    covered_area = oracle_union_area(clipped)
    remainder_area = oracle_union_area(remainder)
    if not math.isclose(
        covered_area + remainder_area,
        window.area,
        rel_tol=1e-9,
        abs_tol=1e-7 * max(1.0, window.area),
    ):
        violations.append(
            f"w' duality broken: covered {covered_area} + remainder"
            f" {remainder_area} != window {window.area}"
        )
    if window.area > 0.0:
        covers = union.covers_rect(window)
        if covers and remainder:
            violations.append(
                "covers_rect true but subtract_from_rect left"
                f" {len(remainder)} pieces"
            )
        if not covers and not remainder and not window.is_degenerate():
            violations.append(
                "covers_rect false but subtract_from_rect left nothing"
            )
    return violations


def safe_region_contract(
    cache,
    server_pois: Sequence[POI],
    anchor: Point,
    k: int,
    probes: Sequence[Point],
    window_side: float = 0.0,
) -> list[str]:
    """The safe-region certificate against the full-database truth.

    Three relations, checked with the independent oracles:

    * **snapshot completeness** — the frozen snapshot is exactly the
      server POIs strictly inside the open disc ``D(anchor, r_known)``
      (the soundness chain of :mod:`repro.continuous.safe_region`);
    * **exactness inside the safe tests** — at every probe where the
      kNN (window) safe test holds, the snapshot answer equals the
      oracle over the *whole* database, id for id;
    * **shrink monotonicity** — re-deriving with an inflated margin
      (modelled knowledge loss) yields a smaller-or-equal ``r_known``,
      a subset snapshot, and a smaller-or-equal safe radius, and that
      shrunk region stays exact within its own disc.  The inflated
      margin is ``SHRINK_MARGIN_SCALE`` times the cache's own.
    """
    from ..cache import EVICTION_MARGIN
    from ..continuous import derive_safe_region
    from .oracles import oracle_knn_ids, oracle_window_ids

    violations: list[str] = []
    region = derive_safe_region(cache, anchor, k=k)
    if region is None:
        return violations
    snap_ids = sorted(p.poi_id for p in region.snapshot)
    true_ids = sorted(
        p.poi_id
        for p in server_pois
        if math.hypot(p.x - anchor.x, p.y - anchor.y) < region.r_known
    )
    if snap_ids != true_ids:
        missing = sorted(set(true_ids) - set(snap_ids))
        extra = sorted(set(snap_ids) - set(true_ids))
        violations.append(
            f"snapshot != open disc D(anchor, {region.r_known}):"
            f" missing {missing}, extra {extra}"
        )

    def probe_region(label, candidate, points):
        for p in points:
            if candidate.knn_safe(p):
                got = [e.poi.poi_id for e in candidate.knn_answer(p, k)]
                want = oracle_knn_ids(server_pois, p, k)
                if got != want:
                    violations.append(
                        f"{label} kNN at {tuple(p)}: safe answer"
                        f" {got} != oracle {want}"
                    )
            if window_side > 0.0:
                half = window_side / 2.0
                window = Rect(p.x - half, p.y - half, p.x + half, p.y + half)
                if candidate.window_safe(window):
                    got = sorted(
                        x.poi_id for x in candidate.window_answer(window)
                    )
                    want = oracle_window_ids(server_pois, window)
                    if got != want:
                        violations.append(
                            f"{label} window at {tuple(p)}: safe answer"
                            f" {got} != oracle {want}"
                        )

    probe_region("safe-region", region, probes)
    shrunk = derive_safe_region(
        cache, anchor, k=k, margin=SHRINK_MARGIN_SCALE * EVICTION_MARGIN
    )
    if shrunk is not None:
        if shrunk.r_known > region.r_known + AREA_TOL:
            violations.append(
                f"margin-inflated r_known grew: {shrunk.r_known}"
                f" > {region.r_known}"
            )
        shrunk_ids = {p.poi_id for p in shrunk.snapshot}
        if not shrunk_ids <= set(snap_ids):
            violations.append(
                "margin-inflated snapshot is not a subset:"
                f" extra {sorted(shrunk_ids - set(snap_ids))}"
            )
        if shrunk.safe_radius > region.safe_radius + AREA_TOL:
            violations.append(
                f"margin-inflated safe radius grew: {shrunk.safe_radius}"
                f" > {region.safe_radius}"
            )
        probe_region("shrunk safe-region", shrunk, probes)
    return violations


def grid_vs_sweep(rects: Sequence[Rect]) -> list[str]:
    """The coverage-grid kernel against the sweep on one rectangle set.

    * ``grid_slabs`` equals ``sweep_slabs`` (canonical structure);
    * the grid's boundary arrays hold the same segment multiset as the
      slab boundary pass over the sweep's structure;
    * a fresh union's batch containment mask equals the sweep's
      predicate on and one ulp around the cut crossings;
    * a lazily built :class:`~repro.geometry.SlabUnion` answers
      containment, boundary distance, window coverage and window
      subtraction like the sweep's slabs
      (:func:`~repro.check.invariants.check_union`), probed at member
      corners and centres — the cut lines are the sharpest spots.  The
      corner's window runs to the member's own centre (covered, two
      edges on cuts), the centre's to the far corner of the next
      member (straddling, often past the extent).
    """
    members = [r for r in rects if not r.is_degenerate()]
    violations: list[str] = []
    expected = sweep_slabs(members)
    if grid_slabs(members) != expected:
        violations.append(
            f"grid slabs differ from the sweep on {len(members)} rects"
        )

    def segments(arrays):
        return sorted(zip(*(a.tolist() for a in arrays)))

    if segments(grid_boundary_coord_arrays(members)) != segments(
        slabs_boundary_coord_arrays(*expected)
    ):
        violations.append(
            f"grid boundary segments differ from the slab boundary on"
            f" {len(members)} rects"
        )
    violations += _containment_vs_sweep(members, expected)
    for index, rect in enumerate(members[:8]):
        corner = Point(rect.x1, rect.y1)
        centre = Point((rect.x1 + rect.x2) / 2.0, (rect.y1 + rect.y2) / 2.0)
        far = members[(index + 1) % len(members)]
        for p, window in (
            (corner, Rect(corner.x, corner.y, centre.x, centre.y)),
            (
                centre,
                Rect(
                    min(centre.x, far.x2),
                    min(centre.y, far.y2),
                    max(centre.x, far.x2),
                    max(centre.y, far.y2),
                ),
            ),
        ):
            try:
                # A fresh union per probe: the first read decides
                # which route (grid, window-local or slabs) answers.
                check_union(SlabUnion.from_rects(members), p, window)
            except InvariantViolation as exc:
                violations.append(str(exc))
    return violations


def _containment_vs_sweep(members: Sequence[Rect], swept) -> list[str]:
    """The batch containment mask of a fresh union against the sweep.

    Probes are the crossings of the outermost and the middle cuts of
    each axis, each cut taken exactly and one ulp either side — on a
    cut a point belongs to the closed cells on both sides, one ulp off
    to one of them, and past the outermost cuts to none.
    """
    if not members:
        return []
    xs, slabs = swept

    def probes(cuts):
        mid = len(cuts) // 2
        picked = np.array(sorted({*cuts[:3], *cuts[mid : mid + 3], *cuts[-3:]}))
        return np.concatenate(
            (np.nextafter(picked, -np.inf), picked, np.nextafter(picked, np.inf))
        )

    px = probes(xs)
    py = probes(sorted({y for r in members for y in (r.y1, r.y2)}))
    pxs, pys = (a.ravel() for a in np.meshgrid(px, py))
    mask = SlabUnion.from_rects(members).contains_points(pxs, pys).tolist()
    return [
        f"contains_points({x!r}, {y!r}) is {got} on {len(members)} rects,"
        f" the slab sweep says {not got}"
        for x, y, got in zip(pxs.tolist(), pys.tolist(), mask)
        if got != slabs_contains_point(xs, slabs, x, y)
    ]


def random_rect_set(rng: random.Random) -> list[Rect]:
    """1-200 rectangles, float or integer-lattice, seeded.

    Lattice sets touch, abut, nest and repeat constantly (shared cuts,
    interval merging); float sets get the same contacts on purpose by
    repeating a member or growing one from another's corner.
    """
    count = rng.choice((1, 3, 8, 20, 60, 200))
    if rng.random() < 0.5:
        return [
            Rect(x, y, x + rng.randint(1, 6), y + rng.randint(1, 6))
            for x, y in (
                (rng.randint(0, 24), rng.randint(0, 24)) for _ in range(count)
            )
        ]
    rects: list[Rect] = []
    for _ in range(count):
        roll = rng.random()
        if rects and roll < 0.1:
            rects.append(rng.choice(rects))
            continue
        if rects and roll < 0.3:
            anchor = rng.choice(rects)
            x, y = anchor.x2, rng.choice((anchor.y1, anchor.y2))
        else:
            x, y = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
        rects.append(
            Rect(x, y, x + rng.uniform(0.0, 30.0), y + rng.uniform(0.0, 30.0))
        )
    return rects


def grid_vs_sweep_campaign(seed: int, rounds: int) -> list[str]:
    """``rounds`` seeded rectangle sets through :func:`grid_vs_sweep`."""
    rng = random.Random(seed)
    return [
        f"round {round_index} seed {seed}: {violation}"
        for round_index in range(rounds)
        for violation in grid_vs_sweep(random_rect_set(rng))
    ]
