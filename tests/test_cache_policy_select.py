"""``select_victims`` vs the ``rank_victims`` ranking it stands for.

``DirectionDistancePolicy.rank_victims`` scores every item with
``math.hypot`` and sorts by ``(score, poi_id)`` descending.
``select_victims`` ranks a pool by ``np.hypot`` scores and re-scores
with ``math.hypot`` only the members whose approximate score sits next
to a near-equal one.  The two must name the same victims in the same
order on every pool — pinned here on pools built to tie: lattice
points (equal distances, broken by id), mirror images about the host,
coordinates one ulp apart, the host's own spot, subnormal offsets, and
pools either side of 512.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import DirectionDistancePolicy
from repro.geometry import Point
from repro.model import POI


def ranked_ids(policy, xs, ys, ids, excess, host, heading):
    pois = [POI(i, Point(x, y)) for x, y, i in zip(xs, ys, ids)]
    return [
        poi.poi_id for poi in policy.rank_victims(pois, host, heading)[:excess]
    ]


def selected_ids(policy, xs, ys, ids, excess, host, heading):
    ids_a = np.array(ids, np.int64)
    sel = policy.select_victims(
        np.array(xs, np.float64), np.array(ys, np.float64), ids_a, excess,
        host, heading,
    )
    return ids_a[sel].tolist()


@st.composite
def pools(draw, max_size=80):
    hx = float(draw(st.integers(-3, 3)))
    hy = float(draw(st.integers(-3, 3)))
    host = Point(hx, hy)
    points = []
    for _ in range(draw(st.integers(1, max_size))):
        kind = draw(st.integers(0, 5))
        if kind == 0 or not points:  # lattice: many equal distances
            x = float(draw(st.integers(-6, 6)))
            y = float(draw(st.integers(-6, 6)))
        elif kind == 1:  # mirror image of an earlier point about the host
            px, py = points[draw(st.integers(0, len(points) - 1))]
            x, y = 2.0 * hx - px, 2.0 * hy - py
        elif kind == 2:  # one ulp from an earlier point
            px, py = points[draw(st.integers(0, len(points) - 1))]
            x = math.nextafter(px, math.inf if draw(st.booleans()) else -math.inf)
            y = py
        elif kind == 3:  # the host's own spot, or a subnormal step off it
            x = hx + draw(st.sampled_from([0.0, 5e-324, -1e-310, 2.5e-308]))
            y = hy
        elif kind == 4:  # a swapped-coordinates twin: same distance
            px, py = points[draw(st.integers(0, len(points) - 1))]
            x, y = hx + (py - hy), hy + (px - hx)
        else:
            x = draw(st.floats(-10, 10, allow_nan=False))
            y = draw(st.floats(-10, 10, allow_nan=False))
        points.append((x, y))
    ids = draw(st.permutations(range(len(points))))
    excess = draw(st.integers(0, len(points) + 1))
    heading = draw(
        st.sampled_from(
            [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0),
             (math.sqrt(0.5), math.sqrt(0.5)), (0.6, -0.8)]
        )
    )
    penalty = draw(st.sampled_from([1.0, 0.0, 0.5]))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return xs, ys, list(ids), excess, host, heading, penalty


@given(pools())
@settings(max_examples=400, deadline=None)
def test_select_names_the_ranked_victims_in_order(pool):
    xs, ys, ids, excess, host, heading, penalty = pool
    policy = DirectionDistancePolicy(penalty)
    want = ranked_ids(policy, xs, ys, ids, excess, host, heading)
    assert selected_ids(policy, xs, ys, ids, excess, host, heading) == want


def test_the_two_hypots_agree_far_inside_the_near_band():
    # What the re-scoring rule rests on: np.hypot and math.hypot land a
    # few ulp apart at most, at every magnitude (NEAR_ABS covers the
    # subnormal range, where an ulp is absolute).
    from repro.geometry import NEAR_ABS, NEAR_REL

    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.uniform(-300, 290, 200_000)
    dx = rng.standard_normal(scale.size) * scale
    dy = rng.standard_normal(scale.size) * scale
    dy *= 10.0 ** rng.uniform(-8, 8, scale.size)
    approx = np.hypot(dx, dy)
    exact = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    assert np.all(np.abs(approx - exact) <= 4e-16 * exact + 5e-323)
    assert 4e-16 < NEAR_REL / 1000 and 5e-323 < NEAR_ABS


def test_large_lattice_pools_either_side_of_512():
    rng = np.random.default_rng(11)
    for n in (500, 511, 512, 513, 900):
        # A 31 x 31 lattice around the host: rings of equal distance.
        cells = rng.choice(31 * 31, size=n, replace=False)
        xs = (cells % 31 - 15).astype(float).tolist()
        ys = (cells // 31 - 15).astype(float).tolist()
        ids = rng.permutation(n).tolist()
        for heading in ((0.0, 0.0), (1.0, 0.0), (0.6, 0.8)):
            for excess in (1, n // 2, n - 50, n):
                policy = DirectionDistancePolicy()
                host = Point(0.0, 0.0)
                assert selected_ids(
                    policy, xs, ys, ids, excess, host, heading
                ) == ranked_ids(policy, xs, ys, ids, excess, host, heading)
