"""Incremental cache paths vs the general reference paths, under churn.

A stock ``POICache`` runs the fused insert (single-pass coalesce +
binary insert), array-scored batch eviction, and a settle that
re-checks only the regions an eviction moved.  The reference cache
here is the same class driven down its general paths from outside:
a rank-only policy wrapper (no ``select_victims``) takes the
``rank_victims`` branch that ``LRUPolicy`` / ``FIFOPolicy`` use in
production, and forcing the ``ALL_MOVED`` marker before each insert
that settles takes ``_append_region`` + the full ``_coalesce_regions``
scan.  The two must agree *bit for bit* on every observable payload at
every step of a seeded churn stream — the same worlds two peers would
exchange over the air — at four regions and at the worlds' capacity
50 / ``max_regions=50``, and on a stream whose degenerate inserts
stack several repairs between two settles.

The content generation is deliberately excluded: the fused path
skips the bump when a verified region lands inside an incumbent
(nothing observable moved), so generation *values* diverge while the
memo contract — stamp moves whenever content moves — holds on both.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import DirectionDistancePolicy, POICache
from repro.cache.store import ALL_MOVED, SETTLED
from repro.codec import decode, encode
from repro.experiments.host import MobileHost
from repro.geometry import Point, Rect
from repro.model import POI


class RankOnly:
    """The default policy without its array-scored ``select_victims``."""

    def __init__(self):
        self._policy = DirectionDistancePolicy()

    def rank_victims(self, items, host_position, heading):
        return self._policy.rank_victims(items, host_position, heading)


def reference_cache(capacity, max_regions=4):
    return POICache(capacity, policy=RankOnly(), max_regions=max_regions)


def reference_insert(cache, region, pois, now, position, heading):
    """``insert_result`` down the general append + full-coalesce path.

    A degenerate region appends and settles nothing, so there is no
    scan to force: its evictions stack on the marker like the stock
    cache's.
    """
    if not region.is_degenerate():
        cache._moved = ALL_MOVED
    cache.insert_result([(region, pois)], now, position, heading)


def stock_insert(cache, region, pois, now, position, heading):
    """One (region, POIs) pair, as a visit of one step."""
    cache.insert_result([(region, pois)], now, position, heading)


def _churn_stream(seed, ops, side=1000.0, degenerate=0.0):
    """Deterministic (region, pois, now, position, heading) stream.

    Mimics the simulator's churn shape: a drifting host verifying
    small rectangles, a few fresh POIs per insert, and occasional
    exact re-offers of an earlier result (upsert hits plus the
    covered-by-incumbent fast path on both cache variants).  A
    ``degenerate`` share of the inserts carries a zero-width region
    whose fresh POIs still evict: their repairs land with no settle
    between them.
    """
    rng = random.Random(seed)
    x = rng.uniform(0.3 * side, 0.7 * side)
    y = rng.uniform(0.3 * side, 0.7 * side)
    next_id = 1
    history = []
    for op in range(ops):
        x = min(max(x + rng.uniform(-60.0, 60.0), 0.0), side)
        y = min(max(y + rng.uniform(-60.0, 60.0), 0.0), side)
        heading = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        position = Point(x, y)
        if degenerate and rng.random() < degenerate:
            region = Rect(x, max(0.0, y - 50.0), x, min(side, y + 50.0))
            pois = [
                POI(next_id + i, Point(x, rng.uniform(region.y1, region.y2)))
                for i in range(rng.randint(2, 7))
            ]
            next_id += len(pois)
        elif history and rng.random() < 0.2:
            region, pois = rng.choice(history)
        else:
            half_w = rng.uniform(30.0, 140.0)
            half_h = rng.uniform(30.0, 140.0)
            region = Rect(
                max(0.0, x - half_w),
                max(0.0, y - half_h),
                min(side, x + half_w),
                min(side, y + half_h),
            )
            pois = [
                POI(
                    next_id + i,
                    Point(
                        rng.uniform(region.x1, region.x2),
                        rng.uniform(region.y1, region.y2),
                    ),
                )
                for i in range(rng.randint(2, 7))
            ]
            next_id += len(pois)
            history.append((region, pois))
        yield region, pois, float(op), position, heading


def _observable(cache):
    """Everything a peer (or a recorded metric) can see of the cache."""
    regions, pois = cache.share()
    return (
        [r.as_tuple() for r in regions],
        [(p.poi_id, p.x, p.y) for p in pois],
        list(cache._items),
        [(vr.rect.as_tuple(), vr.created_at) for vr in cache._regions],
        _marker(cache._moved),
    )


def _marker(moved):
    if moved is ALL_MOVED:
        return "all"
    return [(vr.rect.as_tuple(), vr.created_at) for vr in moved]


# The original four-region ids, then the worlds' shape (capacity 50,
# max_regions=50), plain and with stacked repairs.
SHAPES = [
    *(pytest.param(seed, 25, 4, 220, 0.0, id=f"{seed}") for seed in (0, 1, 2, 7)),
    *(
        pytest.param(seed, 50, 50, 400, share, id=f"{name}-{seed}")
        for name, share in (("world", 0.0), ("stacked", 0.3))
        for seed in (0, 1, 2, 7)
    ),
]


@pytest.mark.parametrize("seed, capacity, max_regions, ops, degenerate", SHAPES)
def test_incremental_matches_reference_bit_for_bit(
    seed, capacity, max_regions, ops, degenerate
):
    fast = POICache(capacity=capacity, max_regions=max_regions)
    ref = reference_cache(capacity=capacity, max_regions=max_regions)
    steps = stacked = peak_regions = 0
    stream = _churn_stream(seed, ops, degenerate=degenerate)
    for region, pois, now, position, heading in stream:
        pending = fast._moved
        fast.insert_result([(region, pois)], now, position, heading)
        reference_insert(ref, region, list(pois), now, position, heading)
        assert _observable(fast) == _observable(ref)
        # A degenerate insert settles nothing: a new marker list means
        # its repair stacked on one still pending.
        stacked += (
            region.is_degenerate()
            and pending is not SETTLED
            and fast._moved is not pending
        )
        peak_regions = max(peak_regions, len(fast._regions))
        steps += 1
    assert steps == ops
    assert len(fast) == fast.capacity  # the stream actually churned
    assert peak_regions >= min(max_regions, 25)  # ~27 a host in the worlds
    assert (stacked > 0) == (degenerate > 0)


@given(st.integers(0, 2**16), st.integers(20, 200))
@settings(max_examples=25, deadline=None)
def test_a_migrated_unsettled_cache_replays_like_the_original(seed, split):
    """Encode/decode a cache mid-churn, while an eviction has left it
    unsettled, then feed both copies the same inserts: the decoded
    ``ALL_MOVED`` settle must land where the original's partial one
    does, generation included."""
    stream = _churn_stream(seed, 400, degenerate=0.1)
    original = POICache(capacity=50, max_regions=50)
    for step, (region, pois, now, position, heading) in enumerate(stream):
        original.insert_result([(region, pois)], now, position, heading)
        if step >= split and original._moved is not SETTLED:
            break
    assert original._moved is not SETTLED  # churn at capacity evicts
    migrated = decode(encode(MobileHost(0, original))).cache
    assert migrated._moved is ALL_MOVED
    for region, pois, now, position, heading in stream:
        for cache in (original, migrated):
            cache.insert_result([(region, pois)], now, position, heading)
        assert migrated.share() == original.share()
        assert migrated.regions == original.regions
        assert list(migrated._items) == list(original._items)
        assert migrated.generation == original.generation


def bench_cache_churn(ops, seed, capacities, reference=False):
    """Seeded insert/evict churn at Table-3-style capacity pressure.

    One fresh cache per capacity on a 10 km square: a random-walking
    host verifies a small region per op, each insert offers 3-8 new
    POIs, so a warm cache evicts (shrinking regions) on nearly every
    step.  Returns the per-capacity counts the stock cache and the
    reference must agree on.
    """
    rng = random.Random(seed)
    side = 10_000.0
    report = {"ops": ops, "per_capacity": []}
    next_poi_id = 1
    for capacity in capacities:
        cache = reference_cache(capacity) if reference else POICache(capacity)
        insert = reference_insert if reference else stock_insert
        x = rng.uniform(0.2 * side, 0.8 * side)
        y = rng.uniform(0.2 * side, 0.8 * side)
        offered = 0
        for op in range(ops):
            # Random-walk the host; headings churn the policy scores.
            x = min(max(x + rng.uniform(-150.0, 150.0), 0.0), side)
            y = min(max(y + rng.uniform(-150.0, 150.0), 0.0), side)
            heading = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            half_w = rng.uniform(150.0, 450.0)
            half_h = rng.uniform(150.0, 450.0)
            region = Rect(
                max(0.0, x - half_w),
                max(0.0, y - half_h),
                min(side, x + half_w),
                min(side, y + half_h),
            )
            count = rng.randint(3, 8)
            pois = []
            for _ in range(count):
                pois.append(
                    POI(
                        next_poi_id,
                        Point(
                            rng.uniform(region.x1, region.x2),
                            rng.uniform(region.y1, region.y2),
                        ),
                    )
                )
                next_poi_id += 1
            offered += count
            insert(cache, region, pois, float(op), Point(x, y), heading)
            # Exercise the generation-keyed memos the way peers do.
            if op % 16 == 0:
                cache.share()
        report["per_capacity"].append(
            {
                "capacity": capacity,
                "pois_offered": offered,
                "pois_retained": len(cache),
                "evictions": offered - len(cache),
                "regions": len(cache.regions),
            }
        )
    return report


def test_bench_churn_reports_match_across_modes():
    fast = bench_cache_churn(300, seed=5, capacities=(30, 60))
    ref = bench_cache_churn(300, seed=5, capacities=(30, 60), reference=True)
    assert fast["ops"] == ref["ops"] == 300
    for got, want in zip(fast["per_capacity"], ref["per_capacity"]):
        for key in (
            "capacity",
            "pois_offered",
            "pois_retained",
            "evictions",
            "regions",
        ):
            assert got[key] == want[key], key
        assert got["evictions"] > 0  # capacity pressure was real
