"""One visit vs the region-by-region loop it replaces.

``POICache.insert_result`` adopts a query's whole shared result in one
call — a *visit* — ranking the visit's pool once and replaying the
steps.  The behaviour it must reproduce lives here as
:func:`region_by_region`: each ``(region, pois)`` pair admitted as
offered, its region placed, the cache evicted down to capacity by the
policy's own ``rank_victims`` ranking, the regions repaired, and the
generation bumped when the step changed anything.  The properties pin
the two bit for bit — item order and clocks, the region list with its
floats, the moved-region marker, the share payload and the generation
value — on lattice worlds where equal distances (ties broken by id)
are common, at the worlds' capacity 50 / ``max_regions=50`` and at
four, over visits of 1–12 pairs that repeat POIs across pairs, re-offer
what an earlier step evicted, carry empty and degenerate regions, and
start from a cache decoded unsettled (``ALL_MOVED``).  A traced visit
must leave the cache exactly as an untraced one, with span attributes
that sum the reference's steps.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import POICache, SharedResult
from repro.cache.store import ALL_MOVED, SETTLED
from repro.codec import decode, encode
from repro.experiments.host import MobileHost
from repro.geometry import Point, Rect
from repro.model import POI
from repro.obs import Tracer


def region_by_region(cache, shared, now, position, heading):
    """The per-pair loop; returns each step's span counts."""
    steps = []
    for region, pois in shared:
        moved = cache._moved_count()
        added = cache._admit(pois, now)
        changed = cache._place_region(region, now, position)
        excess = len(cache) - cache.capacity
        evicted = max(excess, 0)
        if evicted:
            victims = cache.policy.rank_victims(
                list(cache._items.values()), position, heading
            )[:excess]
            vxs, vys = cache._drop([item.poi.poi_id for item in victims])
            cache._repair_regions(vxs, vys)
        if added or changed or evicted:
            cache.generation += 1
        steps.append(
            {
                "pois_offered": len(pois),
                "pois_added": added,
                "pois_evicted": evicted,
                "regions": len(cache._regions),
                "regions_moved": moved,
                "regions_shrunk": cache._moved_count(),
                "size": len(cache),
            }
        )
    return steps


def observable(cache):
    """Everything a peer, a record or the next visit can tell apart."""
    moved = cache._moved
    return (
        cache.generation,
        [
            (poi_id, item.poi.x, item.poi.y, item.inserted_at, item.last_used)
            for poi_id, item in cache._items.items()
        ],
        [(vr.rect.as_tuple(), vr.created_at) for vr in cache._regions],
        "settled" if moved is SETTLED else "all" if moved is ALL_MOVED
        else [(vr.rect.as_tuple(), vr.created_at) for vr in moved],
        cache.share(),
        cache.mirror_ids(),
    )


# ----------------------------------------------------------------------
# Worlds: lattice POIs (shared positions make exact distance ties), a
# cache warmed by earlier visits, and one visit of 1-12 pairs.
# ----------------------------------------------------------------------
SHAPES = {
    # capacity, max_regions, lattice side, universe size, region extent
    "world": (50, 50, 30, 160, 9),
    "four": (4, 4, 10, 24, 5),
}

headings = st.sampled_from(
    [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (math.sqrt(0.5), math.sqrt(0.5))]
)


@st.composite
def visits(draw, shape):
    capacity, max_regions, side, size, extent = SHAPES[shape]
    spots = draw(
        st.lists(
            st.tuples(st.integers(0, side), st.integers(0, side)),
            min_size=size // 2,
            max_size=size,
        )
    )
    universe = [
        POI(i, Point(float(x), float(y))) for i, (x, y) in enumerate(spots)
    ]

    def rect():
        x = draw(st.integers(0, side - 1))
        y = draw(st.integers(0, side - 1))
        w = draw(st.integers(0, extent))
        h = draw(st.integers(0, extent))
        if draw(st.integers(0, 9)) == 0:
            w = 0  # a degenerate region: its POIs still come in
        return Rect(float(x), float(y), float(x + w), float(y + h))

    def pair():
        region = rect()
        inside = [p for p in universe if region.contains_point(p.location)]
        if draw(st.booleans()):
            inside = inside[::-1]
        if inside and draw(st.integers(0, 4)) == 0:
            inside.append(inside[0])  # a POI twice in one pair
        if draw(st.integers(0, 9)) == 0:
            inside = []  # a region with nothing in it
        return region, inside

    def place():
        return Point(
            float(draw(st.integers(-2, side + 2))),
            float(draw(st.integers(-2, side + 2))),
        )

    warmup = [
        ([pair() for _ in range(draw(st.integers(1, 4)))], float(t), place(),
         draw(headings))
        for t in range(draw(st.integers(0, 6)))
    ]
    # Half the visits are a single pair: the dense world's shape.
    visit = [
        pair()
        for _ in range(draw(st.one_of(st.just(1), st.integers(1, 12))))
    ]
    # Earlier pairs offered again: what a step evicted comes back.
    for _ in range(draw(st.integers(0, 3))):
        visit.insert(
            draw(st.integers(0, len(visit))),
            visit[draw(st.integers(0, len(visit) - 1))],
        )
    unsettled = draw(st.sampled_from(["as built", "decoded", "all moved"]))
    return (
        capacity, max_regions, warmup, visit, float(len(warmup) + 1),
        place(), draw(headings), unsettled,
    )


def warmed(capacity, max_regions, warmup, unsettled):
    cache = POICache(capacity, max_regions=max_regions)
    for shared, now, position, heading in warmup:
        region_by_region(cache, shared, now, position, heading)
    if unsettled == "decoded":
        cache = decode(encode(MobileHost(0, cache))).cache
    elif unsettled == "all moved":
        cache._moved = ALL_MOVED
    return cache


def check_visit(case):
    capacity, max_regions, warmup, visit, now, position, heading, unsettled = case
    reference = warmed(capacity, max_regions, warmup, unsettled)
    stock = copy.deepcopy(reference)
    traced = copy.deepcopy(reference)
    steps = region_by_region(reference, visit, now, position, heading)
    stock.insert_result(visit, now, position, heading)
    assert observable(stock) == observable(reference)

    tracer = Tracer()
    with tracer.span("query"):
        traced.insert_result(
            SharedResult(visit), now, position, heading, tracer=tracer
        )
    assert observable(traced) == observable(stock)
    (span,) = tracer.roots[0].to_dict()["children"]
    assert span["name"] == "cache.insert"
    assert {key: span["attributes"][key] for key in steps[0]} == {
        key: sum(step[key] for step in steps) for key in steps[0]
    }


class TestOneVisitIsTheRegionByRegionLoop:
    @given(visits("world"))
    @settings(max_examples=150, deadline=None)
    def test_at_the_worlds_capacity(self, case):
        check_visit(case)

    @given(visits("four"))
    @settings(max_examples=250, deadline=None)
    def test_at_four(self, case):
        check_visit(case)

    def test_a_shared_result_is_read_by_every_visit_alike(self):
        # One SharedResult adopted by many caches builds its columns
        # once and leaves each cache as a private copy would.
        universe = [
            POI(i, Point(float(i % 7), float(i // 7))) for i in range(49)
        ]
        shared = SharedResult(
            (Rect(0, 0, x, x), [p for p in universe if p.x <= x and p.y <= x])
            for x in (2.0, 4.0, 6.0, 3.0)
        )
        for seat in range(6):
            position = Point(float(seat), 3.0)
            once = POICache(8, max_regions=8)
            alone = copy.deepcopy(once)
            once.insert_result(shared, 1.0, position, (1.0, 0.0))
            alone.insert_result(list(shared), 1.0, position, (1.0, 0.0))
            assert observable(once) == observable(alone)
        assert shared.offers() is shared.offers()
        assert shared.offered_arrays() is shared.offered_arrays()

    def test_a_visit_that_fits_builds_no_arrays(self):
        cache = POICache(50, max_regions=50)
        shared = SharedResult(
            [(Rect(0, 0, 2, 2), [POI(1, Point(1, 1)), POI(2, Point(2, 2))])]
        )
        cache.insert_result(shared, 0.0, Point(0, 0))
        assert not hasattr(shared, "_offers")
        assert not hasattr(shared, "_arrays")
        assert cache.mirror_ids() == [1, 2]
