"""One visit vs the region-by-region loop it replaces.

``POICache.insert_result`` adopts a query's whole shared result in one
call — a *visit* — ranking the visit's pool once and replaying the
steps.  The behaviour it must reproduce lives here as
:func:`region_by_region`: each ``(region, pois)`` pair admitted as
offered, its region placed, the cache evicted down to capacity by the
policy's own ``rank_victims`` ranking, the regions repaired, and the
generation bumped when the step changed anything.  The properties pin
the two bit for bit — the table's order, the region list with its
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
from array import array

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
        added = cache._admit(pois)
        changed = cache._place_region(region, now, position)
        excess = len(cache) - cache.capacity
        evicted = max(excess, 0)
        if evicted:
            victims = cache.policy.rank_victims(
                list(cache._items.values()), position, heading
            )[:excess]
            vxs, vys = cache._drop([poi.poi_id for poi in victims])
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
            (poi_id, poi.x, poi.y) for poi_id, poi in cache._items.items()
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
def visits(draw, shape, overflow=False):
    """One case for :func:`check_visit`.

    With ``overflow`` the visit's first overflowing step is drawn at
    the first, a middle or the last of 3-8 steps, and the draw is
    ``(case, that step)``.
    """
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
    if overflow:
        visit, first = overflowing_visit(
            draw, pair, universe,
            warmed(capacity, max_regions, warmup, "as built"),
        )
    else:
        # Half the visits are a single pair: the dense world's shape.
        visit = [
            pair()
            for _ in range(draw(st.one_of(st.just(1), st.integers(1, 12))))
        ]
    # Earlier pairs offered again: what a step evicted comes back (after
    # a drawn overflow, and never behind a last-step one).
    after = first + 1 if overflow else 0
    for _ in range(draw(st.integers(0, 3 if after < len(visit) else 0))):
        visit.insert(
            draw(st.integers(after, len(visit))),
            visit[draw(st.integers(0, len(visit) - 1))],
        )
    unsettled = draw(st.sampled_from(["as built", "decoded", "all moved"]))
    case = (
        capacity, max_regions, warmup, visit, float(len(warmup) + 1),
        place(), draw(headings), unsettled,
    )
    return (case, first) if overflow else case


def overflowing_visit(draw, pair, universe, cache):
    """3-8 pairs whose first overflow of ``cache`` is a drawn step.

    The pairs before it offer only what the table can still take, the
    pair at it offers more new POIs than that, the pairs after it are
    free.
    """
    steps = draw(st.integers(3, 8))
    first = draw(
        st.sampled_from([0, draw(st.integers(1, steps - 2)), steps - 1])
    )
    held = {poi.poi_id for poi in cache.pois}
    visit = []
    for step in range(steps):
        region, inside = pair()
        if step < first:
            kept = []
            for poi in inside:
                if poi.poi_id in held or len(held) < cache.capacity:
                    held.add(poi.poi_id)
                    kept.append(poi)
            inside = kept
        elif step == first:
            new = {poi.poi_id for poi in inside} - held
            more = [
                poi for poi in universe
                if poi.poi_id not in held and poi.poi_id not in new
            ]
            short = cache.capacity + 1 - len(held) - len(new)
            inside = inside + more[: max(short, 0)]
        visit.append((region, inside))
    return visit, first


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


class PeakTable(dict):
    """A cache's POI table that remembers its largest size."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


class PeakColumn(array):
    """A mirror column that remembers its largest length."""

    peak = 0

    def append(self, value):
        super().append(value)
        self.peak = max(self.peak, len(self))


def tracked(cache):
    """``cache`` with its table and mirror columns measuring their peak.

    The mirror's columns are the cache's ``array`` attributes.
    """
    cache._items = PeakTable(cache._items)
    cache._items.peak = len(cache)
    for name, value in list(vars(cache).items()):
        if isinstance(value, array):
            column = PeakColumn(value.typecode, value)
            column.peak = len(column)
            setattr(cache, name, column)
    return cache


def peaks(cache):
    """Most table entries and most mirror slots the cache has held."""
    columns = [v for v in vars(cache).values() if isinstance(v, PeakColumn)]
    assert len(columns) == 3  # xs, ys, ids
    return cache._items.peak, max(column.peak for column in columns)


def check_first_overflow(drawn):
    case, first = drawn
    capacity, max_regions, warmup, visit, now, position, heading, unsettled = case
    reference = warmed(capacity, max_regions, warmup, unsettled)
    steps = region_by_region(
        copy.deepcopy(reference), visit, now, position, heading
    )
    assert [step["pois_evicted"] > 0 for step in steps].index(True) == first
    stock = tracked(reference)
    called = []
    for name in ("_rank_rest", "_evict"):
        real = getattr(stock, name)

        def spy(*args, _real=real, _name=name):
            called.append(_name)
            return _real(*args)

        setattr(stock, name, spy)
    stock.insert_result(visit, now, position, heading)
    if first == len(visit) - 1:
        # The last step ranks nothing beyond itself: it is admitted,
        # then evicted.
        assert called == ["_evict"]
    else:
        assert called == ["_rank_rest"]
        assert peaks(stock) <= (capacity, capacity)
    check_visit(case)


class TestOneVisitIsTheRegionByRegionLoop:
    @given(visits("world"))
    @settings(max_examples=150, deadline=None)
    def test_at_the_worlds_capacity(self, case):
        check_visit(case)

    @given(visits("four"))
    @settings(max_examples=250, deadline=None)
    def test_at_four(self, case):
        check_visit(case)

    @given(visits("world", overflow=True))
    @settings(max_examples=60, deadline=None)
    def test_first_overflow_anywhere_at_the_worlds_capacity(self, drawn):
        check_first_overflow(drawn)

    @given(visits("four", overflow=True))
    @settings(max_examples=120, deadline=None)
    def test_first_overflow_anywhere_at_four(self, drawn):
        check_first_overflow(drawn)

    def test_a_doomed_poi_is_never_built(self):
        # The first step alone overflows an empty cache; it is ranked
        # before it is admitted, so neither the table nor its mirror
        # ever holds more than the capacity.
        universe = [
            POI(i, Point(float(i % 9), float(i // 9))) for i in range(81)
        ]

        def pair(x1, y1, x2, y2):
            region = Rect(x1, y1, x2, y2)
            return region, [
                p for p in universe if region.contains_point(p.location)
            ]

        shared = SharedResult(
            [pair(0, 0, 8, 8), pair(2, 2, 4, 4), pair(6, 0, 8, 3)]
        )
        for heading in ((0.0, 0.0), (1.0, 0.0), (0.0, -1.0)):
            cache = tracked(POICache(8, max_regions=8))
            reference = POICache(8, max_regions=8)
            cache.insert_result(shared, 1.0, Point(3.5, 3.0), heading)
            region_by_region(reference, shared, 1.0, Point(3.5, 3.0), heading)
            assert observable(cache) == observable(reference)
            assert peaks(cache) == (8, 8)

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
