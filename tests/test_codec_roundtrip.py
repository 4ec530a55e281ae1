"""Property-based round-trips and rejection for the binary codec.

Every registered frame type gets a hypothesis round-trip law, judged
on canonical bytes: re-encoding the decoded clone must reproduce the
original frame bit-for-bit (which covers every field, floats included,
without needing ``__eq__`` on graph-shaped types like MobileHost).
Pickle must agree too: a pickled clone (default pickling, no hooks)
re-encodes to the same frame.

The rejection half mirrors the serve-layer hostile-bytes suite
(``test_serve_protocol.py``): truncations, trailing garbage, bad
headers, unknown tags, and corrupted payloads must raise
:class:`~repro.errors.CodecError` — never anything else.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import CodecError, decode, encode
from repro.codec.core import HEADER_SIZE, MAGIC, VERSION
from repro.codec.fuzz import run_codec_fuzz
from repro.codec.types import encode_records
from repro.cache import FIFOPolicy, LRUPolicy
from repro.cache.store import POICache
from repro.core import Resolution
from repro.experiments.host import MobileHost
from repro.experiments.metrics import QueryRecord
from repro.geometry import Point, Rect
from repro.model import POI
from repro.p2p.protocol import ShareResponse
from repro.shard.messages import OverhearOp
from repro.workloads.queries import QueryEvent, QueryKind

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small_int = st.integers(min_value=0, max_value=1 << 30)


@st.composite
def rects(draw):
    x = draw(coord)
    y = draw(coord)
    # Zero-extent (degenerate) rects are legal and must round-trip.
    w = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    h = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    return Rect(x, y, x + w, y + h)


@st.composite
def pois(draw):
    return POI(draw(small_int), Point(draw(coord), draw(coord)))


@st.composite
def payloads(draw):
    # A halo payload is the owner's ShareResponse, which (like the
    # cache behind it) never carries a degenerate verified region.
    proper = rects().filter(lambda rect: not rect.is_degenerate())
    return ShareResponse(
        peer_id=draw(small_int),
        regions=tuple(draw(st.lists(proper, max_size=4))),
        pois=tuple(draw(st.lists(pois(), max_size=6))),
        # generation=0: a host that has never shared anything yet.
        generation=draw(st.one_of(st.just(0), small_int)),
    )


@st.composite
def overhear_ops(draw):
    return OverhearOp(
        event_index=draw(small_int),
        target=draw(small_int),
        now=draw(finite),
        position=(draw(coord), draw(coord)),
        heading=(draw(finite), draw(finite)),
        shared=tuple(
            draw(
                st.lists(
                    st.tuples(
                        rects(),
                        st.lists(pois(), max_size=3).map(tuple),
                    ),
                    max_size=3,
                )
            )
        ),
    )


@st.composite
def records(draw):
    return QueryRecord(
        time=draw(finite),
        host_id=draw(small_int),
        kind=draw(st.sampled_from((QueryKind.KNN, QueryKind.WINDOW))),
        resolution=draw(st.sampled_from(tuple(Resolution))),
        access_latency=draw(finite),
        tuning_packets=draw(small_int),
        buckets_downloaded=draw(small_int),
        peer_count=draw(small_int),
        k=draw(small_int),
        window_area=draw(finite),
        result_size=draw(small_int),
        covered_fraction_missing=draw(finite),
        p2p_drops=draw(small_int),
        p2p_retries=draw(small_int),
        p2p_deadline_misses=draw(small_int),
        recovery_retunes=draw(small_int),
        buckets_lost=draw(small_int),
    )


@st.composite
def events(draw):
    return QueryEvent(
        time=draw(finite),
        host_id=draw(small_int),
        kind=draw(st.sampled_from((QueryKind.KNN, QueryKind.WINDOW))),
        k=draw(st.integers(min_value=1, max_value=64)),
        window_area=draw(finite),
        center_offset=(draw(coord), draw(coord)),
    )


def assert_both_roundtrips(obj):
    """Canonical-bytes equality after codec *and* pickle round-trips."""
    original = encode(obj)
    assert encode(decode(original)) == original
    assert encode(pickle.loads(pickle.dumps(obj))) == original


# ----------------------------------------------------------------------
# Round-trip laws, one per frame type
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(payloads())
def test_share_payload_roundtrip(payload):
    assert_both_roundtrips(payload)
    assert decode(encode(payload)) == payload


@settings(max_examples=40, deadline=None)
@given(overhear_ops())
def test_overhear_op_roundtrip(op):
    assert_both_roundtrips(op)
    assert decode(encode(op)) == op


@settings(max_examples=60, deadline=None)
@given(records())
def test_query_record_roundtrip(record):
    assert_both_roundtrips(record)
    assert decode(encode(record)) == record


@settings(max_examples=60, deadline=None)
@given(events())
def test_query_event_roundtrip(event):
    assert_both_roundtrips(event)
    assert decode(encode(event)) == event


@settings(max_examples=30, deadline=None)
@given(st.lists(records(), max_size=6))
def test_record_batch_roundtrip(batch):
    frame = encode_records(batch)
    assert decode(frame) == tuple(batch)


def warm_host(policy=None) -> MobileHost:
    cache = POICache(capacity=8, policy=policy, max_regions=4)
    for i in range(5):  # the last inserts evict through the policy
        cache.insert_result(
            [(
                Rect(10.0 * i, 0.0, 10.0 * i + 8.0, 8.0),
                [POI(10 * i + j, Point(10.0 * i + j, float(j))) for j in range(3)],
            )],
            float(i),
            Point(10.0 * i, 4.0),
            (1.0, 0.0),
        )
    return MobileHost(7, cache)


def test_host_roundtrip_is_bit_identical():
    host = warm_host()
    original = encode(host)
    assert encode(decode(original)) == original
    assert encode(pickle.loads(pickle.dumps(host))) == original
    clone = decode(original)
    assert clone.host_id == host.host_id
    assert clone.cache.pois == host.cache.pois
    # header | host id | policy tag + penalty | capacity, max_regions,
    # generation | coalesced flag | POI buffers + category flag |
    # rects + region clock: nothing else (no slot columns — the
    # decoder rebuilds the coordinate mirror from the POIs —, no
    # clock for the paper's policy, no incremental byte, no mirror
    # flag, no slab-union section).
    n_pois, n_regions = len(host.cache), len(host.cache.regions)
    assert n_pois == 8 and n_regions
    assert len(original) == (
        HEADER_SIZE + 8 + (1 + 8) + 3 * 8 + 1
        + 3 * (4 + 8 * n_pois) + 1
        + (4 + 32 * n_regions) + (4 + 8 * n_regions)
    )
    assert clone.cache.mirror_ids() == list(clone.cache._items)


@pytest.mark.parametrize("policy_cls", [LRUPolicy, FIFOPolicy])
def test_stock_policy_hosts_cross_without_pickle(policy_cls, monkeypatch):
    host = warm_host(policy_cls())

    def no_pickle(*args, **kwargs):
        raise AssertionError("the host codec must not pickle")

    monkeypatch.setattr(pickle, "dumps", no_pickle)
    monkeypatch.setattr(pickle, "loads", no_pickle)
    original = encode(host)
    clone = decode(original)
    assert type(clone.cache.policy) is policy_cls
    assert encode(clone) == original


# ----------------------------------------------------------------------
# Host records under each stock policy, clocks included
# ----------------------------------------------------------------------
POLICIES = {
    "direction": lambda: None,
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
}


@st.composite
def churned_hosts(draw):
    """A host whose cache went through a drawn insert/touch stream.

    Lattice POIs drawn from a small universe repeat across inserts, so
    the stream re-offers held POIs (an LRU clock moves, a FIFO one
    does not), evicts, and re-admits what it evicted.
    """
    name = draw(st.sampled_from(sorted(POLICIES)))
    capacity = draw(st.integers(1, 6))
    cache = POICache(capacity, POLICIES[name](), max_regions=3)
    now = 0.0
    for _ in range(draw(st.integers(0, 8))):
        now += draw(st.sampled_from([0.0, 0.5, 1.0]))
        ids = draw(st.lists(st.integers(0, 12), max_size=5, unique=True))
        pois = [POI(i, Point(float(i % 4), float(i // 4))) for i in ids]
        x, y = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        region = Rect(float(x), float(y), float(x) + 1.5, float(y) + 1.5)
        cache.insert_result([(region, pois)], now, Point(1.0, 1.0), (1.0, 0.0))
        if draw(st.booleans()):
            cache.touch(draw(st.lists(st.integers(0, 12), max_size=3)), now)
    return name, MobileHost(draw(small_int), cache)


@settings(max_examples=80, deadline=None)
@given(churned_hosts())
def test_host_roundtrip_carries_the_policy_clock(drawn):
    name, host = drawn
    original = encode(host)
    assert_both_roundtrips(host)
    clone = decode(original)
    policy = clone.cache.policy
    assert type(policy) is type(host.cache.policy)
    assert clone.cache.pois == host.cache.pois
    assert clone.cache.regions == host.cache.regions
    if name == "direction":
        # The paper's policy keeps no clock: one shared instance.
        assert policy is host.cache.policy
    else:
        assert policy is not host.cache.policy
        assert policy.clock == host.cache.policy.clock
        assert list(policy.clock) == list(clone.cache._items)


def _clocked_host(policy_cls):
    host = warm_host(policy_cls())
    assert len(host.cache) == 8
    return host


@pytest.mark.parametrize("policy_cls", [LRUPolicy, FIFOPolicy])
def test_clocked_host_record_layout(policy_cls):
    host = _clocked_host(policy_cls)
    n_pois, n_regions = len(host.cache), len(host.cache.regions)
    # As the paper's policy's record, without the penalty and with
    # one clock buffer (one time per cached POI) after the POIs.
    assert len(encode(host)) == (
        HEADER_SIZE + 8 + 1 + 3 * 8 + 1
        + 3 * (4 + 8 * n_pois) + 1
        + (4 + 8 * n_pois)
        + (4 + 32 * n_regions) + (4 + 8 * n_regions)
    )


def _clock_offset(host):
    """Where the clock buffer's length field sits in the host's frame."""
    return HEADER_SIZE + 8 + 1 + 3 * 8 + 1 + 3 * (4 + 8 * len(host.cache)) + 1


@pytest.mark.parametrize("policy_cls", [LRUPolicy, FIFOPolicy])
def test_clocked_host_truncations_rejected(policy_cls):
    frame = encode(_clocked_host(policy_cls))
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode(frame[:cut])


@pytest.mark.parametrize("policy_cls", [LRUPolicy, FIFOPolicy])
@pytest.mark.parametrize("length", [0, 7, 9])
def test_clock_buffer_of_the_wrong_length_rejected(policy_cls, length):
    host = _clocked_host(policy_cls)
    frame = bytearray(encode(host))
    at = _clock_offset(host)
    assert int.from_bytes(frame[at:at + 4], "little") == 8
    clock = frame[at + 4:at + 4 + 8 * 8]
    body = (length).to_bytes(4, "little") + (clock * 2)[: 8 * length]
    forged = frame[:at] + body + frame[at + 4 + 8 * 8:]
    with pytest.raises(CodecError):
        decode(bytes(forged))


def test_direction_record_retagged_as_clocked_rejected():
    # The paper's policy's record has no clock buffer: read as an LRU
    # record its penalty and the rest misalign, and the frame is
    # refused rather than decoded into a host.
    frame = bytearray(encode(warm_host()))
    tag_at = HEADER_SIZE + 8
    assert frame[tag_at] == 1
    frame[tag_at] = 2
    with pytest.raises(CodecError):
        decode(bytes(frame))


@pytest.mark.parametrize("tag", [0, 4, 255])
def test_unknown_policy_tag_rejected(tag):
    frame = bytearray(encode(warm_host()))
    frame[HEADER_SIZE + 8] = tag
    with pytest.raises(CodecError, match="unknown policy tag"):
        decode(bytes(frame))


def test_duplicate_cached_poi_rejected():
    # Two table entries for one id cannot come from a cache.
    host = MobileHost(1, POICache(4, LRUPolicy()))
    poi = POI(3, Point(0.5, 0.5))
    host.cache.insert_result(
        [(Rect(0, 0, 1, 1), [poi, POI(4, Point(0.7, 0.7))])], 0.0, Point(0, 0)
    )
    frame = bytearray(encode(host))
    ids_at = HEADER_SIZE + 8 + 1 + 3 * 8 + 1 + 4
    frame[ids_at + 8:ids_at + 16] = frame[ids_at:ids_at + 8]
    with pytest.raises(CodecError, match="duplicate"):
        decode(bytes(frame))


def test_hosts_without_a_wire_form_are_refused():
    class HomeGrownPolicy(LRUPolicy):
        pass

    with pytest.raises(CodecError, match="HomeGrownPolicy"):
        encode(warm_host(HomeGrownPolicy()))


def test_halo_payload_is_just_the_share_response():
    # header | peer id, generation | rect buffer | POI id/x/y buffers
    # and the category flag: nothing else (no slab-union section).
    response = warm_host().share_response()
    n_regions, n_pois = len(response.regions), len(response.pois)
    assert n_regions and n_pois
    assert len(encode(response)) == (
        HEADER_SIZE + 16 + (4 + 32 * n_regions) + 3 * (4 + 8 * n_pois) + 1
    )


def test_degenerate_region_in_a_payload_frame_is_a_codec_error():
    frame = bytearray(encode(SAMPLE_OBJECTS[1]))
    # The sample's single region starts after header, ids and the rect
    # count; copy x1 over x2 so the decoded region has zero width.
    x1 = HEADER_SIZE + 16 + 4
    frame[x1 + 16:x1 + 24] = frame[x1:x1 + 8]
    with pytest.raises(CodecError, match="degenerate"):
        decode(bytes(frame))


# ----------------------------------------------------------------------
# Rejection: hostile bytes only ever raise CodecError
# ----------------------------------------------------------------------
SAMPLE_OBJECTS = [
    warm_host(),
    ShareResponse(
        peer_id=1,
        regions=(Rect(0.0, 0.0, 1.0, 1.0),),
        pois=(POI(3, Point(0.5, 0.5)),),
        generation=2,
    ),
    OverhearOp(1, 2, 3.0, (0.0, 0.0), (1.0, 0.0), ()),
    QueryRecord(
        0.0, 1, QueryKind.KNN, Resolution.VERIFIED, 1.0, 2, 3, 4
    ),
    QueryEvent(0.0, 1, QueryKind.KNN, 5, 0.0, (0.0, 0.0)),
]


@pytest.mark.parametrize(
    "obj", SAMPLE_OBJECTS, ids=lambda o: type(o).__name__
)
def test_every_truncation_rejected(obj):
    frame = encode(obj)
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode(frame[:cut])


@pytest.mark.parametrize(
    "obj", SAMPLE_OBJECTS, ids=lambda o: type(o).__name__
)
def test_trailing_garbage_rejected(obj):
    with pytest.raises(CodecError, match="trailing"):
        decode(encode(obj) + b"\x00")


def test_bad_magic_rejected():
    frame = bytearray(encode(SAMPLE_OBJECTS[0]))
    frame[0] ^= 0xFF
    with pytest.raises(CodecError, match="magic"):
        decode(bytes(frame))


def test_unsupported_version_rejected():
    frame = bytearray(encode(SAMPLE_OBJECTS[0]))
    frame[1] = VERSION + 1
    with pytest.raises(CodecError, match="version"):
        decode(bytes(frame))


def test_unknown_tag_rejected():
    with pytest.raises(CodecError, match="unknown codec type tag"):
        decode(bytes((MAGIC, VERSION, 0x7F)))


def test_retired_slab_union_tag_is_rejected():
    # Tag 0x01 carried the persistent SlabUnion; it is reserved, and a
    # frame written by an older build is refused, payload or not.
    empty_union = bytes((MAGIC, VERSION, 0x01)) + bytes(8 + 1 + 4 + 4 + 4)
    for frame in (bytes((MAGIC, VERSION, 0x01)), empty_union):
        with pytest.raises(CodecError, match="unknown codec type tag 0x01"):
            decode(frame)


def test_retired_event_outcome_tag_is_rejected():
    # Tag 0x05 carried an EventOutcome, which no path sent (the process
    # backend relays outcomes in its own RPC layout); it is reserved,
    # and a frame written by an older build is refused, payload or not.
    event_index = (7).to_bytes(8, "little")
    record = encode(SAMPLE_OBJECTS[3])[HEADER_SIZE:]
    no_ops_no_dirty = bytes(4 + 4)
    for payload in (b"", event_index + record + no_ops_no_dirty):
        with pytest.raises(CodecError, match="unknown codec type tag 0x05"):
            decode(bytes((MAGIC, VERSION, 0x05)) + payload)


def test_retired_host_record_tag_is_rejected():
    # Tag 0x07 carried the host record with its three slot columns,
    # 0x08 the one with two clocks per cached POI; a frame written by
    # an older build is refused, never misread as today's layout.
    current = encode(SAMPLE_OBJECTS[0])
    assert current[2] == 0x09
    for tag in (0x07, 0x08):
        stale = bytes((MAGIC, VERSION, tag)) + current[HEADER_SIZE:]
        with pytest.raises(
            CodecError, match=f"unknown codec type tag 0x{tag:02x}"
        ):
            decode(stale)


def test_short_header_rejected():
    with pytest.raises(CodecError, match="header"):
        decode(bytes((MAGIC,)))
    with pytest.raises(CodecError):
        decode(b"")


def test_corrupted_bytes_never_escape_codecerror():
    # Stamp 0xffffffff over every payload offset: count fields blow up
    # to absurd sizes (the bounds-checked reader must reject them
    # before allocating), scalar fields become nonsense values that
    # either decode or reject — but nothing may raise anything other
    # than CodecError.
    frame = bytearray(encode(SAMPLE_OBJECTS[1]))
    for pos in range(HEADER_SIZE, len(frame) - 3):
        corrupt = bytearray(frame)
        corrupt[pos:pos + 4] = b"\xff\xff\xff\xff"
        try:
            decode(bytes(corrupt))
        except CodecError:
            pass


def test_encode_rejects_unregistered_type():
    with pytest.raises(CodecError, match="no codec registered"):
        encode(object())


def test_fuzz_campaign_is_clean():
    report = run_codec_fuzz(seed=7, rounds=15)
    assert report.ok, report.mismatches
    assert report.objects_checked == 60
    assert report.truncations_rejected > 0
