"""Flat binary layouts for the hot exchange types.

One registration per versioned type tag (see :mod:`repro.codec.core`):

* ``Rect`` / ``Point`` / ``POI`` batches — contiguous float64/int64
  buffers, category strings elided when every POI carries the default;
* ``ShareResponse`` / ``OverhearOp`` — the cross-shard exchange
  messages, composed from the above (a halo payload is just the
  owner's share response: peer id, generation, rects, POIs);
* ``QueryRecord`` / ``QueryEvent`` — single ``struct`` packs with
  enum ordinals for :class:`QueryKind` / :class:`Resolution`;
* ``MobileHost`` — the host-migration record: the full
  :meth:`POICache.codec_state` (no coordinate mirror: the decoder
  rebuilds it from the POIs) plus one tag byte for the eviction
  policy and, for LRU / FIFO, its clock as one float per cached POI
  (the stock policies only; anything else has no wire form and
  raises :class:`~repro.errors.CodecError` on encode).

Nothing here pickles: every decoder is strict over flat buffers.

Floats round-trip bit-exactly (``<d`` both ways) and every decoded
coordinate is a Python ``float`` (numpy views are ``.tolist()``-ed),
so downstream arithmetic is bit-identical to the never-encoded
object.
"""

from __future__ import annotations

import struct

from ..cache.entry import SharedResult, VerifiedRegion
from ..cache.policy import (
    DIRECTION_DISTANCE,
    DirectionDistancePolicy,
    FIFOPolicy,
    LRUPolicy,
)
from ..cache.store import POICache
from ..core import Resolution
from ..errors import CodecError
from ..experiments.host import MobileHost
from ..experiments.metrics import QueryRecord
from ..geometry import Point, Rect
from ..model import DEFAULT_CATEGORY, POI
from ..p2p.protocol import ShareResponse
from ..shard.messages import OverhearOp
from ..workloads.queries import QueryEvent, QueryKind
from .core import (
    TAG_HOST,
    TAG_OVERHEAR_OP,
    TAG_QUERY_EVENT,
    TAG_QUERY_RECORD,
    TAG_RECORD_BATCH,
    TAG_SHARE_PAYLOAD,
    Reader,
    Writer,
    frame,
    register,
)

_KIND_CODE = {QueryKind.KNN: 0, QueryKind.WINDOW: 1}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}
_RESOLUTION_CODE = {
    Resolution.VERIFIED: 0,
    Resolution.APPROXIMATE: 1,
    Resolution.BROADCAST: 2,
}
_CODE_RESOLUTION = {code: res for res, code in _RESOLUTION_CODE.items()}


def _kind_from(code: int) -> QueryKind:
    try:
        return _CODE_KIND[code]
    except KeyError:
        raise CodecError(f"unknown query-kind code {code}")


def _resolution_from(code: int) -> Resolution:
    try:
        return _CODE_RESOLUTION[code]
    except KeyError:
        raise CodecError(f"unknown resolution code {code}")


# ----------------------------------------------------------------------
# Geometry primitives
# ----------------------------------------------------------------------
def write_rect(w: Writer, rect: Rect) -> None:
    w.f64(rect.x1)
    w.f64(rect.y1)
    w.f64(rect.x2)
    w.f64(rect.y2)


def read_rect(r: Reader) -> Rect:
    return Rect(r.f64(), r.f64(), r.f64(), r.f64())


def write_rects(w: Writer, rects) -> None:
    flat = []
    for rect in rects:
        flat.append(rect.x1)
        flat.append(rect.y1)
        flat.append(rect.x2)
        flat.append(rect.y2)
    w.f64_array(flat)


def read_rects(r: Reader) -> tuple[Rect, ...]:
    flat = r.f64_array()
    if flat.size % 4:
        raise CodecError(f"rect buffer of {flat.size} floats is not 4-aligned")
    vals = flat.tolist()
    return tuple(
        Rect(vals[i], vals[i + 1], vals[i + 2], vals[i + 3])
        for i in range(0, len(vals), 4)
    )


def write_pois(w: Writer, pois) -> None:
    w.i64_array([p.poi_id for p in pois])
    w.f64_array([p.location.x for p in pois])
    w.f64_array([p.location.y for p in pois])
    if all(p.category is DEFAULT_CATEGORY or p.category == DEFAULT_CATEGORY
           for p in pois):
        w.u8(0)
    else:
        w.u8(1)
        for p in pois:
            w.str_(p.category)


def read_pois(r: Reader) -> tuple[POI, ...]:
    ids = r.i64_array().tolist()
    xs = r.f64_array().tolist()
    ys = r.f64_array().tolist()
    if len(xs) != len(ids) or len(ys) != len(ids):
        raise CodecError("POI coordinate buffers disagree with the id buffer")
    flag = r.u8()
    if flag == 0:
        return tuple(
            POI(pid, Point(x, y)) for pid, x, y in zip(ids, xs, ys)
        )
    if flag != 1:
        raise CodecError(f"unknown POI category flag {flag}")
    return tuple(
        POI(pid, Point(x, y), r.str_()) for pid, x, y in zip(ids, xs, ys)
    )


# ----------------------------------------------------------------------
# ShareResponse / OverhearOp
# ----------------------------------------------------------------------
def write_share_response(w: Writer, response: ShareResponse) -> None:
    w.i64(response.peer_id)
    w.i64(response.generation)
    write_rects(w, response.regions)
    write_pois(w, response.pois)


def read_share_response(r: Reader) -> ShareResponse:
    # A degenerate region fails ShareResponse's own validation;
    # ``decode`` turns that into CodecError like any malformed field.
    peer_id = r.i64()
    generation = r.i64()
    return ShareResponse(peer_id, read_rects(r), read_pois(r), generation)


def write_overhear_op(w: Writer, op: OverhearOp) -> None:
    w.i64(op.event_index)
    w.i64(op.target)
    w.f64(op.now)
    w.f64(op.position[0])
    w.f64(op.position[1])
    w.f64(op.heading[0])
    w.f64(op.heading[1])
    w.u32(len(op.shared))
    for region, pois in op.shared:
        write_rect(w, region)
        write_pois(w, pois)


def read_overhear_op(r: Reader) -> OverhearOp:
    event_index = r.i64()
    target = r.i64()
    now = r.f64()
    position = (r.f64(), r.f64())
    heading = (r.f64(), r.f64())
    shared = SharedResult(
        (read_rect(r), read_pois(r)) for _ in range(r.u32())
    )
    return OverhearOp(event_index, target, now, position, heading, shared)


# All 17 QueryRecord fields in dataclass order; enums as u8 ordinals.
_RECORD = struct.Struct("<dqBBdqqqqdqdqqqqq")


def write_record(w: Writer, record: QueryRecord) -> None:
    w.buf += _RECORD.pack(
        record.time,
        record.host_id,
        _KIND_CODE[record.kind],
        _RESOLUTION_CODE[record.resolution],
        record.access_latency,
        record.tuning_packets,
        record.buckets_downloaded,
        record.peer_count,
        record.k,
        record.window_area,
        record.result_size,
        record.covered_fraction_missing,
        record.p2p_drops,
        record.p2p_retries,
        record.p2p_deadline_misses,
        record.recovery_retunes,
        record.buckets_lost,
    )


def read_record(r: Reader) -> QueryRecord:
    fields = _RECORD.unpack(r._take(_RECORD.size))
    return QueryRecord(
        fields[0],
        fields[1],
        _kind_from(fields[2]),
        _resolution_from(fields[3]),
        *fields[4:],
    )


def write_event(w: Writer, event: QueryEvent) -> None:
    w.f64(event.time)
    w.i64(event.host_id)
    w.u8(_KIND_CODE[event.kind])
    w.i64(event.k)
    w.f64(event.window_area)
    w.f64(event.center_offset[0])
    w.f64(event.center_offset[1])


def read_event(r: Reader) -> QueryEvent:
    return QueryEvent(
        time=r.f64(),
        host_id=r.i64(),
        kind=_kind_from(r.u8()),
        k=r.i64(),
        window_area=r.f64(),
        center_offset=(r.f64(), r.f64()),
    )


# ----------------------------------------------------------------------
# QueryRecord batches
# ----------------------------------------------------------------------
def encode_records(records) -> bytes:
    """One frame holding a contiguous batch of query records."""
    writer = frame(TAG_RECORD_BATCH)
    writer.u32(len(records))
    for record in records:
        write_record(writer, record)
    return writer.getvalue()


def read_record_batch(r: Reader) -> tuple[QueryRecord, ...]:
    return tuple(read_record(r) for _ in range(r.u32()))


# ----------------------------------------------------------------------
# MobileHost migration records
# ----------------------------------------------------------------------
_POLICY_DIRECTION = 1
# The clocked stock policies: one tag byte each, and the clock after
# the POIs, one time per POI (LRU's its last use, FIFO's its admission).
_POLICY_TAG = {LRUPolicy: 2, FIFOPolicy: 3}
_TAG_POLICY = {tag: cls for cls, tag in _POLICY_TAG.items()}


def write_host(w: Writer, host: MobileHost) -> None:
    cache = host.cache
    w.i64(host.host_id)
    (
        capacity,
        max_regions,
        generation,
        settled,
        pois,
        regions,
    ) = cache.codec_state()
    policy = cache.policy
    clock = None
    if type(policy) is DirectionDistancePolicy:
        w.u8(_POLICY_DIRECTION)
        w.f64(policy.behind_penalty)
    elif type(policy) in _POLICY_TAG:
        w.u8(_POLICY_TAG[type(policy)])
        clock = policy.clock
    else:
        raise CodecError(
            f"replacement policy {type(policy).__name__} has no wire form"
            " (only the stock policies cross a process boundary)"
        )
    w.i64(capacity)
    w.i64(max_regions)
    w.i64(generation)
    w.u8(1 if settled else 0)
    write_pois(w, pois)
    if clock is not None:
        w.f64_array([clock[poi.poi_id] for poi in pois])
    write_rects(w, [vr.rect for vr in regions])
    w.f64_array([vr.created_at for vr in regions])


def read_host(r: Reader) -> MobileHost:
    host_id = r.i64()
    policy_tag = r.u8()
    if policy_tag == _POLICY_DIRECTION:
        penalty = r.f64()
        policy = (
            DIRECTION_DISTANCE
            if penalty == DIRECTION_DISTANCE.behind_penalty
            else DirectionDistancePolicy(penalty)
        )
    elif policy_tag not in _TAG_POLICY:
        raise CodecError(f"unknown policy tag {policy_tag}")
    capacity = r.i64()
    max_regions = r.i64()
    generation = r.i64()
    settled = bool(r.u8())
    pois = read_pois(r)
    if policy_tag in _TAG_POLICY:
        times = r.f64_array().tolist()
        if len(times) != len(pois):
            raise CodecError("policy clock buffer disagrees with POI count")
        policy = _TAG_POLICY[policy_tag](
            dict(zip([poi.poi_id for poi in pois], times))
        )
    region_rects = read_rects(r)
    created_at = r.f64_array().tolist()
    if len(created_at) != len(region_rects):
        raise CodecError("region clock buffer disagrees with rect count")
    regions = [
        VerifiedRegion(rect, t) for rect, t in zip(region_rects, created_at)
    ]
    cache = POICache.from_codec_state(
        policy,
        capacity,
        max_regions,
        generation,
        settled,
        pois,
        regions,
    )
    return MobileHost(host_id, cache)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
register(
    TAG_SHARE_PAYLOAD, ShareResponse, write_share_response, read_share_response
)
register(TAG_OVERHEAR_OP, OverhearOp, write_overhear_op, read_overhear_op)
register(TAG_QUERY_RECORD, QueryRecord, write_record, read_record)
register(TAG_QUERY_EVENT, QueryEvent, write_event, read_event)
register(TAG_HOST, MobileHost, write_host, read_host)
register(TAG_RECORD_BATCH, None, None, read_record_batch)
