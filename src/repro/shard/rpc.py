"""Binary pipe RPC between the shard coordinator and its workers.

Each request is one codec-framed buffer shipped over
``Connection.send_bytes``: a ``u8`` opcode followed by a struct-packed
body built from the :mod:`repro.codec.core` primitives (contiguous
``float64``/``int64`` buffers for epoch snapshots, length-prefixed
codec frames for domain objects).  Responses are ``u8`` status + body
— ``STATUS_ERR`` carries the worker traceback, re-raised on the
coordinator as :class:`~repro.errors.ExperimentError`.

The coordinator never *decodes* the domain objects relayed between
workers (migrating hosts, halo payloads, overhear ops): the worker
returns them as opaque codec blobs wrapped in lightweight handle
objects (:class:`EncodedMobileHost`, :class:`EncodedSharePayload`,
:class:`EncodedOverhearOp`) exposing exactly the attributes the
routing logic in :mod:`repro.shard.sim` reads (``host_id``,
``generation``, ``event_index``, ``target``).  A payload therefore
crosses the coordinator as one flat buffer — encoded once by its owner
shard, decoded once by each consumer shard — instead of being pickled
up and re-pickled down.

Every worker method has an opcode — the introspection calls
(``traffic_totals``, ``share_states``) included — so
nothing on the pipe is ever unpickled and the worker never resolves a
method name read off the wire.

This module deliberately imports only :mod:`repro.codec.core` and the
leaf :mod:`repro.shard.messages` — the type registry loads lazily
inside ``encode``/``decode`` — so the shard package and the codec
package can depend on each other's leaves without a cycle.
"""

from __future__ import annotations

from itertools import islice

from ..codec.core import Reader, Writer, decode, encode
from ..errors import ExperimentError
from .messages import EventOutcome

OP_SHUTDOWN = 0
OP_BEGIN_EPOCH = 2
OP_TAKE_HOSTS = 3
OP_GIVE_HOSTS = 4
OP_SET_HALO = 5
OP_EXPORT_PAYLOADS = 6
OP_EXECUTE_BATCH = 7
OP_APPLY_OPS = 8
OP_TRAFFIC_TOTALS = 9
OP_SHARE_STATES = 11

STATUS_OK = 0
STATUS_ERR = 1

_OPCODES = {
    "begin_epoch": OP_BEGIN_EPOCH,
    "take_hosts": OP_TAKE_HOSTS,
    "give_hosts": OP_GIVE_HOSTS,
    "set_halo_payloads": OP_SET_HALO,
    "export_payloads": OP_EXPORT_PAYLOADS,
    "execute_batch": OP_EXECUTE_BATCH,
    "apply_ops": OP_APPLY_OPS,
    "traffic_totals": OP_TRAFFIC_TOTALS,
    "share_states": OP_SHARE_STATES,
}


class EncodedMobileHost:
    """A migrating host as an opaque codec blob plus its routing key."""

    __slots__ = ("host_id", "blob")

    def __init__(self, host_id: int, blob: bytes):
        self.host_id = host_id
        self.blob = blob


class EncodedSharePayload:
    """A halo payload (an owner's share response) as an opaque codec
    blob plus its mirror keys."""

    __slots__ = ("peer_id", "generation", "blob")

    def __init__(self, peer_id: int, generation: int, blob: bytes):
        self.peer_id = peer_id
        self.generation = generation
        self.blob = blob


class EncodedOverhearOp:
    """An overhear op as an opaque codec blob plus its routing keys."""

    __slots__ = ("event_index", "target", "blob")

    def __init__(self, event_index: int, target: int, blob: bytes):
        self.event_index = event_index
        self.target = target
        self.blob = blob


# ----------------------------------------------------------------------
# Coordinator side: requests out, responses in
# ----------------------------------------------------------------------
def shutdown_request() -> bytes:
    return bytes((OP_SHUTDOWN,))


def opcode_of(method: str) -> int:
    """The opcode of a worker method."""
    try:
        return _OPCODES[method]
    except KeyError:
        raise ExperimentError(f"shard worker has no RPC method {method!r}")


def encode_request(method: str, args: tuple) -> bytes:
    """One request buffer for a worker-method invocation."""
    opcode = opcode_of(method)
    w = Writer()
    w.u8(opcode)
    if opcode == OP_BEGIN_EPOCH:
        t, ids, xs, ys, hx, hy, owned_mask = args
        w.f64(t)
        w.i64_array(ids)
        w.f64_array(xs)
        w.f64_array(ys)
        w.f64_array(hx)
        w.f64_array(hy)
        w.bool_array(owned_mask)
    elif opcode == OP_TAKE_HOSTS:
        (gids,) = args
        w.i64_array(gids)
    elif opcode == OP_GIVE_HOSTS:
        (hosts,) = args
        w.u32(len(hosts))
        for host in hosts:
            w.bytes_(host.blob)
    elif opcode == OP_SET_HALO:
        (payloads,) = args
        w.u32(len(payloads))
        for payload in payloads:
            w.bytes_(payload.blob)
    elif opcode == OP_EXPORT_PAYLOADS:
        (gids,) = args
        w.i64_array(gids)
    elif opcode == OP_EXECUTE_BATCH:
        (items,) = args
        w.u32(len(items))
        for index, event in items:
            w.i64(index)
            w.bytes_(encode(event))
    elif opcode == OP_APPLY_OPS:
        (ops,) = args
        w.u32(len(ops))
        for op in ops:
            w.bytes_(op.blob)
    return w.getvalue()


def _check_status(r: Reader) -> None:
    if r.u8() == STATUS_ERR:
        raise ExperimentError(f"shard worker failed:\n{r.str_()}")


def read_ack(data: bytes) -> int:
    """Parse the construction ack; returns the worker's shard id."""
    r = Reader(data)
    _check_status(r)
    shard_id = r.i64()
    r.expect_end()
    return shard_id


def decode_response(method: str, data: bytes):
    """Parse a worker response for ``method`` into coordinator objects."""
    opcode = _OPCODES[method]
    r = Reader(data)
    _check_status(r)
    if opcode == OP_TAKE_HOSTS:
        result = [
            EncodedMobileHost(r.i64(), r.bytes_()) for _ in range(r.u32())
        ]
    elif opcode == OP_EXPORT_PAYLOADS:
        result = [
            EncodedSharePayload(r.i64(), r.i64(), r.bytes_())
            for _ in range(r.u32())
        ]
    elif opcode == OP_EXECUTE_BATCH:
        result = [_read_outcome(r) for _ in range(r.u32())]
    elif opcode == OP_APPLY_OPS:
        result = _read_dirty(r)
    elif opcode == OP_TRAFFIC_TOTALS:
        result = (r.i64(), r.i64(), r.i64())
    elif opcode == OP_SHARE_STATES:
        result = _read_share_states(r)
    else:  # begin_epoch / give_hosts / set_halo_payloads return nothing
        result = None
    r.expect_end()
    return result


def _read_dirty(r: Reader) -> tuple[tuple[int, int], ...]:
    flat = r.i64_array().tolist()
    return tuple(zip(flat[0::2], flat[1::2]))


def _read_share_states(r: Reader) -> dict[int, tuple[int, tuple, tuple]]:
    """Rebuild ``ShardWorld.share_states()`` from its columnar form."""
    gids, generations, n_rects, n_pois = (
        r.i64_array().tolist() for _ in range(4)
    )
    rects = zip(*[iter(r.f64_array().tolist())] * 4)
    pois = zip(r.i64_array().tolist(), *[iter(r.f64_array().tolist())] * 2)
    return {
        gid: (generation, tuple(islice(rects, nr)), tuple(islice(pois, npoi)))
        for gid, generation, nr, npoi in zip(gids, generations, n_rects, n_pois)
    }


def _read_outcome(r: Reader) -> EventOutcome:
    """A worker outcome: decoded record, relayed (un-decoded) ops."""
    event_index = r.i64()
    record = decode(r.bytes_())
    dirty = _read_dirty(r)
    remote_ops = tuple(
        EncodedOverhearOp(r.i64(), r.i64(), r.bytes_())
        for _ in range(r.u32())
    )
    return EventOutcome(event_index, record, remote_ops, dirty)


# ----------------------------------------------------------------------
# Worker side: requests in, responses out
# ----------------------------------------------------------------------
def err_frame(traceback_text: str) -> bytes:
    w = Writer()
    w.u8(STATUS_ERR)
    w.str_(traceback_text)
    return w.getvalue()


def construction_ack(shard_id: int) -> bytes:
    w = Writer()
    w.u8(STATUS_OK)
    w.i64(shard_id)
    return w.getvalue()


def _ok() -> Writer:
    w = Writer()
    w.u8(STATUS_OK)
    return w


def _write_dirty(w: Writer, dirty) -> None:
    w.i64_array([value for pair in dirty for value in pair])


def _write_share_states(w: Writer, states: dict) -> None:
    """Columnar (93,300 hosts at full scale): ids, stamps and counts
    per host, then every rect and every POI in one flat buffer each."""
    entries = list(states.values())
    w.i64_array(list(states))
    w.i64_array([entry[0] for entry in entries])
    w.i64_array([len(entry[1]) for entry in entries])
    w.i64_array([len(entry[2]) for entry in entries])
    w.f64_array([v for entry in entries for rect in entry[1] for v in rect])
    pois = [poi for entry in entries for poi in entry[2]]
    w.i64_array([poi[0] for poi in pois])
    w.f64_array([v for poi in pois for v in poi[1:]])


def handle_request(world, data: bytes) -> bytes | None:
    """Dispatch one request buffer onto ``world``; ``None`` = shutdown.

    Any exception escaping the world method (or the request decoding)
    becomes an error frame carrying the formatted traceback.
    """
    import traceback

    try:
        r = Reader(data)
        opcode = r.u8()
        if opcode == OP_SHUTDOWN:
            return None
        w = _ok()
        if opcode == OP_BEGIN_EPOCH:
            t = r.f64()
            ids = r.i64_array()
            xs, ys, hx, hy = (r.f64_array() for _ in range(4))
            owned_mask = r.bool_array()
            r.expect_end()
            world.begin_epoch(t, ids, xs, ys, hx, hy, owned_mask)
        elif opcode == OP_TAKE_HOSTS:
            gids = r.i64_array().tolist()
            r.expect_end()
            hosts = world.take_hosts(gids)
            w.u32(len(hosts))
            for host in hosts:
                w.i64(host.host_id)
                w.bytes_(encode(host))
        elif opcode == OP_GIVE_HOSTS:
            hosts = [decode(r.bytes_()) for _ in range(r.u32())]
            r.expect_end()
            world.give_hosts(hosts)
        elif opcode == OP_SET_HALO:
            payloads = [decode(r.bytes_()) for _ in range(r.u32())]
            r.expect_end()
            world.set_halo_payloads(payloads)
        elif opcode == OP_EXPORT_PAYLOADS:
            gids = r.i64_array().tolist()
            r.expect_end()
            payloads = world.export_payloads(gids)
            w.u32(len(payloads))
            for payload in payloads:
                w.i64(payload.peer_id)
                w.i64(payload.generation)
                w.bytes_(encode(payload))
        elif opcode == OP_EXECUTE_BATCH:
            items = [
                (r.i64(), decode(r.bytes_())) for _ in range(r.u32())
            ]
            r.expect_end()
            outcomes = world.execute_batch(items)
            w.u32(len(outcomes))
            for outcome in outcomes:
                w.i64(outcome.event_index)
                w.bytes_(encode(outcome.record))
                _write_dirty(w, outcome.dirty)
                w.u32(len(outcome.remote_ops))
                for op in outcome.remote_ops:
                    w.i64(op.event_index)
                    w.i64(op.target)
                    w.bytes_(encode(op))
        elif opcode == OP_APPLY_OPS:
            ops = [decode(r.bytes_()) for _ in range(r.u32())]
            r.expect_end()
            _write_dirty(w, world.apply_ops(ops))
        elif opcode == OP_TRAFFIC_TOTALS:
            r.expect_end()
            for total in world.traffic_totals():
                w.i64(total)
        elif opcode == OP_SHARE_STATES:
            r.expect_end()
            _write_share_states(w, world.share_states())
        else:
            raise ExperimentError(f"unknown RPC opcode {opcode}")
        return w.getvalue()
    except BaseException:
        return err_frame(traceback.format_exc())
