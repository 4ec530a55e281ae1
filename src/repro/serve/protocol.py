"""The framed wire protocol between base station and mobile clients.

A frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object with a ``type``
field.  Five types exist:

========  =========  ====================================================
type      direction  meaning
========  =========  ====================================================
HELLO     both       session open: the client introduces itself, the
                     server answers with the session id and its limits
QUERY     c -> s     one spatial query (kNN or window) or a standing
                     registration (``standing: true``)
ANSWER    s -> c     a query answer: POI ids, plan kind, latencies
ERROR     s -> c     a refused frame or a failed request
SHED      s -> c     admission control refused the request (queue full,
                     per-client cap, or overload estimate)
========  =========  ====================================================

Framing errors — truncated length prefix, oversized frame, mid-frame
disconnect, bytes that are not a JSON object — raise
:class:`FrameError`; they mean the stream can no longer be trusted and
the connection must close.  A *well-formed* frame with an unknown type
or bad fields is answered with an ERROR frame and the connection stays
up, so one buggy request never kills a session.

Two payload encodings share the framing:

* ``"json"`` (default) — UTF-8 JSON, dependency-free and greppable;
* ``"binary"`` — a :mod:`repro.codec` frame: hot QUERY/ANSWER shapes
  get dedicated struct-packed layouts, everything else rides the
  pickle-free value codec (:mod:`repro.codec.values`).  Negotiated at
  HELLO (which itself is *always* JSON, both directions): a client
  asks with ``"encoding": "binary"`` and the server echoes it back.

Either way the decode contract is identical — a payload must decode
to an object with a string ``type`` field, and malformed bytes raise
:class:`FrameError`.  Oversized *outgoing* messages raise the typed
:class:`FrameTooLargeError` before any bytes hit the transport.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from ..codec import CodecError, frame as codec_frame, open_frame
from ..codec.core import TAG_SB_ANSWER, TAG_SB_GENERIC, TAG_SB_QUERY
from ..codec.values import read_value, write_value
from ..errors import ServeError

__all__ = [
    "ENCODINGS",
    "ENCODING_BINARY",
    "ENCODING_JSON",
    "FrameError",
    "FrameTooLargeError",
    "HEADER",
    "MAX_FRAME",
    "MESSAGE_TYPES",
    "MSG_ANSWER",
    "MSG_ERROR",
    "MSG_HELLO",
    "MSG_QUERY",
    "MSG_SHED",
    "PROTOCOL_VERSION",
    "answer_message",
    "decode_payload",
    "encode_frame",
    "error_message",
    "read_frame",
    "shed_message",
]

PROTOCOL_VERSION = 1

HEADER = struct.Struct(">I")

# Generous for answers (a few hundred POI ids) yet small enough that a
# hostile length prefix cannot balloon one connection's buffer.
MAX_FRAME = 256 * 1024

MSG_HELLO = "HELLO"
MSG_QUERY = "QUERY"
MSG_ANSWER = "ANSWER"
MSG_ERROR = "ERROR"
MSG_SHED = "SHED"

MESSAGE_TYPES = frozenset(
    {MSG_HELLO, MSG_QUERY, MSG_ANSWER, MSG_ERROR, MSG_SHED}
)

ENCODING_JSON = "json"
ENCODING_BINARY = "binary"
ENCODINGS = frozenset({ENCODING_JSON, ENCODING_BINARY})


class FrameError(ServeError):
    """The byte stream violated the framing contract; close it."""


class FrameTooLargeError(FrameError):
    """An *outgoing* message encoded past the frame size bound."""


# ----------------------------------------------------------------------
# Binary payloads: struct-packed fast paths + generic value codec
# ----------------------------------------------------------------------
# The two hot shapes on a load-generator wire.  Anything that doesn't
# match exactly (standing registrations, extra fields, pushes) falls
# back to the generic value codec — same information, same strictness.
_QUERY_KNN_KEYS = frozenset({"type", "id", "kind", "host_id", "time", "k"})
_QUERY_WINDOW_KEYS = frozenset(
    {"type", "id", "kind", "host_id", "time", "window_area", "center_offset"}
)
_ANSWER_KEYS = frozenset(
    {
        "type",
        "id",
        "poi_ids",
        "plan",
        "latency_s",
        "tuning_packets",
        "host_id",
        "kind",
    }
)

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _plain_int(value: Any) -> bool:
    return (
        type(value) is int and _I64_MIN <= value <= _I64_MAX
    )


def _encode_binary(message: dict[str, Any]) -> bytes:
    mtype = message.get("type")
    if mtype == MSG_QUERY:
        payload = _try_encode_query(message)
        if payload is not None:
            return payload
    elif mtype == MSG_ANSWER:
        payload = _try_encode_answer(message)
        if payload is not None:
            return payload
    writer = codec_frame(TAG_SB_GENERIC)
    write_value(writer, message)
    return writer.getvalue()


def _try_encode_query(message: dict[str, Any]) -> bytes | None:
    keys = message.keys()
    kind = message.get("kind")
    if kind == "knn":
        if keys != _QUERY_KNN_KEYS:
            return None
    elif kind == "window":
        if keys != _QUERY_WINDOW_KEYS:
            return None
        offset = message["center_offset"]
        if not (
            isinstance(offset, (list, tuple))
            and len(offset) == 2
            and all(isinstance(v, (int, float)) for v in offset)
        ):
            return None
        if not isinstance(message["window_area"], (int, float)):
            return None
    else:
        return None
    if not (_plain_int(message["id"]) and _plain_int(message["host_id"])):
        return None
    if not isinstance(message["time"], (int, float)):
        return None
    w = codec_frame(TAG_SB_QUERY)
    w.u8(0 if kind == "knn" else 1)
    w.i64(message["id"])
    w.i64(message["host_id"])
    w.f64(message["time"])
    if kind == "knn":
        if not _plain_int(message["k"]):
            return None
        w.i64(message["k"])
    else:
        w.f64(message["window_area"])
        w.f64(float(offset[0]))
        w.f64(float(offset[1]))
    return w.getvalue()


def _try_encode_answer(message: dict[str, Any]) -> bytes | None:
    if message.keys() != _ANSWER_KEYS:
        return None
    poi_ids = message["poi_ids"]
    if not (
        _plain_int(message["id"])
        and _plain_int(message["host_id"])
        and _plain_int(message["tuning_packets"])
        and isinstance(message["latency_s"], (int, float))
        and isinstance(message["plan"], str)
        and isinstance(message["kind"], str)
        and isinstance(poi_ids, list)
        and all(_plain_int(p) for p in poi_ids)
    ):
        return None
    w = codec_frame(TAG_SB_ANSWER)
    w.i64(message["id"])
    w.i64_array(poi_ids)
    w.str_(message["plan"])
    w.f64(message["latency_s"])
    w.i64(message["tuning_packets"])
    w.i64(message["host_id"])
    w.str_(message["kind"])
    return w.getvalue()


def _decode_binary(payload: bytes) -> dict[str, Any]:
    tag, r = open_frame(payload)
    if tag == TAG_SB_QUERY:
        is_window = r.u8()
        if is_window not in (0, 1):
            raise CodecError(f"bad query kind flag {is_window}")
        message: dict[str, Any] = {
            "type": MSG_QUERY,
            "kind": "window" if is_window else "knn",
            "id": r.i64(),
            "host_id": r.i64(),
            "time": r.f64(),
        }
        if is_window:
            message["window_area"] = r.f64()
            message["center_offset"] = [r.f64(), r.f64()]
        else:
            message["k"] = r.i64()
        # Key order matches query_message() + the client's id tag so a
        # JSON dump of the decoded dict is byte-comparable in tests.
        order = (
            _QUERY_WINDOW_KEYS if is_window else _QUERY_KNN_KEYS
        )
        message = {
            k: message[k]
            for k in (
                "type", "kind", "host_id", "time", "k",
                "window_area", "center_offset", "id",
            )
            if k in order
        }
    elif tag == TAG_SB_ANSWER:
        message = {
            "type": MSG_ANSWER,
            "id": r.i64(),
            "poi_ids": r.i64_array().tolist(),
            "plan": r.str_(),
            "latency_s": r.f64(),
            "tuning_packets": r.i64(),
            "host_id": r.i64(),
            "kind": r.str_(),
        }
    elif tag == TAG_SB_GENERIC:
        message = read_value(r)
        if not isinstance(message, dict):
            raise CodecError(
                f"binary frame must decode to an object, got"
                f" {type(message).__name__}"
            )
    else:
        raise CodecError(f"unknown serve frame tag 0x{tag:02x}")
    r.expect_end()
    if not isinstance(message.get("type"), str):
        raise CodecError("frame payload is missing a string 'type' field")
    return message


def encode_frame(
    message: dict[str, Any],
    encoding: str = ENCODING_JSON,
    max_frame: int = MAX_FRAME,
) -> bytes:
    """One message -> length-prefixed bytes ready for a transport.

    Enforces the *decoder's* size bound on the way out: a message whose
    payload would exceed ``max_frame`` raises
    :class:`FrameTooLargeError` instead of producing a frame the peer
    is contractually required to reject.
    """
    if encoding == ENCODING_JSON:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    elif encoding == ENCODING_BINARY:
        try:
            payload = _encode_binary(message)
        except CodecError as exc:
            raise FrameError(f"unencodable binary message: {exc}") from exc
    else:
        raise ServeError(f"unknown wire encoding {encoding!r}")
    if len(payload) > max_frame:
        raise FrameTooLargeError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME ({max_frame})"
        )
    return HEADER.pack(len(payload)) + payload


def decode_payload(
    payload: bytes, encoding: str = ENCODING_JSON
) -> dict[str, Any]:
    """Frame payload -> message dict; the ``type`` must be a string."""
    if encoding == ENCODING_BINARY:
        try:
            return _decode_binary(payload)
        except CodecError as exc:
            raise FrameError(f"malformed binary frame: {exc}") from exc
    if encoding != ENCODING_JSON:
        raise ServeError(f"unknown wire encoding {encoding!r}")
    try:
        message = json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    if not isinstance(message.get("type"), str):
        raise FrameError("frame payload is missing a string 'type' field")
    return message


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame: int = MAX_FRAME,
    encoding: str = ENCODING_JSON,
) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Anything else that cuts the stream short — a truncated length
    prefix, a length past ``max_frame``, a disconnect mid-payload —
    raises :class:`FrameError`.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"truncated length prefix ({len(exc.partial)} of {HEADER.size}"
            " bytes)"
        ) from exc
    (length,) = HEADER.unpack(header)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > max_frame:
        raise FrameError(
            f"declared frame of {length} bytes exceeds limit ({max_frame})"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"disconnect mid-frame ({len(exc.partial)} of {length} bytes)"
        ) from exc
    return decode_payload(payload, encoding)


# ----------------------------------------------------------------------
# Server-side reply constructors
# ----------------------------------------------------------------------
def answer_message(
    request_id: Any,
    poi_ids: list[int],
    plan: str,
    latency_s: float,
    tuning_packets: int,
    **extra: Any,
) -> dict[str, Any]:
    message: dict[str, Any] = {
        "type": MSG_ANSWER,
        "id": request_id,
        "poi_ids": poi_ids,
        "plan": plan,
        "latency_s": latency_s,
        "tuning_packets": tuning_packets,
    }
    message.update(extra)
    return message


def error_message(
    error: str, request_id: Any = None, code: str = "bad-request"
) -> dict[str, Any]:
    message: dict[str, Any] = {"type": MSG_ERROR, "error": error, "code": code}
    if request_id is not None:
        message["id"] = request_id
    return message


def shed_message(
    request_id: Any, reason: str, queue_depth: int
) -> dict[str, Any]:
    return {
        "type": MSG_SHED,
        "id": request_id,
        "reason": reason,
        "queue_depth": queue_depth,
    }
