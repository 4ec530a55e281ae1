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
* ``"binary"`` — the :mod:`repro.codec` frame header ``MAGIC |
  VERSION | 0x23`` followed by the same JSON bytes.  Negotiated at
  HELLO (which itself is *always* JSON, both directions): a client
  asks with ``"encoding": "binary"`` and the server echoes it back.
  A peer built from an older tree sends the retired tags
  ``0x20``–``0x22`` and is refused by tag.

Either way the decode contract is identical — a payload must decode
to an object with a string ``type`` field, and malformed bytes
(hostile nesting and over-long integer literals included) raise
:class:`FrameError`.  Oversized *outgoing* messages raise the typed
:class:`FrameTooLargeError` before any bytes hit the transport.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from ..codec.core import HEADER_SIZE, MAGIC, TAG_WIRE_JSON, VERSION, open_frame
from ..errors import CodecError, ServeError

__all__ = [
    "ENCODINGS",
    "ENCODING_BINARY",
    "ENCODING_JSON",
    "FrameError",
    "FrameTooLargeError",
    "HEADER",
    "MAX_FRAME",
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

ENCODING_JSON = "json"
ENCODING_BINARY = "binary"
ENCODINGS = frozenset({ENCODING_JSON, ENCODING_BINARY})

# What a binary payload carries in front of the JSON bytes.
_BINARY_HEADER = bytes((MAGIC, VERSION, TAG_WIRE_JSON))


class FrameError(ServeError):
    """The byte stream violated the framing contract; close it."""


class FrameTooLargeError(FrameError):
    """An *outgoing* message encoded past the frame size bound."""


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
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if encoding == ENCODING_BINARY:
        payload = _BINARY_HEADER + payload
    elif encoding != ENCODING_JSON:
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
            tag, _ = open_frame(payload)
        except CodecError as exc:
            raise FrameError(f"malformed binary frame: {exc}") from exc
        if tag != TAG_WIRE_JSON:
            raise FrameError(
                f"malformed binary frame: unknown wire tag 0x{tag:02x}"
            )
        payload = payload[HEADER_SIZE:]
    elif encoding != ENCODING_JSON:
        raise ServeError(f"unknown wire encoding {encoding!r}")
    try:
        message = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer literal
        # past CPython's digit limit; RecursionError a hostile nesting.
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
