"""Buffer-oriented binary frame codec: primitives, framing, registry.

Every frame is ``MAGIC | VERSION | TAG | payload`` (three ``u8`` header
bytes, little-endian payload).  The payload is written by a
:class:`Writer` — struct-packed scalars plus contiguous ``float64`` /
``int64`` buffers (numpy ``tobytes``) — and read back by a
:class:`Reader` that hands out zero-copy ``memoryview`` slices and
``np.frombuffer`` array views.

Decoding is *strict*: a truncated buffer, trailing garbage, a bad
magic byte, an unsupported version, or an unknown type tag all raise
:class:`~repro.errors.CodecError`.  Unexpected exceptions escaping a
type decoder (e.g. a corrupted rectangle failing domain validation)
are wrapped into :class:`CodecError` too, so callers holding hostile
bytes only ever need to catch one type.

Type encoders/decoders live in :mod:`repro.codec.types`; they register
here via :func:`register`, keyed by the versioned type tag, and the
module-level :func:`encode` / :func:`decode` dispatch on object type /
frame tag respectively.
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from ..errors import CodecError

MAGIC = 0xC7
VERSION = 1
HEADER_SIZE = 3

# Versioned type tags.  0x00-0x0f: single objects; 0x10-0x1f: batches;
# 0x20-0x2f: serving-layer wire messages (see repro.serve.protocol).
# 0x00 carried a pickled object, 0x01 the persistent SlabUnion, 0x05
# an EventOutcome (the process backend relays outcomes in its own RPC
# layout), 0x07 the host record with its coordinate mirror, 0x08 the
# host record with two clocks per cached POI and 0x20-0x22 the wire's
# value tree and struct QUERY/ANSWER layouts; all retired, and reserved
# so an old frame is refused as an unknown tag rather than misread.
TAG_SHARE_PAYLOAD = 0x02
TAG_OVERHEAR_OP = 0x03
TAG_QUERY_RECORD = 0x04
TAG_QUERY_EVENT = 0x06
TAG_HOST = 0x09
TAG_RECORD_BATCH = 0x13
TAG_WIRE_JSON = 0x23

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class Writer:
    """Append-only binary payload builder over a ``bytearray``."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, value: int) -> None:
        self.buf += _U8.pack(value)

    def u32(self, value: int) -> None:
        self.buf += _U32.pack(value)

    def i64(self, value: int) -> None:
        self.buf += _I64.pack(value)

    def f64(self, value: float) -> None:
        self.buf += _F64.pack(value)

    def str_(self, value: str) -> None:
        data = value.encode("utf-8")
        self.buf += _U32.pack(len(data))
        self.buf += data

    def bytes_(self, value: bytes) -> None:
        self.buf += _U32.pack(len(value))
        self.buf += value

    def f64_array(self, values) -> None:
        arr = np.asarray(values, dtype="<f8")
        self.buf += _U32.pack(arr.size)
        self.buf += arr.tobytes()

    def i64_array(self, values) -> None:
        arr = np.asarray(values, dtype="<i8")
        self.buf += _U32.pack(arr.size)
        self.buf += arr.tobytes()

    def bool_array(self, values) -> None:
        arr = np.asarray(values, dtype=bool).astype(np.uint8)
        self.buf += _U32.pack(arr.size)
        self.buf += arr.tobytes()

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class Reader:
    """Strict sequential payload reader over a ``memoryview``.

    Every read is bounds-checked; array reads return read-only
    ``np.frombuffer`` views into the original buffer (callers that
    need writable arrays must copy — see the host decoder).
    """

    __slots__ = ("_view", "_pos")

    def __init__(self, data) -> None:
        self._view = memoryview(data)
        self._pos = 0

    def _take(self, n: int):
        end = self._pos + n
        if end > len(self._view):
            raise CodecError(
                f"truncated frame: wanted {n} bytes at offset "
                f"{self._pos}, have {len(self._view) - self._pos}"
            )
        piece = self._view[self._pos:end]
        self._pos = end
        return piece

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def str_(self) -> str:
        n = self.u32()
        try:
            return bytes(self._take(n)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed utf-8 string field: {exc}")

    def bytes_(self) -> bytes:
        return bytes(self._take(self.u32()))

    def f64_array(self) -> np.ndarray:
        n = self.u32()
        return np.frombuffer(self._take(8 * n), dtype="<f8")

    def i64_array(self) -> np.ndarray:
        n = self.u32()
        return np.frombuffer(self._take(8 * n), dtype="<i8")

    def bool_array(self) -> np.ndarray:
        n = self.u32()
        return np.frombuffer(self._take(n), dtype=np.uint8) != 0

    def expect_end(self) -> None:
        if self._pos != len(self._view):
            raise CodecError(
                f"{len(self._view) - self._pos} trailing bytes after frame"
            )


def frame(tag: int) -> Writer:
    """A :class:`Writer` with the three-byte frame header pre-filled."""
    writer = Writer()
    writer.buf += bytes((MAGIC, VERSION, tag))
    return writer


def open_frame(data) -> tuple[int, Reader]:
    """Validate the header of ``data`` and position a reader after it."""
    view = memoryview(data)
    if len(view) < HEADER_SIZE:
        raise CodecError(
            f"frame of {len(view)} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    if view[0] != MAGIC:
        raise CodecError(f"bad magic byte 0x{view[0]:02x}")
    if view[1] != VERSION:
        raise CodecError(f"unsupported codec version {view[1]}")
    reader = Reader(view)
    reader._take(HEADER_SIZE)
    return view[2], reader


_ENCODERS: dict[type, tuple[int, Callable]] = {}
_DECODERS: dict[int, Callable] = {}
_TYPES_LOADED = False


def _load_types() -> None:
    """Import :mod:`repro.codec.types` for its registration side effects.

    Lazy so that :mod:`repro.shard` modules can import this core (for
    the RPC framing primitives) without creating an import cycle with
    the type registry, which itself imports shard message types.
    """
    global _TYPES_LOADED
    if not _TYPES_LOADED:
        _TYPES_LOADED = True
        from . import types  # noqa: F401


def register(
    tag: int,
    cls: type | None,
    encoder: Callable | None,
    decoder: Callable,
) -> None:
    """Register a type's frame codec.

    ``encoder(writer, obj)`` appends the payload of ``obj``;
    ``decoder(reader)`` parses one and returns the object.  ``cls`` may
    be ``None`` for tags that are only ever decoded (or encoded through
    a dedicated entry point rather than generic :func:`encode`).
    """
    if tag in _DECODERS:
        raise CodecError(f"duplicate codec tag 0x{tag:02x}")
    if cls is not None and encoder is not None:
        _ENCODERS[cls] = (tag, encoder)
    _DECODERS[tag] = decoder


def encode(obj) -> bytes:
    """One full frame (header + payload) for a registered object type."""
    _load_types()
    try:
        tag, encoder = _ENCODERS[type(obj)]
    except KeyError:
        raise CodecError(f"no codec registered for {type(obj).__name__}")
    writer = frame(tag)
    encoder(writer, obj)
    return writer.getvalue()


def decode(data):
    """Strictly decode one frame produced by :func:`encode`.

    Raises :class:`CodecError` on any malformation — truncation,
    trailing bytes, unknown tags, or a decoder tripping over corrupted
    payload contents.
    """
    _load_types()
    tag, reader = open_frame(data)
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown codec type tag 0x{tag:02x}")
    try:
        obj = decoder(reader)
        reader.expect_end()
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed frame (tag 0x{tag:02x}): {exc}")
    return obj
