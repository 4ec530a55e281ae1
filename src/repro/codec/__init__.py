"""Compact binary serialization for the hot exchange paths.

``repro.codec`` frames are ``MAGIC | VERSION | TAG | payload``:
struct-packed headers plus contiguous float64/int64 buffers that
round-trip through numpy views with zero copies on the read side.
:func:`encode` / :func:`decode` dispatch on registered type tags
(:mod:`~repro.codec.types`); :func:`decode` is strict — truncated,
trailing, or unknown bytes raise :class:`~repro.errors.CodecError`.

Consumers:

* the sharded simulator's pipe RPC (:mod:`repro.shard.rpc`), which
  moves raw codec buffers over ``send_bytes``/``recv_bytes`` — a halo
  payload is the owner's :class:`~repro.p2p.ShareResponse` frame, a
  migrating host one flat record; neither decoder unpickles anything;
* the serving layer's negotiated binary frame mode
  (:mod:`repro.serve.protocol`), which puts this frame header in front
  of the same JSON bytes the JSON mode sends.
"""

from ..errors import CodecError
from .core import (
    MAGIC,
    VERSION,
    Reader,
    Writer,
    decode,
    encode,
    frame,
    open_frame,
    register,
)
from .types import encode_records

__all__ = [
    "MAGIC",
    "VERSION",
    "CodecError",
    "Reader",
    "Writer",
    "decode",
    "encode",
    "encode_records",
    "frame",
    "open_frame",
    "register",
]
