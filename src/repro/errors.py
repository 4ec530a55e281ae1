"""Exception hierarchy for the ``repro`` package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GeometryError(ReproError):
    """Invalid geometric construction or query (e.g. empty region)."""


class BroadcastError(ReproError):
    """Invalid broadcast schedule, packet, or on-air protocol state."""


class CacheError(ReproError):
    """Cooperative-cache invariant violation or invalid configuration."""


class MobilityError(ReproError):
    """Invalid mobility model configuration or trajectory query."""


class ProtocolError(ReproError):
    """Malformed peer-to-peer request or response."""


class ExperimentError(ReproError):
    """Invalid experiment configuration or runner misuse."""


class ShardError(ExperimentError):
    """A shard worker process is gone: it died, or its pipe closed.

    ``shard_id`` names the worker, ``opcode`` the RPC the coordinator
    was waiting on or sending (``None`` while the worker was starting)
    and ``epoch`` the refresh epoch the worker had begun (-1 before the
    first).
    """

    def __init__(self, shard_id: int, opcode: int | None, epoch: int):
        super().__init__(shard_id, opcode, epoch)
        self.shard_id = shard_id
        self.opcode = opcode
        self.epoch = epoch

    def __str__(self) -> str:
        call = "while starting" if self.opcode is None else f"on opcode {self.opcode}"
        return f"shard worker {self.shard_id} is gone {call} (epoch {self.epoch})"


class FaultError(ReproError):
    """Invalid fault-injection configuration or channel-model misuse."""


class ServeError(ReproError):
    """Serving-layer failure: framing, session, or admission misuse."""


class CodecError(ReproError):
    """Malformed, truncated, or unsupported binary codec frame."""
