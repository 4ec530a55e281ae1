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


class FaultError(ReproError):
    """Invalid fault-injection configuration or channel-model misuse."""


class ServeError(ReproError):
    """Serving-layer failure: framing, session, or admission misuse."""


class CodecError(ReproError):
    """Malformed, truncated, or unsupported binary codec frame."""
