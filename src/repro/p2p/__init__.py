"""Peer-to-peer layer: range-disc discovery and sharing messages."""

from .network import PeerNetwork
from .protocol import ShareRequest, ShareResponse

__all__ = ["PeerNetwork", "ShareRequest", "ShareResponse"]
