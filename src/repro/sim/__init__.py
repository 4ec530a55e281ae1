"""Discrete-event simulation kernel (generator-based, simpy-style)."""

from .core import Environment, Event, Process, Timeout
from .resources import Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
