"""Discrete-event simulation kernel (generator-based, simpy-style)."""

from .core import Environment, Event, Process, Timeout

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
]
