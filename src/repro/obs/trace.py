"""Hierarchical query-lifecycle spans.

A :class:`Span` measures one phase of a query's life — the share
exchange, the NNV pass, the broadcast index scan — carrying both
*wall time* (what the phase cost the machine, via ``perf_counter``)
and *domain attributes* (what the phase cost the simulated system:
peers heard, buckets downloaded, simulated seconds).  Spans nest: a
span opened while another is active becomes its child, so one query
produces one tree rooted at a ``query`` span.

The simulated-latency convention: a span that consumes broadcast or
P2P air time records it under the ``sim_s`` attribute.  Summing
``sim_s`` over a query tree reproduces the query's recorded
``access_latency`` — the invariant :mod:`repro.obs.summary` checks.

Disabled tracing must cost nothing measurable, so call sites either
hold the shared :data:`NO_TRACER` (whose spans are a single reusable
no-op object) or guard on ``tracer is None``; both paths make no
allocation per query.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

__all__ = ["NO_TRACER", "NullSpan", "NullTracer", "Span", "Tracer"]


class Span:
    """One timed, attributed phase; usable as a context manager."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "wall_start",
        "wall_end",
        "is_root",
        "_tracer",
    )

    enabled = True

    def __init__(self, name: str, tracer: "Tracer", is_root: bool):
        self.name = name
        self.attributes: dict[str, Any] = {}
        self.children: list[Span] = []
        self.wall_start = tracer._clock()
        self.wall_end: float | None = None
        self.is_root = is_root
        self._tracer = tracer

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self)
        return False

    # -- attribute helpers ----------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach domain attributes (peers heard, buckets, ``sim_s``...)."""
        self.attributes.update(attributes)
        return self

    # -- derived views --------------------------------------------------
    @property
    def wall_ms(self) -> float:
        end = self.wall_end if self.wall_end is not None else self._tracer._clock()
        return (end - self.wall_start) * 1000.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready tree (wall times in milliseconds)."""
        out: dict[str, Any] = {"name": self.name, "wall_ms": round(self.wall_ms, 6)}
        if self.attributes:
            out["attributes"] = self.attributes
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, attrs={self.attributes!r}, children={len(self.children)})"


class NullSpan:
    """The do-nothing span handed out by a disabled tracer.

    A single shared instance: entering, exiting, and setting
    attributes are all no-ops, so instrumented code runs unchanged —
    and unmeasurably slower — when tracing is off.
    """

    __slots__ = ()

    enabled = False
    name = ""
    attributes: dict[str, Any] = {}
    children: list = []

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class NullTracer:
    """A tracer that records nothing; shared as :data:`NO_TRACER`."""

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> NullSpan:
        return _NULL_SPAN

    @property
    def roots(self) -> list:
        return []


NO_TRACER = NullTracer()


class Tracer:
    """Collects span trees; roots go to ``sink`` (or ``.roots``).

    ``sink`` is any callable taking a finished root :class:`Span` —
    typically a :class:`~repro.obs.export.JsonLinesExporter`.  Without
    a sink, finished roots accumulate on ``roots`` (handy in tests and
    notebooks); ``max_roots`` bounds that retention so a long unsinked
    run cannot grow without limit.

    The tracer is single-threaded by design, matching the simulator:
    one span stack, no locks.
    """

    enabled = True

    def __init__(
        self,
        sink: Callable[[Span], None] | None = None,
        max_roots: int = 100_000,
        clock: Callable[[], float] = perf_counter,
    ):
        self.sink = sink
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock

    def span(self, name: str) -> Span:
        """Open a span nested under the currently active one (if any)."""
        span = Span(name, self, is_root=not self._stack)
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.wall_end = self._clock()
        # Unwind to the finished span; tolerates children left open by
        # an exception unwinding through nested ``with`` blocks.
        while self._stack:
            if self._stack.pop() is span:
                break
        if span.is_root:
            if self.sink is not None:
                self.sink(span)
            elif len(self.roots) < self.max_roots:
                self.roots.append(span)
