"""A compact discrete-event simulation kernel.

The original study runs on an event-driven mobile-system simulator;
this module provides that substrate (simpy is not available offline):
a clock, processes and timeouts — what its one caller,
``Simulation.run_workload``'s driver process, uses.  The programming
model mirrors the familiar generator style:

    def driver(env):
        yield env.timeout(5.0)
        print("it is", env.now)

    env = Environment()
    env.process(driver(env))
    env.run()

Processes are generators that yield :class:`Event` objects; the
environment advances simulated time from event to event.  Time is a
float in seconds (by convention of the callers).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator

from ..errors import SimulationError

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once it has a value (a :class:`Timeout` at
    construction, a :class:`Process` when its generator returns or
    raises), and *processed* once the environment has run its
    callbacks.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    def defuse(self) -> None:
        """Mark a failed event as handled outside a process."""
        self._defused = True


class Timeout(Event):
    """An event that fires after a fixed delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._enqueue(self, delay=delay)


class Initialize(Event):
    """Internal event that kicks a new process on the next step."""

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.process = process
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._enqueue(self)


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("process() needs a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    def _resume(self, trigger: Event) -> None:
        try:
            if trigger._ok:
                next_event = self._generator.send(trigger._value)
            else:
                trigger._defused = True
                next_event = self._generator.throw(trigger._value)
        except StopIteration as stop:
            if self.triggered:
                raise SimulationError("process finished twice") from stop
            self._ok = True
            self._value = stop.value
            self.env._enqueue(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.env._enqueue(self)
            return
        if not isinstance(next_event, Event):
            self._generator.close()
            self._ok = False
            self._value = SimulationError(
                f"process yielded {next_event!r}, expected an Event"
            )
            self.env._enqueue(self)
            return
        if next_event.processed:
            raise SimulationError("process waited on an already-processed event")
        if next_event.callbacks is None:
            raise SimulationError("event already processed")
        next_event.callbacks.append(self._resume)


class Environment:
    """The simulation clock plus the pending-event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._eid), event))

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise SimulationError(
                f"failed event was never handled: {event._value!r}"
            ) from (
                event._value if isinstance(event._value, BaseException) else None
            )

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an absolute time, an :class:`Event` (run until
        it is processed, returning its value), or ``None`` (drain).
        """
        if isinstance(until, Event):
            sentinel = until
            sentinel.defuse()  # run() itself handles a failure
            while not sentinel.processed:
                if not self._queue:
                    raise SimulationError(
                        "queue drained before the awaited event fired"
                    )
                self.step()
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value
        if until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError("run(until) lies in the past")
            while self._queue and self._queue[0][0] <= deadline:
                self.step()
            self._now = deadline
            return None
        while self._queue:
            self.step()
        return None
