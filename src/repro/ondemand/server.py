"""The on-demand (point-to-point) access model — the paper's foil.

Section 1: "a user establishes a point-to-point communication with the
server so that her queries can be answered on demand. However, this
approach ... may not scale to very large systems", needs a fee-based
cellular network, and reveals the user's location.

This module implements that baseline so the scalability claim can be
measured: a server with a bounded number of concurrent uplink channels
that answers each kNN request exactly (a linear scan, the oracle every
index in this repo is checked against), holds a channel for a service
time proportional to the answer it ships, and queues requests first
come, first served; plus a closed-form M/M/c waiting-time model for
quick analysis.  The broadcast model's latency is load-independent;
the on-demand model's latency explodes past saturation — reproduced by
``benchmarks/bench_ondemand_baseline``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

from ..errors import ExperimentError
from ..geometry import Point
from ..index import brute_force_knn
from ..model import QueryResultEntry


@dataclass(frozen=True, slots=True)
class OnDemandAnswer:
    """One served request: the answer and its timings."""

    results: tuple[QueryResultEntry, ...]
    queued_for: float
    service_time: float

    @property
    def latency(self) -> float:
        return self.queued_for + self.service_time


class OnDemandServer:
    """A central spatial server with ``channels`` concurrent uplinks.

    ``per_result_service_time`` prices one returned POI (I/O +
    transmission) on top of ``fixed_overhead`` (connection set-up); a
    request holds an uplink for its whole service.
    """

    def __init__(
        self,
        pois,
        channels: int = 4,
        per_result_service_time: float = 0.01,
        fixed_overhead: float = 0.05,
    ):
        if channels < 1:
            raise ExperimentError("channels must be >= 1")
        if per_result_service_time <= 0 or fixed_overhead < 0:
            raise ExperimentError("invalid service-time parameters")
        self.pois = tuple(pois)
        self.channels = channels
        self.per_result_service_time = per_result_service_time
        self.fixed_overhead = fixed_overhead
        self.served = 0

    def service_time(self, results: int) -> float:
        """Deterministic channel-holding time of a ``results``-POI answer."""
        return self.fixed_overhead + results * self.per_result_service_time

    def serve(
        self, arrivals: Iterable[tuple[float, Point, int]]
    ) -> list[OnDemandAnswer]:
        """Serve ``(arrival time, query point, k)`` requests, FIFO.

        ``arrivals`` come in non-decreasing time order.  The queue is a
        heap of the times at which each channel next falls free: a
        request starts when it has arrived *and* the earliest channel
        is free, and hands that channel back ``service_time`` later —
        the c-server first-come-first-served discipline, with no event
        loop behind it.  Answers are returned in arrival order.
        """
        free = [0.0] * self.channels
        answers: list[OnDemandAnswer] = []
        last = -math.inf
        for arrived, query, k in arrivals:
            if arrived < last:
                raise ExperimentError(
                    f"arrivals out of order: {arrived} after {last}"
                )
            last = arrived
            results = tuple(brute_force_knn(self.pois, query, k))
            service = self.service_time(len(results))
            start = max(arrived, heapq.heappop(free))
            heapq.heappush(free, start + service)
            answers.append(OnDemandAnswer(results, start - arrived, service))
        self.served += len(answers)
        return answers


def erlang_b(offered_load: float, servers: int) -> float:
    """Erlang B blocking probability via the stable recurrence.

    ``B(0) = 1``, ``B(n) = a·B(n-1) / (n + a·B(n-1))``.  Every term
    stays in ``[0, 1]``, so unlike the textbook ``a^c / c!`` ratio it
    neither overflows nor loses precision for large ``c``.

    Degenerate inputs (negative or non-finite load, ``servers < 1``)
    raise :class:`~repro.errors.ExperimentError`: the serving layer's
    admission control feeds *measured* rates in here, and a silent
    nonsense probability would turn into a silent nonsense shed
    decision.
    """
    if not math.isfinite(offered_load) or offered_load < 0:
        raise ExperimentError(
            f"offered load must be finite and >= 0, got {offered_load}"
        )
    if servers < 1:
        raise ExperimentError(f"servers must be >= 1, got {servers}")
    blocking = 1.0
    for n in range(1, servers + 1):
        blocking = offered_load * blocking / (n + offered_load * blocking)
    return blocking


def mmc_wait_time(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Mean M/M/c waiting time (Erlang C), in the same time unit.

    Raises :class:`~repro.errors.ExperimentError` for degenerate
    inputs (negative/non-finite rates, ``service_rate <= 0``,
    ``servers < 1``) **and** for unstable queues (offered load
    ``a = λ/μ >= c``): there the stationary wait does not exist, and a
    caller measuring live rates — the serving layer's admission
    control — must treat the condition explicitly (shed) rather than
    propagate a meaningless number.  The waiting probability is
    derived from :func:`erlang_b`: computing the ``a^c / c!`` terms
    directly overflows ``float`` near ``c ≈ 170`` even at moderate
    loads.
    """
    if not math.isfinite(arrival_rate) or arrival_rate < 0:
        raise ExperimentError(
            f"arrival rate must be finite and >= 0, got {arrival_rate}"
        )
    if not math.isfinite(service_rate) or service_rate <= 0:
        raise ExperimentError(
            f"service rate must be finite and > 0, got {service_rate}"
        )
    if servers < 1:
        raise ExperimentError(f"servers must be >= 1, got {servers}")
    if arrival_rate == 0:
        return 0.0
    a = arrival_rate / service_rate  # offered load (Erlangs)
    rho = a / servers
    if rho >= 1.0:
        raise ExperimentError(
            f"unstable M/M/c queue: offered load {a:.3g} Erlangs"
            f" >= {servers} server(s) (rho = {rho:.3g})"
        )
    # Erlang C from Erlang B: C = c·B / (c − a·(1 − B)).
    blocking = erlang_b(a, servers)
    p_wait = servers * blocking / (servers - a * (1.0 - blocking))
    return p_wait / (servers * service_rate - arrival_rate)
