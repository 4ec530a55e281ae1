"""The seeded fault source: one :class:`ChannelModel` per simulation.

Every stochastic decision of the fault layer — message loss, churn,
response delay, bucket corruption — is drawn from the model's own RNG,
seeded by :attr:`FaultConfig.seed`.  Two models built from the same
config produce identical decision streams, and a simulation without a
model never touches this module, which is what makes the fault layer
bit-transparent when disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import FaultError
from .config import FaultConfig


@dataclass(frozen=True, slots=True)
class P2PFaultStats:
    """What the fault layer did to one query's share exchange.

    ``drops`` counts lost messages and churned peers, ``retries`` the
    extra request broadcasts, ``deadline_misses`` the responses that
    arrived past the deadline, and ``extra_latency`` the seconds the
    retry rounds (backoff plus round trip) added to the query.
    """

    drops: int = 0
    retries: int = 0
    deadline_misses: int = 0
    extra_latency: float = 0.0


class ChannelModel:
    """Seeded per-link fault decisions for one simulated world."""

    def __init__(self, config: FaultConfig, tx_range: float):
        if tx_range <= 0:
            raise FaultError(f"tx_range must be positive, got {tx_range}")
        self.config = config
        self.tx_range = tx_range
        self.rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    # Peer-to-peer faults
    # ------------------------------------------------------------------
    def link_loss_probability(self, distance: float) -> float:
        """Loss probability of one message over a link of ``distance``.

        Distance weighting uses ``2 p (d / R)^2`` clipped to 1: the
        expectation over a uniform disc of radius ``R`` is exactly
        ``p`` (E[d^2/R^2] = 1/2), so the knob reshapes who loses
        packets without changing how many are lost overall.
        """
        p = self.config.loss_rate
        if self.config.distance_weighted and p > 0.0:
            frac = min(abs(distance), self.tx_range) / self.tx_range
            p = min(1.0, 2.0 * p * frac * frac)
        return p

    def link_lost(self, distance: float) -> bool:
        """Draw one message-loss decision for a link."""
        p = self.link_loss_probability(distance)
        return p > 0.0 and float(self.rng.random()) < p

    def peer_departed(self) -> bool:
        """Draw one churn decision: has this peer silently left?"""
        p = self.config.churn_rate
        return p > 0.0 and float(self.rng.random()) < p

    def response_arrival(self, issued_at: float) -> float:
        """Sampled arrival time of a response to a request at ``issued_at``.

        The delay is exponential with mean ``delay_scale``; callers
        compare the arrival against the request's deadline.  Only
        meaningful — and only drawn — when a deadline is configured:
        a draw on the no-deadline path would silently shift every
        later fault decision, so the contract is enforced here rather
        than trusted to each call site.
        """
        if not self.has_deadline:
            raise FaultError(
                "response_arrival drawn without a configured deadline"
            )
        return issued_at + float(self.rng.exponential(self.config.delay_scale))

    @property
    def has_deadline(self) -> bool:
        """True when responses can miss a configured deadline."""
        return math.isfinite(self.config.peer_timeout)

    def backoff_delay(self, attempt: int) -> float:
        """Exponential-backoff wait before retry ``attempt`` (1-based).

        The doubling is capped: by ``max_backoff`` when set, else by
        ``peer_timeout`` when a deadline is configured — waiting longer
        than the deadline the retry is racing can only stall the query.
        """
        if attempt < 1:
            raise FaultError(f"attempt must be >= 1, got {attempt}")
        delay = self.config.backoff * (2.0 ** (attempt - 1))
        ceiling = self.config.max_backoff
        if ceiling is None and self.has_deadline:
            ceiling = self.config.peer_timeout
        if ceiling is not None:
            delay = min(delay, ceiling)
        return delay

    # ------------------------------------------------------------------
    # Broadcast faults
    # ------------------------------------------------------------------
    def split_received(
        self, bucket_ids: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Partition a bucket download into ``(received, lost)``."""
        p = self.config.effective_bucket_loss_rate
        if p <= 0.0 or not bucket_ids:
            return list(bucket_ids), []
        received: list[int] = []
        lost: list[int] = []
        for bucket_id in bucket_ids:
            if float(self.rng.random()) < p:
                lost.append(bucket_id)
            else:
                received.append(bucket_id)
        return received, lost
