"""Retrying message delivery: timeout, exponential backoff, sequence
numbers.

The PPM runtime's commit-time traffic is bundled per (node, owner)
pair (:mod:`repro.core.bundling`).  The resilience layer treats each
such directed exchange as one *flight* and, when the fault injector
fails it, charges the realistic simulated cost of recovering it:

* a failed attempt costs its timeout (exponential backoff, capped) —
  the sender only learns of the loss when the ack timer fires —
  plus the wire time of the re-send;
* an injected delay adds straight wire latency;
* a duplicated delivery costs the receiver one message-handling
  overhead and is otherwise dropped — the cost model assumes a
  per-sender sequence-number window at the receiver, which the
  simulator (it moves no payload bytes between nodes) need not run.

Retry costs only ever add *time*; payloads are never mutated (a
corrupt flight is detected by checksum and retransmitted), so faults
cannot change committed values — see docs/RESILIENCE.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.errors import ResilienceConfigError
from repro.resilience.faults import FaultVerdict


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff schedule of the reliable delivery layer.

    ``timeout`` is the ack timeout of the first re-send; attempt ``k``
    waits ``timeout * backoff_factor**(k-1)``, capped at
    ``max_backoff``.  ``max_retries`` bounds the re-sends per flight
    before the simulated transport escalates (the flight then goes
    through regardless, keeping delivery total).
    """

    timeout: float = 50.0e-6
    backoff_factor: float = 2.0
    max_backoff: float = 1.0e-3
    max_retries: int = 16

    def __post_init__(self) -> None:
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise ResilienceConfigError(
                f"retry timeout must be positive and finite, got {self.timeout}",
                code="PPM304",
            )
        if not math.isfinite(self.backoff_factor) or self.backoff_factor < 1.0:
            raise ResilienceConfigError(
                f"backoff factor must be >= 1 and finite, got {self.backoff_factor}",
                code="PPM304",
            )
        if not math.isfinite(self.max_backoff) or self.max_backoff < self.timeout:
            raise ResilienceConfigError(
                f"max_backoff must be >= timeout, got {self.max_backoff}",
                code="PPM304",
            )
        if self.max_retries < 1:
            raise ResilienceConfigError(
                f"max_retries must be >= 1, got {self.max_retries}",
                code="PPM304",
            )

    def backoff(self, attempt: int) -> float:
        """Timeout before re-send ``attempt`` (1-based)."""
        return min(
            self.timeout * self.backoff_factor ** (attempt - 1), self.max_backoff
        )


@dataclass
class DeliveryOutcome:
    """Simulated result of delivering one flight under faults."""

    attempts: int = 1
    """Total send attempts (1 = delivered first try)."""

    extra_time: float = 0.0
    """Simulated seconds added on top of the fault-free flight cost."""

    duplicates: int = 0
    """Redundant deliveries suppressed by sequence numbers."""

    retries: list = field(default_factory=list)
    """``(attempt, reason, backoff)`` per re-send, for event emission."""


def deliver_flight(
    policy: RetryPolicy,
    verdict: FaultVerdict,
    *,
    resend_wire_time: float,
    duplicate_cpu_time: float,
) -> DeliveryOutcome:
    """Charge one flight's faults against the retry policy.

    ``resend_wire_time`` is the wire cost of retransmitting the
    flight's bundle; ``duplicate_cpu_time`` the receiver-side handling
    cost of one redundant delivery.  Pure: same inputs, same outcome.
    """
    out = DeliveryOutcome()
    if verdict.clean:
        return out
    for i, reason in enumerate(verdict.failures):
        attempt = i + 1
        if attempt > policy.max_retries:
            # Transport escalation: the link is reset and the flight
            # forced through; stop charging backoff.
            break
        wait = policy.backoff(attempt)
        out.extra_time += wait + resend_wire_time
        out.attempts += 1
        out.retries.append((attempt, reason, wait))
    if verdict.delay:
        out.extra_time += verdict.delay
    if verdict.duplicate:
        out.duplicates = 1
        out.extra_time += duplicate_cpu_time
    return out
