"""Machine-level aggregate tracing, built on the observability bus.

Benchmarks and EXPERIMENTS.md report not just times but *why* — message
counts, bytes moved, phase counts — which is how we check that e.g. the
MPI Barnes-Hut baseline really ships whole trees while PPM ships only
the touched records.  :class:`Trace` is the cluster's always-available
coarse log: one :class:`TraceEvent` per runtime-level occurrence, plus
per-kind message/byte counters that keep accumulating even when event
storage is disabled for large sweeps.

Since the observability layer (:mod:`repro.obs`) landed, ``Trace`` is a
thin specialisation of :class:`repro.obs.events.EventBus` — the same
append/subscribe substrate that powers the structured
:class:`~repro.obs.events.PhaseTrace`.  The difference is granularity:
``Trace`` carries untyped per-kind aggregates for benchmark bookkeeping,
while ``PhaseTrace`` (attached per run via ``run_ppm(..., trace=...)``)
records typed, per-phase events for reports and timeline export.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.obs.events import EventBus


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``kind`` is a short category string ("msg", "phase", "collective",
    "bundle", ...); ``who`` identifies the actor (node or rank id);
    ``t`` is the simulated completion time; ``messages``/``nbytes``
    carry communication volume; ``detail`` is free-form.
    """

    kind: str
    who: int
    t: float
    messages: int = 0
    nbytes: int = 0
    detail: str = ""


class Trace(EventBus):
    """Append-only event log with aggregate counters.

    ``enabled=False`` suppresses event storage (the list would grow
    unboundedly over a sweep) while the per-kind counters keep
    accumulating, so ``total_messages``/``total_bytes`` statistics stay
    available either way.
    """

    __slots__ = ("enabled", "_messages", "_bytes")

    def __init__(self, enabled: bool = True) -> None:
        super().__init__()
        self.enabled = enabled
        self._messages: Counter = Counter()
        self._bytes: Counter = Counter()

    def record(
        self,
        kind: str,
        who: int,
        t: float,
        *,
        messages: int = 0,
        nbytes: int = 0,
        detail: str = "",
    ) -> None:
        """Record one event (no event is stored when disabled, but
        counters still accumulate so statistics stay available)."""
        self._messages[kind] += messages
        self._bytes[kind] += nbytes
        if self.enabled:
            self.emit(
                TraceEvent(kind=kind, who=who, t=t, messages=messages, nbytes=nbytes, detail=detail)
            )

    # -- statistics ----------------------------------------------------
    def total_messages(self, kind: str | None = None) -> int:
        """Total messages recorded, optionally for one event kind."""
        if kind is None:
            return sum(self._messages.values())
        return self._messages[kind]

    def total_bytes(self, kind: str | None = None) -> int:
        """Total payload bytes recorded, optionally for one kind."""
        if kind is None:
            return sum(self._bytes.values())
        return self._bytes[kind]

    def by_kind(self, kind: str) -> Iterator[TraceEvent]:
        """Iterate events of one kind (requires ``enabled``)."""
        return (e for e in self.events if e.kind == kind)

    def clear(self) -> None:
        """Drop all events and counters."""
        super().clear()
        self._messages.clear()
        self._bytes.clear()

    def mark(self) -> tuple:
        """The log's current extent, for :meth:`rewind`."""
        return len(self.events), dict(self._messages), dict(self._bytes)

    def rewind(self, mark: tuple) -> None:
        """Forget everything recorded since ``mark`` was taken (a
        restarted run abandons the traffic of the failed attempt)."""
        n_events, messages, nbytes = mark
        del self.events[n_events:]
        self._messages = Counter(messages)
        self._bytes = Counter(nbytes)
