"""Machine-level traffic counters.

Benchmarks and EXPERIMENTS.md report not just times but *why* — message
counts and bytes moved — which is how we check that e.g. the MPI
Barnes-Hut baseline really ships whole trees while PPM ships only the
touched records.  :class:`Trace` is the cluster's always-on tally: per
kind of traffic ("msg", "alltoall", "ppm_global_phase",
"ppm_node_phase") it sums messages and payload bytes, and keeps no
per-event record.  Events — typed and per phase, for reports and
timeline export — live in the opt-in
:class:`~repro.obs.events.PhaseTrace` (``run_ppm(..., trace=...)``).
"""

from __future__ import annotations

from collections import Counter


class Trace:
    """Per-kind message and byte counters."""

    __slots__ = ("_messages", "_bytes")

    def __init__(self) -> None:
        self._messages: Counter = Counter()
        self._bytes: Counter = Counter()

    def record(self, kind: str, *, messages: int = 0, nbytes: int = 0) -> None:
        """Add ``messages`` and ``nbytes`` to ``kind``'s counters."""
        self._messages[kind] += messages
        self._bytes[kind] += nbytes

    def total_messages(self, kind: str | None = None) -> int:
        """Total messages recorded, optionally for one kind."""
        if kind is None:
            return sum(self._messages.values())
        return self._messages[kind]

    def total_bytes(self, kind: str | None = None) -> int:
        """Total payload bytes recorded, optionally for one kind."""
        if kind is None:
            return sum(self._bytes.values())
        return self._bytes[kind]

    def mark(self) -> tuple:
        """The counters' current values, for :meth:`rewind`."""
        return dict(self._messages), dict(self._bytes)

    def rewind(self, mark: tuple) -> None:
        """Forget everything recorded since ``mark`` was taken (a
        restarted run abandons the traffic of the failed attempt)."""
        messages, nbytes = mark
        self._messages = Counter(messages)
        self._bytes = Counter(nbytes)
