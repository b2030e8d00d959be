"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a declarative description of everything that
goes wrong during a run; a :class:`FaultInjector` answers the
runtime's point queries against it.  Two design rules keep injection
compatible with the simulator's determinism and with crash recovery:

1. **Hash-derived randomness.**  Message-fault decisions draw from a
   PRNG seeded by ``(seed, phase, src, dst, attempt)`` rather than a
   stateful stream, so the verdict for a given flight is a pure
   function of its coordinates.  Replaying a phase after recovery
   re-derives exactly the same drops — no hidden RNG state to
   checkpoint.
2. **Crashes are consumed.**  A node crash fires at most once; the
   replay that recovery triggers passes the same phase index again and
   must not re-crash, so fired crashes are recorded on the injector.

A plan is a value: what a run consumes lives in that run's state (the
injector for crashes, the run's
:class:`~repro.parallel.supervisor.SupervisionState` for worker
kills), so one plan drives any number of identical runs.

Message faults never mutate payloads.  A *corrupt* verdict models a
checksum failure detected by the receiver (the bundle is retransmitted,
like a drop but with the receiver having paid to receive the garbage);
*drop* models a lost bundle detected by timeout; *delay* adds wire
latency; *duplicate* delivers twice — the sequence numbers of
:mod:`repro.resilience.retry` make the second copy a no-op.  Injected
faults therefore cost simulated time but can never change committed
values, which is one half of the recovery-equivalence property
(docs/RESILIENCE.md has the argument; the other half is the
phase-boundary checkpoint cut).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from repro.core.errors import ParallelConfigError, ResilienceConfigError


def _check_prob(p: float, what: str) -> float:
    p = float(p)
    if not 0.0 <= p < 1.0 or not math.isfinite(p):
        raise ResilienceConfigError(
            f"{what} probability must be in [0, 1), got {p}", code="PPM301"
        )
    return p


def _check_node(node: int, what: str) -> int:
    if not isinstance(node, int) or isinstance(node, bool) or node < 0:
        raise ResilienceConfigError(
            f"{what} node must be a non-negative int, got {node!r}",
            code="PPM302",
        )
    return node


def _check_phase(phase: int, what: str) -> int:
    if not isinstance(phase, int) or isinstance(phase, bool) or phase < 0:
        raise ResilienceConfigError(
            f"{what} phase must be a non-negative int, got {phase!r}",
            code="PPM302",
        )
    return phase


@dataclass(frozen=True)
class MessageFaults:
    """Per-flight fault probabilities for matching (phase, src, dst)
    flights.  ``phases``/``src``/``dst`` of ``None`` match anything."""

    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 0.0
    phases: tuple[int, ...] | None = None
    src: int | None = None
    dst: int | None = None

    def matches(self, phase: int, src: int, dst: int) -> bool:
        if self.phases is not None and phase not in self.phases:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class NodeCrash:
    """Crash ``node`` when the cluster reaches phase ``phase``."""

    node: int
    phase: int


@dataclass(frozen=True)
class Straggler:
    """Inflate ``node``'s per-phase compute time by ``factor`` (for
    the listed phases, or every phase when ``phases`` is None)."""

    node: int
    factor: float
    phases: tuple[int, ...] | None = None

    def matches(self, phase: int, node: int) -> bool:
        if self.node != node:
            return False
        return self.phases is None or phase in self.phases


@dataclass(frozen=True)
class WorkerKill:
    """Signal a live forked worker at chosen dispatches of ``window``
    (see :meth:`FaultPlan.kill_worker`)."""

    every: int | None
    rounds: tuple[int, ...]
    worker: int | None
    signal: str
    window: str


class FaultPlan:
    """Builder for a seeded fault schedule.

    Methods chain::

        plan = (
            FaultPlan(seed=7)
            .drop_messages(0.05)
            .crash(node=1, phase=9)
            .straggle(node=0, factor=3.0, phases=range(4, 8))
        )

    Validation happens eagerly (``PPM301``/``PPM302``/``PPM305``/
    ``PPM601`` diagnostics); node ids are range-checked against the
    cluster when the plan is bound to a run.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.message_faults: list[MessageFaults] = []
        self.crashes: list[NodeCrash] = []
        self.stragglers: list[Straggler] = []
        self.kills: list[WorkerKill] = []

    # -- message-layer faults ------------------------------------------
    def drop_messages(
        self, probability: float, *, phases=None, src=None, dst=None
    ) -> "FaultPlan":
        """Drop each matching bundle flight with ``probability``."""
        return self._add_message_fault(
            drop=probability, phases=phases, src=src, dst=dst
        )

    def corrupt_messages(
        self, probability: float, *, phases=None, src=None, dst=None
    ) -> "FaultPlan":
        """Corrupt (checksum-fail, forcing retransmit) matching flights."""
        return self._add_message_fault(
            corrupt=probability, phases=phases, src=src, dst=dst
        )

    def duplicate_messages(
        self, probability: float, *, phases=None, src=None, dst=None
    ) -> "FaultPlan":
        """Deliver matching flights twice (deduplicated by receiver)."""
        return self._add_message_fault(
            duplicate=probability, phases=phases, src=src, dst=dst
        )

    def delay_messages(
        self, probability: float, seconds: float, *, phases=None, src=None, dst=None
    ) -> "FaultPlan":
        """Add ``seconds`` of wire latency to matching flights."""
        if not math.isfinite(seconds) or seconds < 0:
            raise ResilienceConfigError(
                f"delay seconds must be non-negative and finite, got {seconds}",
                code="PPM301",
            )
        return self._add_message_fault(
            delay=probability,
            delay_seconds=float(seconds),
            phases=phases,
            src=src,
            dst=dst,
        )

    def _add_message_fault(
        self,
        *,
        drop=0.0,
        corrupt=0.0,
        duplicate=0.0,
        delay=0.0,
        delay_seconds=0.0,
        phases=None,
        src=None,
        dst=None,
    ) -> "FaultPlan":
        if phases is not None:
            phases = tuple(_check_phase(p, "message fault") for p in phases)
        if src is not None:
            src = _check_node(src, "message fault src")
        if dst is not None:
            dst = _check_node(dst, "message fault dst")
        self.message_faults.append(
            MessageFaults(
                drop=_check_prob(drop, "drop"),
                corrupt=_check_prob(corrupt, "corrupt"),
                duplicate=_check_prob(duplicate, "duplicate"),
                delay=_check_prob(delay, "delay"),
                delay_seconds=delay_seconds,
                phases=phases,
                src=src,
                dst=dst,
            )
        )
        return self

    # -- node-level faults ---------------------------------------------
    def crash(self, *, node: int, phase: int) -> "FaultPlan":
        """Crash ``node`` when execution reaches phase ``phase``."""
        self.crashes.append(
            NodeCrash(
                node=_check_node(node, "crash"),
                phase=_check_phase(phase, "crash"),
            )
        )
        return self

    def straggle(self, *, node: int, factor: float, phases=None) -> "FaultPlan":
        """Slow ``node``'s compute by ``factor`` (>= 1) for the given
        phases (every phase when omitted)."""
        factor = float(factor)
        if not math.isfinite(factor) or factor < 1.0:
            raise ResilienceConfigError(
                f"straggler factor must be >= 1 and finite, got {factor}",
                code="PPM305",
            )
        if phases is not None:
            phases = tuple(_check_phase(p, "straggler") for p in phases)
        self.stragglers.append(
            Straggler(node=_check_node(node, "straggler"), factor=factor, phases=phases)
        )
        return self

    # -- real-process faults ------------------------------------------
    def kill_worker(
        self, *, every=None, rounds=(), worker=None, signal="kill", window="round"
    ) -> "FaultPlan":
        """SIGKILL (``signal="kill"``: a crash) or SIGSTOP (``"stop"``:
        a hang past the round deadline) a live forked worker under
        ``executor="process"`` — never the parent.

        ``every=k`` fires on every k-th dispatch of ``window``
        (1-based: dispatches k-1, 2k-1, ...), ``rounds`` on the listed
        0-based dispatches; ``window="round"`` counts phase-round
        dispatches, ``"commit"`` zero-merge commit dispatches.
        Dispatches are counted across pool restarts, so ``rounds=(i,
        j)`` kills at most twice per run while ``every=k`` recurs
        faster than any run longer than ``k`` dispatches and ends in
        degradation.  ``worker`` fixes the victim (the k-th forked
        worker); None draws it from ``(seed, dispatch)``.
        """
        if (
            (every is None) == (not rounds)
            or every is not None and every < 1
            or signal not in ("kill", "stop")
            or window not in ("round", "commit")
        ):
            raise ParallelConfigError(
                "kill_worker needs one trigger (every=K >= 1 or rounds=(i, ...)), "
                "signal 'kill' or 'stop' and window 'round' or 'commit'; got "
                f"every={every!r}, rounds={rounds!r}, signal={signal!r}, "
                f"window={window!r}",
                code="PPM601",
            )
        self.kills.append(WorkerKill(every, tuple(rounds), worker, signal, window))
        return self

    def kill_at(self, window: str, i: int, n_workers: int) -> tuple[int, str] | None:
        """``(victim, signal)`` for dispatch ``i`` of ``window`` among
        ``n_workers`` forked workers, or None.  Pure in its arguments."""
        for k in self.kills:
            fires = i in k.rounds if k.every is None else (i + 1) % k.every == 0
            if k.window == window and fires:
                if k.worker is not None:
                    return k.worker % n_workers, k.signal
                digest = hashlib.blake2b(
                    f"{self.seed}:{i}".encode(), digest_size=8
                ).digest()
                return int.from_bytes(digest, "big") % n_workers, k.signal
        return None

    # ------------------------------------------------------------------
    @property
    def has_message_faults(self) -> bool:
        return bool(self.message_faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, message_faults={len(self.message_faults)}, "
            f"crashes={len(self.crashes)}, stragglers={len(self.stragglers)}, "
            f"kills={len(self.kills)})"
        )


class FaultVerdict:
    """Outcome of one flight query (see :meth:`FaultInjector.flight`)."""

    __slots__ = ("failures", "delay", "duplicate")

    def __init__(self, failures: list[str], delay: float, duplicate: bool) -> None:
        #: Reasons ("drop" / "corrupt") for each failed attempt, in
        #: order; the attempt after the last failure succeeds.
        self.failures = failures
        #: Extra wire latency injected on the successful attempt.
        self.delay = delay
        #: The successful attempt was delivered twice.
        self.duplicate = duplicate

    @property
    def clean(self) -> bool:
        return not self.failures and not self.delay and not self.duplicate


_CLEAN = FaultVerdict([], 0.0, False)


class FaultInjector:
    """Answers runtime point queries against a :class:`FaultPlan`.

    Bound to a cluster size at construction so planned node ids are
    range-checked up front (``PPM302``).
    """

    def __init__(self, plan: FaultPlan, n_nodes: int, *, max_attempts: int = 64) -> None:
        for crash in plan.crashes:
            if crash.node >= n_nodes:
                raise ResilienceConfigError(
                    f"crash targets node {crash.node} but the cluster has "
                    f"{n_nodes} nodes",
                    code="PPM302",
                )
        for s in plan.stragglers:
            if s.node >= n_nodes:
                raise ResilienceConfigError(
                    f"straggler targets node {s.node} but the cluster has "
                    f"{n_nodes} nodes",
                    code="PPM302",
                )
        self.plan = plan
        self.n_nodes = n_nodes
        #: Hard cap on attempts per flight: at this point the simulated
        #: transport escalates (link reset) and the flight goes through,
        #: keeping every delivery total and the simulation finite.
        self.max_attempts = max_attempts
        self._fired_crashes: set[NodeCrash] = set()

    # ------------------------------------------------------------------
    def _rng(self, phase: int, src: int, dst: int, salt: int) -> random.Random:
        # String seeds hash via SHA-512 (stable across platforms and
        # processes, unlike tuple hashing which is not supported and
        # object hashing which is salted), so a flight's verdict is a
        # pure, reproducible function of its coordinates.
        return random.Random(f"{self.plan.seed}:{phase}:{src}:{dst}:{salt}")

    def crash_at(self, phase: int) -> NodeCrash | None:
        """The planned, not-yet-fired crash for this phase (or None)."""
        for crash in self.plan.crashes:
            if crash.phase == phase and crash not in self._fired_crashes:
                return crash
        return None

    def consume(self, crash: NodeCrash) -> None:
        """Mark a crash as fired so recovery's replay cannot re-crash."""
        self._fired_crashes.add(crash)

    def straggler_factor(self, phase: int, node: int) -> float:
        """Compute-time inflation for ``node`` in ``phase`` (1.0 = none)."""
        factor = 1.0
        for s in self.plan.stragglers:
            if s.matches(phase, node):
                factor *= s.factor
        return factor

    def flight(self, phase: int, src: int, dst: int) -> FaultVerdict:
        """Fault verdict for the bundle flight ``src -> dst`` in
        ``phase``: which attempts fail (and why), injected delay, and
        duplication of the delivered copy.  Pure in its arguments."""
        rules = [
            f for f in self.plan.message_faults if f.matches(phase, src, dst)
        ]
        if not rules:
            return _CLEAN
        failures: list[str] = []
        for attempt in range(self.max_attempts - 1):
            rng = self._rng(phase, src, dst, attempt)
            reason = None
            for f in rules:
                roll = rng.random()
                if roll < f.drop:
                    reason = "drop"
                    break
                if roll < f.drop + f.corrupt:
                    reason = "corrupt"
                    break
            if reason is None:
                break
            failures.append(reason)
        rng = self._rng(phase, src, dst, -1)
        delay = 0.0
        duplicate = False
        for f in rules:
            if f.delay and rng.random() < f.delay:
                delay += f.delay_seconds
            if f.duplicate and rng.random() < f.duplicate:
                duplicate = True
        if not failures and not delay and not duplicate:
            return _CLEAN
        return FaultVerdict(failures, delay, duplicate)
