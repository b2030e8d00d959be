"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a declarative description of everything that
goes wrong during a run; a :class:`FaultInjector` answers the
runtime's point queries against it.  Crashes are *consumed*: a node
crash fires at most once, because the replay that recovery triggers
passes the same phase index again and must not re-crash, so fired
crashes are recorded on the injector.

A plan is a value: what a run consumes lives in that run's state (the
injector for crashes, the run's
:class:`~repro.parallel.supervisor.SupervisionState` for worker
kills), so one plan drives any number of identical runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.errors import ParallelConfigError, ResilienceConfigError


def _is_index(v, least: int = 0) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


@dataclass(frozen=True)
class NodeCrash:
    """Crash ``node`` when the cluster reaches phase ``phase``."""

    node: int
    phase: int


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

        plan = FaultPlan(seed=7).crash(node=1, phase=9).crash(node=0, phase=20)

    Validation happens eagerly (``PPM302``/``PPM601`` diagnostics);
    node ids are range-checked against the cluster when the plan is
    bound to a run.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.crashes: list[NodeCrash] = []
        self.kills: list[WorkerKill] = []

    # -- node-level faults ---------------------------------------------
    def crash(self, *, node: int, phase: int) -> "FaultPlan":
        """Crash ``node`` when execution reaches phase ``phase``."""
        for what, v in (("node", node), ("phase", phase)):
            if not _is_index(v):
                raise ResilienceConfigError(
                    f"crash {what} must be a non-negative int, got {v!r}",
                    code="PPM302",
                )
        self.crashes.append(NodeCrash(node=node, phase=phase))
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
        rounds = tuple(rounds)
        if (
            (every is None) == (not rounds)
            or every is not None and not _is_index(every, 1)
            or not all(_is_index(r) for r in rounds)
            or worker is not None and not _is_index(worker)
            or signal not in ("kill", "stop")
            or window not in ("round", "commit")
        ):
            raise ParallelConfigError(
                "kill_worker needs one trigger (an int every=K >= 1 or "
                "rounds=(i, ...) of ints >= 0), worker None or an int >= 0, "
                "signal 'kill' or 'stop' and window 'round' or 'commit'; got "
                f"every={every!r}, rounds={rounds!r}, worker={worker!r}, "
                f"signal={signal!r}, window={window!r}",
                code="PPM601",
            )
        self.kills.append(WorkerKill(every, rounds, worker, signal, window))
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
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, crashes={len(self.crashes)}, "
            f"kills={len(self.kills)})"
        )


class FaultInjector:
    """Answers runtime point queries against a :class:`FaultPlan`.

    Bound to a cluster size at construction so planned node ids are
    range-checked up front (``PPM302``).
    """

    def __init__(self, plan: FaultPlan, n_nodes: int) -> None:
        for crash in plan.crashes:
            if crash.node >= n_nodes:
                raise ResilienceConfigError(
                    f"crash targets node {crash.node} but the cluster has "
                    f"{n_nodes} nodes",
                    code="PPM302",
                )
        self.plan = plan
        self._fired_crashes: set[NodeCrash] = set()

    def crash_at(self, phase: int) -> NodeCrash | None:
        """The planned, not-yet-fired crash for this phase (or None)."""
        for crash in self.plan.crashes:
            if crash.phase == phase and crash not in self._fired_crashes:
                return crash
        return None

    def consume(self, crash: NodeCrash) -> None:
        """Mark a crash as fired so recovery's replay cannot re-crash."""
        self._fired_crashes.add(crash)
