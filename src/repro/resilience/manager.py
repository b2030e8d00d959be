"""The runtime-facing resilience orchestrator.

:class:`ResilienceManager` is the single object the PPM engine talks
to; every hook is gated in :mod:`repro.core.runtime` behind one
``self.resilience is not None`` pointer test, mirroring the tracer
pattern, so disabled resilience costs the hot path nothing.

Recovery model (docs/RESILIENCE.md walks through an example):

* An injected crash raises :class:`~repro.core.errors.NodeCrashFault`
  at a phase *start* — before any body runs and before any write of
  that phase applies — so the state recovery sees is exactly the last
  phase-boundary cut.
* ``run_ppm``'s re-execution loop catches the fault and runs the
  driver again (a new *incarnation*).  VP locals live in generator
  frames and cannot be serialized, so the simulator reaches the cut —
  arrays included, bit for bit — by deterministic re-execution: during
  this *fast-forward* the tracer is detached and crash injection and
  checkpointing are suppressed — the replayed phases are a simulator
  artifact, not simulated work.
* At the resume point (the commit of the checkpointed phase, or phase
  0's start when no checkpoint exists) the manager rewinds the machine
  trace to where the crash left it, sets every clock to ``t_crash +
  detection_timeout + restore_time`` — the cost a real system would
  pay — re-attaches the tracer and emits
  :class:`~repro.obs.events.Recovery`.  Execution continues live; the
  phases between the checkpoint and the crash re-run live (that
  re-execution is the *lost work* a rollback really costs, and it
  stays counted).

Fired crashes are consumed, so replay cannot re-crash and the loop
terminates (bounded by ``max_incarnations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import (
    NodeCrashFault,
    ParallelConfigError,
    ResilienceConfigError,
    ResilienceError,
)
from repro.obs.events import Recovery
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector, FaultPlan


@dataclass(frozen=True)
class ResiliencePolicy:
    """The run's failure policy (``run_ppm(..., resilience=)``): what
    goes wrong and what recovering costs.  Kept out of the frozen
    :class:`~repro.config.MachineConfig`: these parameterize the
    recovery protocol, not the machine.

    A policy is a value — one used twice gives two identical runs (the
    state a run consumes lives on its manager and supervision state).
    Under ``executor="process"`` a policy also supervises the worker
    pool: a crashed, hung or corrupted worker restarts the run
    (docs/PARALLEL.md); without one a worker death is fatal (PPM603).
    """

    faults: FaultPlan | None = None
    """The seeded fault schedule: simulated node crashes and, under
    ``executor="process"``, real worker kills."""

    checkpoint_every: int | None = None
    """Phases between coordinated checkpoints (``None``: none, a crash restarts)."""

    checkpoint_alpha: float = 100.0e-6
    """Fixed simulated seconds per coordinated checkpoint."""

    checkpoint_bandwidth: float = 2.0e9
    """Per-node checkpoint drain rate in bytes/second."""

    detection_timeout: float = 1.0e-3
    """Simulated seconds between a crash and its cluster-wide
    detection (heartbeat timeout)."""

    restore_alpha: float = 100.0e-6
    """Fixed simulated seconds to launch the restore (or the restart,
    when no checkpoint exists)."""

    restore_bandwidth: float = 2.0e9
    """Per-node checkpoint read-back rate in bytes/second."""

    max_incarnations: int = 8
    """Upper bound on driver re-executions before the run aborts."""

    max_respawns: int = 8
    """Worker-pool restarts at one pool size before :attr:`degrade`
    applies."""

    deadline_base: float = 60.0
    deadline_per_vp: float = 0.05
    """``deadline_base + deadline_per_vp * shard_vps`` host seconds
    bound each worker's reply per round; generous, so hang detection
    never misfires on a loaded host."""

    degrade: str = "shrink"
    """When the respawn budget is spent: ``"shrink"`` (one process
    fewer), ``"inline"`` (the inline engine) or ``"error"`` (PPM604)."""

    def __post_init__(self) -> None:
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ResilienceConfigError(
                f"faults must be a FaultPlan or None, got {self.faults!r}",
                code="PPM303",
            )
        every = self.checkpoint_every
        if every is not None and (
            not isinstance(every, int) or isinstance(every, bool) or every < 1
        ):
            raise ResilienceConfigError(
                f"checkpoint_every must be an int >= 1, got {every!r}",
                code="PPM303",
            )
        for name in ("checkpoint_alpha", "detection_timeout", "restore_alpha"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ResilienceConfigError(
                    f"{name} must be non-negative and finite, got {v}",
                    code="PPM303",
                )
        for name in ("checkpoint_bandwidth", "restore_bandwidth"):
            v = getattr(self, name)
            if not v > 0:
                raise ResilienceConfigError(
                    f"{name} must be positive, got {v}", code="PPM303"
                )
        if self.max_incarnations < 1:
            raise ResilienceConfigError(
                f"max_incarnations must be >= 1, got {self.max_incarnations}",
                code="PPM303",
            )
        if self.max_respawns < 0:
            raise ParallelConfigError(
                f"max_respawns must be >= 0, got {self.max_respawns}",
                code="PPM601",
            )
        for name in ("deadline_base", "deadline_per_vp"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0 and name == "deadline_base" or v < 0:
                raise ParallelConfigError(
                    f"{name} must be positive and finite, got {v}",
                    code="PPM601",
                )
        if self.degrade not in ("shrink", "inline", "error"):
            raise ParallelConfigError(
                "degrade must be 'shrink', 'inline' or 'error', got "
                f"{self.degrade!r}",
                code="PPM601",
            )

    def round_deadline(self, shard_vps: int) -> float:
        """Reply deadline (host seconds) for a shard of ``shard_vps``."""
        return self.deadline_base + self.deadline_per_vp * shard_vps


class ResilienceManager:
    """Orchestrates crash injection, checkpointing and crash recovery
    for one ``run_ppm`` attempt (across incarnations)."""

    def __init__(
        self,
        cluster,
        policy: ResiliencePolicy,
        *,
        tracer=None,
        supervision=None,
    ) -> None:
        if not isinstance(policy, ResiliencePolicy):
            raise ResilienceConfigError(
                f"resilience must be a ResiliencePolicy or None, got {policy!r}",
                code="PPM303",
            )
        plan = policy.faults
        if supervision is None and plan is not None and plan.kills:
            raise ParallelConfigError(
                "FaultPlan.kill_worker signals worker processes and requires "
                "executor='process' (the inline executor has no workers to kill)",
                code="PPM602",
            )
        self.cluster = cluster
        self.policy = policy
        self.injector = (
            FaultInjector(plan, cluster.n_nodes) if plan is not None else None
        )
        #: The run's worker supervisor
        #: (:class:`~repro.parallel.supervisor.SupervisionState`), shared
        #: by every attempt's manager; None unless the run started
        #: under ``executor="process"`` (so a run that degraded to the
        #: inline engine keeps it, and its kill rules are no PPM602).
        self.supervision = supervision
        self.checkpoints = (
            CheckpointManager(
                self.policy.checkpoint_every,
                alpha=self.policy.checkpoint_alpha,
                bytes_per_second=self.policy.checkpoint_bandwidth,
            )
            if self.policy.checkpoint_every is not None
            else None
        )
        #: The run's PhaseTrace (or None), kept here so it can be
        #: detached during fast-forward and re-attached at resume.
        self.tracer = tracer
        # -- replay state ---------------------------------------------
        self.replaying = False
        self._resume_phase = -1
        self._resume_time = 0.0
        self._trace_mark: tuple = ()
        self._pending: Recovery | None = None  # emitted at resume
        # -- counters -------------------------------------------------
        self.recoveries = 0
        self.incarnations = 0

    # ==================================================================
    # Incarnation lifecycle (called by run_ppm)
    # ==================================================================
    def begin_incarnation(self, runtime) -> None:
        """Attach to a freshly built runtime; when recovering, detach
        the tracer for the fast-forward below the restored cut."""
        self.incarnations += 1
        if self.replaying:
            runtime.tracer = None
            runtime.cluster.network.tracer = None

    def handle_crash(self, crash: NodeCrashFault) -> None:
        """Plan the recovery: pick the rollback cut, price detection
        plus restore, and mark the machine trace so the fast-forward
        can be taken out of it again."""
        if self.incarnations == self.policy.max_incarnations:
            raise ResilienceError(
                f"run did not complete within {self.incarnations} "
                "incarnations (more planned crashes than max_incarnations "
                "allows?)"
            )
        cluster = self.cluster
        t_crash = cluster.elapsed
        ckpt = self.checkpoints.latest if self.checkpoints is not None else None
        pol = self.policy
        if ckpt is not None:
            restore = pol.restore_alpha + ckpt.nbytes / (
                cluster.n_nodes * pol.restore_bandwidth
            )
            lost_work = t_crash - ckpt.t
            self._resume_phase = ckpt.phase
        else:
            restore = pol.restore_alpha
            lost_work = t_crash
            self._resume_phase = -1
        self._resume_time = t_crash + pol.detection_timeout + restore
        self._pending = Recovery(
            phase=crash.phase_index,
            node=crash.node,
            checkpoint_phase=self._resume_phase,
            t_crash=t_crash,
            t_resume=self._resume_time,
            lost_work=lost_work,
        )
        self._trace_mark = cluster.trace.mark()
        self.replaying = True

    # ==================================================================
    # Phase hooks (called by the engine; one pointer test each when
    # resilience is off)
    # ==================================================================
    def on_phase_start(self, phase_index: int, runtime) -> None:
        """Crash check (live) or phase-0 resume (recovering with no
        checkpoint).  Raises :class:`NodeCrashFault` on a planned,
        unfired crash."""
        if self.replaying:
            if self._resume_phase < 0 and phase_index == 0:
                self._resume(runtime)
            return
        if self.injector is not None:
            crash = self.injector.crash_at(phase_index)
            if crash is not None:
                self.injector.consume(crash)
                raise NodeCrashFault(node=crash.node, phase_index=phase_index)

    def after_commit(self, phase_index: int, runtime) -> None:
        """Checkpoint when due (live); resume when the fast-forward
        reaches the restored cut (recovering)."""
        if self.replaying:
            if phase_index == self._resume_phase:
                self._resume(runtime)
            return
        if self.checkpoints is not None and self.checkpoints.due(phase_index):
            self.checkpoints.take(phase_index, runtime)

    # ------------------------------------------------------------------
    def _resume(self, runtime) -> None:
        """The fast-forward reached the restored cut, its arrays
        recomputed: forget the replay's machine-trace records, set the
        clocks to the post-recovery time, re-attach the tracer and go
        live."""
        runtime.cluster.trace.rewind(self._trace_mark)
        t = self._resume_time
        for node in runtime.cluster:
            node.clock.reset(to=t)
            for c in node.core_clocks:
                c.reset(to=t)
        self.replaying = False
        runtime.tracer = self.tracer
        runtime.cluster.network.tracer = self.tracer
        self.recoveries += 1
        if self.tracer is not None:
            self.tracer.emit(self._pending)
