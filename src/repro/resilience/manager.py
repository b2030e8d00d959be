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
  this *fast-forward* the tracer is detached and fault injection,
  checkpointing and retry charging are suppressed — the replayed
  phases are a simulator artifact, not simulated work.
* At the resume point (the commit of the checkpointed phase, or phase
  0's start when no checkpoint exists) the manager rewinds the machine
  trace to where the crash left it, sets every clock to ``t_crash +
  detection_timeout + restore_time`` — the cost a real system would
  pay — re-attaches the tracer and emits
  :class:`~repro.obs.events.Recovery`.  Execution continues live; the
  phases between the checkpoint and the crash re-run with faults
  active (that re-execution is the *lost work* a rollback really
  costs, and it stays counted).

Fired crashes are consumed, so replay cannot re-crash and the loop
terminates (bounded by ``max_incarnations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.errors import (
    NodeCrashFault,
    ResilienceConfigError,
    ResilienceError,
)
from repro.obs.events import FaultInjected, Recovery, RetryAttempt
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy, deliver_flight


@dataclass(frozen=True)
class ResiliencePolicy:
    """Cost knobs of the resilience machinery (``run_ppm(...,
    resilience=)``).  Kept out of the frozen
    :class:`~repro.config.MachineConfig`: these parameterize the
    recovery protocol, not the machine."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    """Timeout/backoff schedule for dropped or corrupted bundles."""

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

    def __post_init__(self) -> None:
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


class ResilienceManager:
    """Orchestrates fault injection, retry charging, checkpointing and
    crash recovery for one ``run_ppm`` call (across incarnations)."""

    def __init__(
        self,
        cluster,
        *,
        plan: FaultPlan | None = None,
        checkpoint_every: int | None = None,
        policy: ResiliencePolicy | None = None,
        tracer=None,
    ) -> None:
        if policy is not None and not isinstance(policy, ResiliencePolicy):
            raise ValueError(
                f"resilience must be a ResiliencePolicy or None, got {policy!r}"
            )
        self.cluster = cluster
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.injector = (
            FaultInjector(plan, cluster.n_nodes) if plan is not None else None
        )
        self.checkpoints = (
            CheckpointManager(
                checkpoint_every,
                alpha=self.policy.checkpoint_alpha,
                bytes_per_second=self.policy.checkpoint_bandwidth,
            )
            if checkpoint_every is not None
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
        self.retries = 0
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

    def straggler_factor(self, phase_index: int, node_id: int, runtime) -> float:
        """Compute-time inflation of ``node_id`` this phase (1.0 when
        clean, recovering, or no plan)."""
        if self.replaying or self.injector is None:
            return 1.0
        factor = self.injector.straggler_factor(phase_index, node_id)
        if factor != 1.0:
            tr = runtime.tracer
            if tr is not None:
                tr.emit(
                    FaultInjected(
                        phase=phase_index,
                        fault="straggler",
                        node=node_id,
                        src=-1,
                        dst=-1,
                        detail=factor,
                    )
                )
        return factor

    def message_penalties(self, phase_index: int, traffic, network) -> dict | None:
        """Per-node simulated seconds added by message faults on this
        phase's bundled flights (None when nothing fired).

        Each (node, owner) exchange of the phase is one *flight*; its
        fault verdict is a pure function of (seed, phase, src, dst),
        and all recovery cost — backoff waits, retransmit wire time,
        duplicate handling — is charged to the initiating node's
        communication time, serialized after the phase's regular
        traffic (retries cannot start before the loss is detected).
        """
        if self.replaying or self.injector is None:
            return None
        if not self.injector.plan.has_message_faults:
            return None
        cfg = network.config
        retry = self.policy.retry
        dup_cpu = cfg.mpi_msg_overhead
        penalties: dict[int, float] = {}
        tr = self.tracer
        for node_id, nt in sorted(traffic.items()):
            total = 0.0
            for p in nt.peers:
                if p.read_elems + p.write_elems == 0:
                    continue
                verdict = self.injector.flight(phase_index, node_id, p.owner)
                if verdict.clean:
                    continue
                payload = (p.read_elems + p.write_elems) * p.shared.itemsize
                resend_bytes = min(payload, cfg.bundle_max_bytes)
                outcome = deliver_flight(
                    retry,
                    verdict,
                    resend_wire_time=network.message_time(
                        resend_bytes, intra_node=False
                    ),
                    duplicate_cpu_time=dup_cpu,
                )
                total += outcome.extra_time
                self.retries += len(outcome.retries)
                if tr is not None:
                    self._trace_flight(
                        phase_index, node_id, p.owner, verdict, outcome
                    )
            if total:
                penalties[node_id] = total
        return penalties or None

    def _trace_flight(self, phase, src, dst, verdict, outcome) -> None:
        """Emit one faulted flight's events: its charged failures, the
        re-sends, then an injected delay and a duplicate."""
        emit = self.tracer.emit

        def injected(fault: str, detail: float = 0.0) -> None:
            emit(
                FaultInjected(
                    phase=phase, fault=fault, node=-1, src=src, dst=dst,
                    detail=detail,
                )
            )

        for reason in verdict.failures[: self.policy.retry.max_retries]:
            injected(reason)
        for attempt, reason, wait in outcome.retries:
            emit(
                RetryAttempt(
                    phase=phase,
                    src=src,
                    dst=dst,
                    attempt=attempt,
                    reason=reason,
                    backoff=wait,
                    delivered=attempt == len(outcome.retries),
                )
            )
        if verdict.delay:
            injected("delay", verdict.delay)
        if verdict.duplicate:
            injected("duplicate")

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
