"""Per-phase metrics aggregation: events in, :class:`RunReport` out.

Metric definitions (the formulas are normative; docs/OBSERVABILITY.md
restates them with worked examples):

* **vp_work** — sum of :class:`~repro.obs.events.VpScheduled` costs:
  total simulated CPU seconds spent inside VP bodies.
* **bytes_moved** — sum of ``MessageSend.nbytes`` (equal to the
  ``MessageRecv`` sum by construction; the report validates this).
* **messages** — bundled wire messages (sum of
  ``MessageSend.messages``).
* **unbundled_messages** — sum of ``BundleFlushed.remote_elems``: the
  wire messages the same phase would issue with
  ``MachineConfig(bundling=False)`` (one message per deduplicated
  remote element).
* **bundling_ratio** — ``unbundled_messages / messages`` (``None``
  when the phase moved nothing).
* **overlap_fraction** — ``sum(overlapped) / sum(comm)`` over the
  phase's node slices: the fraction of communication time hidden
  under computation.  In ``[0, 1]`` because the runtime never
  overlaps more than the communication it has
  (:func:`repro.core.scheduler.compose_phase_timing`).
* **barrier_skew** — ``max(arrival) - min(arrival)`` over nodes that
  did work in the phase: how unevenly the nodes reached the barrier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import (
    BarrierWait,
    BundleFlushed,
    CheckpointTaken,
    Event,
    FaultInjected,
    MessageRecv,
    MessageSend,
    PhaseBegin,
    PhaseCommit,
    PoolDegraded,
    Recovery,
    RetryAttempt,
    VpScheduled,
    WorkerCrash,
    WorkerRespawn,
    WorkerSpan,
    ZeroMergeCommit,
)


@dataclass(frozen=True)
class ZeroMergeSummary:
    """Run-level aggregates of the zero-merge commit path (present on
    a :class:`RunReport` only when the trace carries
    :class:`~repro.obs.events.ZeroMergeCommit` events, i.e. the run
    used ``executor="process"`` with certified phases committing
    worker-side).

    * **commits** — phase groups committed in place by the workers.
    * **ops** — buffered operations those commits applied.
    * **plan_hits** / **plan_misses** — commit-plan cache outcomes
      (a hit reuses pre-lexsorted index buffers; a miss recompiles).
    * **bytes_avoided** — estimated reply bytes the shipped operation
      streams would have cost.
    """

    commits: int
    ops: int
    plan_hits: int
    plan_misses: int
    bytes_avoided: int

    @property
    def plan_hit_rate(self) -> float:
        """Plan-cache hits over all lookups (0.0 before any commit)."""
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0


@dataclass(frozen=True)
class WorkerUtilization:
    """Host-side utilization of one ``executor="process"`` worker
    (present on a :class:`RunReport` only when the trace carries
    :class:`~repro.obs.events.WorkerSpan` events, i.e. the run used the
    process backend with tracing on).

    * **rounds** — phase rounds the worker serviced.
    * **vps** — VP bodies it advanced across those rounds.
    * **busy_s** — real (host wall-clock) seconds spent inside round
      bodies; unlike every other duration in the report these are not
      simulated.
    * **utilization** — ``busy_s`` over the pool's critical path (the
      sum over rounds of the slowest worker's span): 1.0 means this
      worker was the bottleneck of every round, low values mean it
      mostly waited on its siblings at the round barrier.
    """

    worker: int
    rounds: int
    vps: int
    busy_s: float
    utilization: float


def _worker_table(spans: list[WorkerSpan]) -> tuple[WorkerUtilization, ...]:
    """Aggregate :class:`WorkerSpan` events into per-worker rows.

    Spans arrive round by round, each round in ascending worker order
    (the backend emits them from one loop), so a non-increasing worker
    id marks a round boundary.
    """
    per_worker: dict[int, list] = {}
    critical = 0.0
    round_max = 0.0
    prev_worker = None
    for ev in spans:
        if prev_worker is not None and ev.worker <= prev_worker:
            critical += round_max
            round_max = 0.0
        prev_worker = ev.worker
        round_max = max(round_max, ev.host_s)
        acc = per_worker.setdefault(ev.worker, [0, 0, 0.0])
        acc[0] += 1
        acc[1] += ev.vps
        acc[2] += ev.host_s
    critical += round_max
    return tuple(
        WorkerUtilization(
            worker=w,
            rounds=acc[0],
            vps=acc[1],
            busy_s=acc[2],
            utilization=acc[2] / critical if critical > 0 else 0.0,
        )
        for w, acc in sorted(per_worker.items())
    )


@dataclass(frozen=True)
class ResilienceSummary:
    """Run-level aggregates of the resilience event stream (present on
    a :class:`RunReport` only when the trace contains fault, retry,
    checkpoint or recovery events).

    * **faults** — injected fault occurrences
      (:class:`~repro.obs.events.FaultInjected` count: each dropped or
      corrupted attempt, delay, duplicate and straggler phase).
    * **retries** — bundle re-sends
      (:class:`~repro.obs.events.RetryAttempt` count).
    * **checkpoint_time** / **recovery detection+restore** /
      **lost_work** are the three components of the resilience
      overhead; ``overhead(elapsed)`` relates their sum to the run.
    """

    faults: int
    retries: int
    duplicates: int
    stragglers: int
    checkpoints: int
    checkpoint_bytes: int
    checkpoint_time: float
    recoveries: int
    recovery_time: float
    lost_work: float

    def overhead(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent on checkpoints, recovery
        (detection + restore) and re-executed lost work."""
        if elapsed <= 0:
            return 0.0
        total = self.checkpoint_time + self.recovery_time + self.lost_work
        return total / elapsed


@dataclass(frozen=True)
class SupervisionSummary:
    """Run-level aggregates of the worker-supervision event stream
    (present on a :class:`RunReport` only when the trace carries
    :class:`~repro.obs.events.WorkerCrash`,
    :class:`~repro.obs.events.WorkerRespawn` or
    :class:`~repro.obs.events.PoolDegraded` events, i.e. the run used
    ``run_ppm(..., supervision=...)`` and the supervisor actually
    intervened).

    * **crashes** / **hangs** / **corrupt** — detected worker failures
      by kind (closed pipe, reply-deadline overrun, undeserialisable
      reply).
    * **respawns** — restarts of the run in a fresh pool of the same
      size.
    * **degradations** — restarts in a weaker configuration after an
      exhausted respawn budget.
    * **recovery_host_s** — real (host wall-clock) seconds recovery by
      restart cost (abandoned attempts plus back-off); like
      :class:`WorkerUtilization` durations, not simulated time.
    """

    crashes: int
    hangs: int
    corrupt: int
    respawns: int
    degradations: int
    recovery_host_s: float

    @property
    def failures(self) -> int:
        """All detected worker failures, regardless of kind."""
        return self.crashes + self.hangs + self.corrupt


@dataclass(frozen=True)
class PhaseReport:
    """Aggregated metrics of one committed phase."""

    phase: int
    kind: str
    t_begin: float
    t_end: float
    vp_count: int
    vp_work: float
    compute: float  # critical-path (max-over-nodes) compute seconds
    commit_cpu: float
    comm: float
    overlapped: float
    access_ops: int
    raw_elems: int
    unbundled_messages: int
    messages: int
    bytes_moved: float
    barrier_skew: float
    barrier_cost: float
    collectives: int

    @property
    def duration(self) -> float:
        """Simulated seconds from phase entry to barrier exit."""
        return self.t_end - self.t_begin

    @property
    def overlap_fraction(self) -> float:
        """Fraction of communication hidden under computation."""
        return self.overlapped / self.comm if self.comm > 0 else 0.0

    @property
    def bundling_ratio(self) -> float | None:
        """Unbundled over bundled message count (None without traffic)."""
        if self.messages == 0:
            return None
        return self.unbundled_messages / self.messages


@dataclass(frozen=True)
class RunReport:
    """Run-level metrics report: one :class:`PhaseReport` per
    committed phase plus whole-run aggregates.

    Build with :meth:`from_trace`; render with
    :func:`repro.obs.export.format_report` or ``python -m repro.obs
    report <trace.json>``.
    """

    phases: tuple[PhaseReport, ...]
    resilience: ResilienceSummary | None = None
    """Aggregates of the resilience event stream; None for a run
    without fault injection, checkpointing or recovery."""
    workers: tuple[WorkerUtilization, ...] | None = None
    """Per-worker utilization of the ``executor="process"`` pool
    (aggregated :class:`~repro.obs.events.WorkerSpan` events); None for
    inline runs."""
    zero_merge: ZeroMergeSummary | None = None
    """Aggregates of the zero-merge commit path (aggregated
    :class:`~repro.obs.events.ZeroMergeCommit` events); None when no
    round committed worker-side."""
    supervision: SupervisionSummary | None = None
    """Aggregates of the worker-supervision event stream (crashes,
    respawns, degradations); None when the supervisor never
    intervened."""

    # -- construction --------------------------------------------------
    @classmethod
    def from_events(cls, events: list[Event]) -> "RunReport":
        """Aggregate a flat event list into per-phase reports.

        Only phases with a :class:`PhaseCommit` appear (a run aborted
        mid-phase contributes its completed phases only).

        One rule for every event that announces a re-execution: the
        per-phase state of the phases above its cut is dropped, so a
        row describes the execution that committed.  A
        :class:`Recovery` cuts at its ``checkpoint_phase`` and keeps
        the run-level aggregates (its faults, retries and lost work
        cost simulated time — what was thrown away is
        ``resilience.lost_work``); a supervised restart
        (:class:`WorkerRespawn` / :class:`PoolDegraded`) cuts at -1
        with zeroed clocks, so everything but the supervision counters
        starts over there: a restarted run reports like the fault-free
        run it is.
        """
        begins: dict[int, PhaseBegin] = {}
        commits: dict[int, PhaseCommit] = {}
        acc: dict[int, dict] = {}
        res = {
            "faults": 0,
            "retries": 0,
            "duplicates": 0,
            "stragglers": 0,
            "checkpoints": 0,
            "checkpoint_bytes": 0,
            "checkpoint_time": 0.0,
            "recoveries": 0,
            "recovery_time": 0.0,
            "lost_work": 0.0,
        }
        saw_resilience = False
        spans: list[WorkerSpan] = []
        zm = {"commits": 0, "ops": 0, "plan_hits": 0, "plan_misses": 0,
              "bytes_avoided": 0}
        sup = {"crashes": 0, "hangs": 0, "corrupt": 0, "respawns": 0,
               "degradations": 0, "recovery_host_s": 0.0}
        saw_supervision = False

        def bucket(phase: int) -> dict:
            if phase not in acc:
                acc[phase] = {
                    "vp_count": 0,
                    "vp_work": 0.0,
                    "access_ops": 0,
                    "raw_elems": 0,
                    "unbundled": 0,
                    "sent_msgs": 0,
                    "sent_bytes": 0,
                    "recv_bytes": 0,
                    "barrier_cost": 0.0,
                }
            return acc[phase]

        def forget_above(cut: int) -> None:
            for per_phase in (begins, commits, acc):
                for phase in [p for p in per_phase if p > cut]:
                    del per_phase[phase]

        # One pass, dispatching on the event's exact class (every class
        # in EVENT_TYPES is final), commonest kinds first: a traced
        # sweep holds tens of thousands of events.
        for ev in events:
            tp = type(ev)
            if tp is VpScheduled:
                b = bucket(ev.phase)
                b["vp_count"] += 1
                b["vp_work"] += ev.cost
            elif tp is MessageSend:
                b = bucket(ev.phase)
                b["sent_msgs"] += ev.messages
                b["sent_bytes"] += ev.nbytes
            elif tp is MessageRecv:
                bucket(ev.phase)["recv_bytes"] += ev.nbytes
            elif tp is BundleFlushed:
                b = bucket(ev.phase)
                b["access_ops"] += ev.raw_ops
                b["raw_elems"] += ev.raw_elems
                b["unbundled"] += ev.remote_elems
            elif tp is PhaseBegin:
                begins[ev.phase] = ev
            elif tp is PhaseCommit:
                commits[ev.phase] = ev
            elif tp is BarrierWait:
                bucket(ev.phase)["barrier_cost"] += ev.duration
            elif tp is FaultInjected:
                saw_resilience = True
                res["faults"] += 1
                if ev.fault == "duplicate":
                    res["duplicates"] += 1
                elif ev.fault == "straggler":
                    res["stragglers"] += 1
            elif tp is RetryAttempt:
                saw_resilience = True
                res["retries"] += 1
            elif tp is CheckpointTaken:
                saw_resilience = True
                res["checkpoints"] += 1
                res["checkpoint_bytes"] += ev.nbytes
                res["checkpoint_time"] += ev.duration
            elif tp is Recovery:
                saw_resilience = True
                res["recoveries"] += 1
                res["recovery_time"] += ev.t_resume - ev.t_crash
                res["lost_work"] += ev.lost_work
                forget_above(ev.checkpoint_phase)
            elif tp is WorkerSpan:
                spans.append(ev)
            elif tp is ZeroMergeCommit:
                zm["commits"] += 1
                zm["ops"] += ev.ops
                zm["plan_hits"] += ev.plan_hits
                zm["plan_misses"] += ev.plan_misses
                zm["bytes_avoided"] += ev.bytes_avoided
            elif tp is WorkerCrash:
                saw_supervision = True
                if ev.failure == "hang":
                    sup["hangs"] += 1
                elif ev.failure == "corrupt-reply":
                    sup["corrupt"] += 1
                else:
                    sup["crashes"] += 1
            elif tp is WorkerRespawn or tp is PoolDegraded:
                saw_supervision = True
                if tp is WorkerRespawn:
                    sup["respawns"] += 1
                    sup["recovery_host_s"] += ev.host_s
                else:
                    sup["degradations"] += 1
                # What the abandoned attempt recorded is not part of
                # the run that follows.
                forget_above(-1)
                spans.clear()
                zm = dict.fromkeys(zm, 0)
                res = {k: type(v)() for k, v in res.items()}
                saw_resilience = False

        reports = []
        for phase in sorted(commits):
            commit = commits[phase]
            b = bucket(phase)
            if b["sent_bytes"] != b["recv_bytes"]:
                raise ValueError(
                    f"phase {phase}: trace violates byte conservation "
                    f"(sent {b['sent_bytes']} != received {b['recv_bytes']})"
                )
            # Nodes that did any work this phase; arrivals of idle
            # nodes (zero busy time) would understate the real skew.
            active = [
                ns
                for ns in commit.nodes
                if ns.compute or ns.comm or ns.commit_cpu
            ]
            arrivals = [ns.arrival for ns in (active or commit.nodes)]
            begin = begins.get(phase)
            reports.append(
                PhaseReport(
                    phase=phase,
                    kind=commit.phase_kind,
                    t_begin=begin.t if begin is not None else commit.t,
                    t_end=commit.t_end,
                    vp_count=b["vp_count"],
                    vp_work=b["vp_work"],
                    compute=max((ns.compute for ns in commit.nodes), default=0.0),
                    commit_cpu=sum(ns.commit_cpu for ns in commit.nodes),
                    comm=sum(ns.comm for ns in commit.nodes),
                    overlapped=sum(ns.overlapped for ns in commit.nodes),
                    access_ops=b["access_ops"],
                    raw_elems=b["raw_elems"],
                    unbundled_messages=b["unbundled"],
                    messages=b["sent_msgs"],
                    bytes_moved=float(b["sent_bytes"]),
                    barrier_skew=max(arrivals) - min(arrivals) if arrivals else 0.0,
                    barrier_cost=b["barrier_cost"],
                    collectives=commit.collectives,
                )
            )
        return cls(
            phases=tuple(reports),
            resilience=ResilienceSummary(**res) if saw_resilience else None,
            workers=_worker_table(spans) if spans else None,
            zero_merge=ZeroMergeSummary(**zm) if zm["commits"] else None,
            supervision=SupervisionSummary(**sup) if saw_supervision else None,
        )

    @classmethod
    def from_trace(cls, trace) -> "RunReport":
        """Aggregate a :class:`~repro.obs.events.PhaseTrace`."""
        return cls.from_events(list(trace.events))

    # -- run-level aggregates ------------------------------------------
    @property
    def elapsed(self) -> float:
        """Simulated end time of the last committed phase."""
        return max((p.t_end for p in self.phases), default=0.0)

    @property
    def total_vp_work(self) -> float:
        return sum(p.vp_work for p in self.phases)

    @property
    def total_messages(self) -> int:
        """Bundled wire messages across the run."""
        return sum(p.messages for p in self.phases)

    @property
    def total_bytes(self) -> float:
        return sum(p.bytes_moved for p in self.phases)

    @property
    def access_ops(self) -> int:
        """Fine-grained shared-access calls recorded at commits."""
        return sum(p.access_ops for p in self.phases)

    @property
    def unbundled_messages(self) -> int:
        """Wire messages a bundling-disabled runtime would have paid."""
        return sum(p.unbundled_messages for p in self.phases)

    @property
    def bundling_ratio(self) -> float | None:
        """Run-level unbundled/bundled message ratio."""
        if self.total_messages == 0:
            return None
        return self.unbundled_messages / self.total_messages

    @property
    def overlap_fraction(self) -> float:
        """Comm-weighted overlap fraction across all phases."""
        comm = sum(p.comm for p in self.phases)
        if comm <= 0:
            return 0.0
        return sum(p.overlapped for p in self.phases) / comm

    @property
    def max_barrier_skew(self) -> float:
        return max((p.barrier_skew for p in self.phases), default=0.0)

    def phase(self, index: int) -> PhaseReport:
        """Fetch one phase report by execution index."""
        for p in self.phases:
            if p.phase == index:
                return p
        raise KeyError(f"no committed phase with index {index}")
