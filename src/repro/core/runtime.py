"""The PPM runtime: VP execution engine and commit protocol.

This is the reproduction of the paper's "light-weight runtime library"
(section 3.4).  It owns:

* the execution of ``PPM_do`` — VP generators advanced in lockstep
  phase rounds, with node phases running asynchronously per node and
  global phases synchronising the cluster;
* the snapshot/commit shared-memory protocol (writes buffered during a
  phase, applied in deterministic global-VP-rank order at the barrier);
* cost accounting — per-access software overhead, VP→core loop
  scheduling, commit-time bundling of remote traffic, comm/compute
  overlap and NIC scheduling.

Execution is sequential and fully deterministic; simulated time lives
in the cluster's logical clocks.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.config import MachineConfig
from repro.core.bundling import aggregate_traffic
from repro.core.collectives import CollectiveHandle
from repro.core.constructs import PhaseDecl
from repro.core.errors import (
    ParallelConfigError,
    PhaseUsageError,
    SharedAccessError,
    VpProgramError,
)
from repro.core.phase import CommitPlanCache, PhaseRecorder
from repro.core.scheduler import (
    PhaseTiming,
    compose_phase_timing,
    lpt_core_map,
    node_comm_cost,
    node_compute_time,
    peer_owner_messages,
)
from repro.core.vp import VpContext, core_of
from repro.machine.cluster import Cluster
from repro.machine.network import ZERO_COST
from repro.obs.events import (
    NodeSlice,
    PhaseBegin,
    PhaseCommit,
    SnapshotPruned,
)


class _VpRecord:
    """Engine-side state of one virtual processor."""

    __slots__ = ("ctx", "gen", "decl", "done", "phase_index", "last_cost")

    def __init__(self, ctx: VpContext, gen) -> None:
        self.ctx = ctx
        self.gen = gen
        self.decl: PhaseDecl | None = None
        self.done = False
        self.phase_index = 0  # phases this VP has completed
        self.last_cost = 0.0  # measured cost of the previous phase


@dataclass(frozen=True)
class PhaseProfile:
    """Timing breakdown of one executed phase (one entry per phase in
    :attr:`PpmRuntime.profile`; node phases carry a single node)."""

    index: int
    kind: str
    latency_rounds: int
    t_end: float
    node_timings: dict
    """node id -> :class:`~repro.core.scheduler.PhaseTiming`."""

    @property
    def busiest_node(self) -> int:
        """Node with the largest busy time this phase."""
        return max(self.node_timings, key=lambda n: self.node_timings[n].busy)


@dataclass
class DoStats:
    """Summary of one ``ppm.do`` invocation."""

    vp_count: int
    global_phases: int
    node_phases: int
    t_start: float
    t_end: float

    @property
    def elapsed(self) -> float:
        """Simulated seconds this ``do`` took."""
        return self.t_end - self.t_start


class PpmRuntime:
    """Shared-variable registry plus the phase execution engine.

    There is one engine: VP phase bodies run as loops on a single
    thread (paper section 3.4, "converting VP work into loops"),
    shared-variable accesses record straight into the phase's
    :class:`~repro.core.phase.PhaseRecorder`, and the commit applies
    the buffered writes in global-VP-rank order through the
    :class:`~repro.core.phase.CommitPlanCache`.  ``executor="process"``
    places the same engine on real cores, one VP shard per worker.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        sanitize: str | bool | None = None,
        trace=None,
        resilience=None,
        executor: str = "inline",
        workers: int | None = None,
        zero_merge: bool = True,
        supervision=None,
        supervision_state=None,
        snapshot: str = "full",
    ) -> None:
        if snapshot not in ("full", "pruned"):
            raise ValueError(
                f"snapshot must be 'full' or 'pruned', got {snapshot!r}"
            )
        if executor not in ("inline", "process"):
            raise ParallelConfigError(
                f"executor must be 'inline' or 'process', got {executor!r}",
                code="PPM502",
            )
        if workers is not None:
            if not isinstance(workers, (int, np.integer)) or workers < 1:
                raise ParallelConfigError(
                    f"workers must be a positive integer, got {workers!r}",
                    code="PPM502",
                )
            workers = int(workers)
        if supervision is not None and executor != "process":
            raise ParallelConfigError(
                "supervision= configures worker-process crash recovery "
                "and requires executor='process' (the inline executor "
                "has no workers to supervise)",
                code="PPM602",
            )
        #: Worker supervision policy
        #: (:class:`repro.parallel.supervisor.SupervisionPolicy`), or
        #: None (a worker death is fatal, PPM603).  Process executor
        #: only.
        self.supervision = supervision
        #: Cross-restart supervision counters
        #: (:class:`repro.parallel.supervisor.SupervisionState`);
        #: ``run_ppm``'s degradation loop threads one state object
        #: through pool restarts so the final report covers the whole
        #: run.  None means the backend creates a fresh one.
        self.supervision_state = supervision_state
        #: Execution backend selector: ``"inline"`` (default — phase
        #: bodies run in this process, bitwise-identical to every
        #: release before the backend existed) or ``"process"`` — phase
        #: bodies run on real cores via :mod:`repro.parallel`.
        self.executor = executor
        self.workers = workers
        #: Shared-memory segment registry
        #: (:class:`repro.parallel.shm.ShmRegistry`) backing every
        #: shared variable's committed store under the process
        #: executor; None under the inline executor (private numpy
        #: buffers, the unchanged default).
        self.shm = None
        self._backend = None
        if executor == "process":
            from repro.parallel.shm import ShmRegistry

            self.shm = ShmRegistry()
        self.cluster = cluster
        #: Cross-round commit-plan cache: the commit engine compiles
        #: each target's access pattern (lexsorted index buffers, slice
        #: replays, ufunc.at argument tuples) once and revalidates it
        #: by interned-spec identity every round.
        self.commit_plans = CommitPlanCache()
        #: Zero-merge commit switch (``executor="process"`` only):
        #: rounds whose phases carry a conflict-freedom certificate
        #: commit worker-side, straight into the shared-memory
        #: segments, and reply with a fixed-size digest.  ``False``
        #: forces every round through the record-shipping replay path —
        #: the documented escape hatch, and what the equivalence tests
        #: diff the zero-merge path against.
        self.zero_merge = zero_merge
        #: Observability event bus (:class:`repro.obs.PhaseTrace`), or
        #: None.  Every instrumented site is gated on a single
        #: ``tracer is not None`` test, so the untraced default path
        #: is unchanged; traced runs commit bitwise-identical results.
        self.tracer = trace
        # The network model emits BarrierWait events for the
        # phase-closing synchronisation it prices (docs/OBSERVABILITY.md).
        cluster.network.tracer = trace
        #: Phase-conflict sanitizer (``repro.analysis``), or None.  When
        #: set, every buffered write also records a
        #: :class:`~repro.core.shared.WriteEvent` and each commit is
        #: checked for cross-VP conflicts before writes apply.
        self.sanitizer = None
        #: ``sanitize="auto"``: run in strict mode, but skip the
        #: dynamic check for phases holding a static conflict-freedom
        #: certificate (:mod:`repro.analysis.certify`).  Uncertified
        #: phases still get the full strict check.
        self.sanitize_auto = sanitize == "auto"
        if sanitize not in (None, False):
            if sanitize is True:
                sanitize = "warn"
            from repro.analysis.sanitizer import PhaseSanitizer

            self.sanitizer = PhaseSanitizer(
                mode="strict" if sanitize == "auto" else sanitize
            )
        #: Resilience orchestrator
        #: (:class:`repro.resilience.manager.ResilienceManager`), or
        #: None.  Like the tracer, every hook site is gated on a single
        #: ``resilience is not None`` test and hooks run per *phase*,
        #: never per access, so disabled resilience costs the hot path
        #: nothing.
        self.resilience = resilience
        self.phase: PhaseRecorder | None = None
        self.shared_registry: dict[str, object] = {}
        self.stats_global_phases = 0
        self.stats_node_phases = 0
        #: Phase rounds that ran under a static overlap certificate
        #: (dynamic conflict check skipped, comm certified-overlappable).
        self.stats_certified_phases = 0
        #: Snapshot engine selector: ``"full"`` (default — every commit
        #: with outstanding views pays copy-on-commit) or ``"pruned"``
        #: — commits of arrays the liveness certificate
        #: (:mod:`repro.analysis.liveness`) proved unread before their
        #: next overwrite apply in place, skipping the copy.  Committed
        #: arrays and simulated times are bitwise-identical either way.
        self.snapshot = snapshot
        #: Names of shared variables the active kernel's liveness
        #: certificate allows to commit in place (``snapshot="pruned"``
        #: only; empty otherwise).
        self._prune_names: frozenset = frozenset()
        #: Commits that skipped copy-on-commit under
        #: ``snapshot="pruned"``, and the copy bytes avoided.
        self.stats_pruned_commits = 0
        self.stats_pruned_bytes = 0
        #: Copy-on-commit swaps actually performed: host seconds spent
        #: copying and bytes moved (what pruning removes).
        self.stats_commit_copy_s = 0.0
        self.stats_commit_copy_bytes = 0
        #: Certificate of the kernel currently inside ``do``, or None.
        self._active_cert = None
        #: The VP whose code is executing (None in driver code).
        self.cursor: VpContext | None = None
        # Per-access cost constants, hoisted out of the recording hot
        # path (MachineConfig is frozen, so these cannot go stale).
        cfg = cluster.config
        self._access_call = cfg.ppm_access_call_overhead
        self._access_elem = cfg.ppm_access_per_element
        self._node_access_elem = cfg.ppm_node_access_per_element
        self._flop_time = cfg.flop_time
        self._mem_time = cfg.mem_access_time
        # Cross-phase comm-cost memo: node_comm_cost depends only on a
        # node's peer footprint (elems + itemsize per peer) and the
        # phase's latency rounds, never on node/owner identities, and
        # iterative solvers repeat the same footprints every phase.
        # Bypassed when tracing (per-transfer events must be emitted).
        self._comm_cost_cache: dict = {}
        #: Per-phase timing breakdowns, appended as phases commit.
        self.profile: list[PhaseProfile] = []

    @property
    def config(self) -> MachineConfig:
        return self.cluster.config

    @property
    def diagnostics(self) -> list:
        """Sanitizer findings so far (empty when sanitizing is off)."""
        return [] if self.sanitizer is None else list(self.sanitizer.diagnostics)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def close(self) -> None:
        """Release runtime resources: under the process executor, the
        worker process pool plus every shared-memory segment.
        Idempotent, and reached on *every* ``run_ppm`` exit path
        (success, application crash, ``KeyboardInterrupt``), so no
        worker process or ``/dev/shm`` segment outlives the program.
        Also forgets the shared variables' memoised access records, so
        nothing they hold waits for a garbage collection."""
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()
        if self.shm is not None:
            self.shm.close()
        for shared in self.shared_registry.values():
            shared._drop_caches()

    def __enter__(self) -> "PpmRuntime":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ==================================================================
    # Recording API (called by shared-variable handles and VpContext)
    # ==================================================================
    def _require_phase(self) -> PhaseRecorder:
        if self.phase is None:
            raise SharedAccessError(
                "shared variables cannot be accessed in the VP prologue "
                "(before the first phase declaration)"
            )
        return self.phase

    def record_collective(self, ctx: VpContext, kind: str, value: object, op) -> CollectiveHandle:
        phase = self.phase
        if phase is None:
            phase = self._require_phase()
        # In a global phase the collective spans all contributing VPs
        # cluster-wide; in a node phase it spans the node's VPs only
        # (the recorder of a node phase belongs to a single node, so
        # the same slot machinery scopes it naturally).
        index = ctx._coll_index
        slots = phase.collective_slots
        if index < len(slots):
            slot = slots[index]
            # Identity match is the common case; the full
            # compatibility check handles equal-but-distinct ops.
            if kind != slot.kind or op is not slot.op:
                slot.check_compatible(kind, op)
        else:
            slot = phase.collective_slot(index, kind, op)
        handle = CollectiveHandle(slot.kind)
        slot.entries.append((ctx.global_rank, value, handle))
        ctx._coll_index = index + 1
        # Contribution cost: one runtime-library call.
        ctx._cost += self._access_call
        return handle

    # ==================================================================
    # PPM_do — the engine
    # ==================================================================
    def do(
        self,
        vp_counts: int | Sequence[int],
        func: Callable | Sequence[Callable],
        *args: object,
        phase: str = "global",
        latency_rounds: int = 1,
        **kwargs: object,
    ) -> DoStats:
        """Execute ``PPM_do(K) func(args)``.

        ``vp_counts`` is the VP count per node — a single int (same K
        everywhere) or one int per node.  ``func`` is a PPM function,
        or one per node (the paper: "the PPM function that is invoked
        can be different on different nodes").  ``phase`` and
        ``latency_rounds`` give the implicit single phase of plain
        (non-generator) functions.
        """
        n_nodes = self.cluster.n_nodes
        counts = self._normalize_counts(vp_counts, n_nodes)
        funcs = self._normalize_funcs(func, n_nodes)
        default_decl = PhaseDecl(phase, latency_rounds=latency_rounds)

        # Static overlap certificate for this kernel (repro.analysis):
        # consulted per phase round to skip the dynamic conflict check
        # and to mark the phase's comm certified-overlappable.  Only a
        # single-kernel do can be certified — per-node functions would
        # need one frame check per distinct kernel.
        self._active_cert = None
        if (
            self.sanitize_auto
            or self.config.certified_overlap_fraction is not None
            or self.executor == "process"
            or self.snapshot == "pruned"
        ):
            distinct = {id(f) for f in funcs if f is not None}
            if len(distinct) == 1 and funcs[0] is not None:
                from repro.analysis.certify import certificate_for

                self._active_cert = certificate_for(funcs[0], args, kwargs)
        # Snapshot pruning: arm the in-place commit for the arrays this
        # kernel's liveness certificate proved safe.  Resilience
        # checkpoints and supervised replays both lean on pre-commit
        # copies existing, so either feature disables pruning outright.
        self._prune_names = frozenset()
        if (
            self.snapshot == "pruned"
            and self._active_cert is not None
            and self.resilience is None
            and self.supervision is None
        ):
            self._prune_names = self._active_cert.prunable

        # Process backend, created lazily at the first do (workers fork
        # after driver-level setup, inheriting the shm mappings warm).
        backend = self._backend
        if backend is None and self.executor == "process":
            from repro.parallel.backend import ProcessBackend

            backend = self._backend = ProcessBackend(self)

        vps_by_node: list[list[_VpRecord]] = []
        global_total = sum(counts)
        offset = 0
        for node_id in range(n_nodes):
            k = counts[node_id]
            node_vps: list[_VpRecord] = []
            f = funcs[node_id]
            genfunc = self._as_generator(f, default_decl) if f is not None else None
            for r in range(k):
                ctx = VpContext(
                    self,
                    node_id=node_id,
                    node_rank=r,
                    global_rank=offset + r,
                    node_vp_count=k,
                    global_vp_count=global_total,
                    core_id=core_of(r, k, self.cluster.cores_per_node),
                )
                ctx._coll_index = 0
                # Under the process backend the generators live in the
                # workers; the parent keeps generator-less records for
                # decl/done/cost bookkeeping.
                gen = None if backend is not None else genfunc(ctx, *args, **kwargs)
                node_vps.append(_VpRecord(ctx, gen))
            vps_by_node.append(node_vps)
            offset += k

        t_start = self.cluster.elapsed
        g0, n0 = self.stats_global_phases, self.stats_node_phases

        if backend is not None:
            backend.start_do(counts, funcs, args, kwargs, default_decl, vps_by_node)
        try:
            # Prologue round: run code before the first phase declaration.
            if backend is not None:
                backend.run_prologue(vps_by_node)
            else:
                for node_vps in vps_by_node:
                    for vp in node_vps:
                        self._advance(vp)

            # Phase rounds.
            while True:
                # One pass per node: collect activity and the (required
                # unanimous) declared phase kind together.
                active_nodes: list[int] = []
                node_kind: dict[int, str] = {}
                for node_id, node_vps in enumerate(vps_by_node):
                    kind = None
                    for vp in node_vps:
                        if vp.done:
                            continue
                        k = vp.decl.kind
                        if kind is None:
                            kind = k
                        elif k != kind:
                            kinds = {
                                v.decl.kind for v in node_vps if not v.done
                            }
                            raise PhaseUsageError(
                                f"VPs on node {node_id} declared mixed phase kinds "
                                f"{sorted(kinds)} for the same round; all VPs of a "
                                "node must agree"
                            )
                    if kind is not None:
                        active_nodes.append(node_id)
                        node_kind[node_id] = kind
                if not active_nodes:
                    break
                node_phase_nodes = [n for n in active_nodes if node_kind[n] == "node"]
                if node_phase_nodes:
                    # Nodes in node phases proceed asynchronously; nodes
                    # waiting at a global phase stall until everyone reaches
                    # it (paper section 3.3, synchronous/asynchronous modes).
                    if backend is not None:
                        backend.begin_round("node", node_phase_nodes, vps_by_node)
                    for node_id in node_phase_nodes:
                        self._run_node_phase(node_id, vps_by_node[node_id])
                else:
                    if backend is not None:
                        backend.begin_round("global", active_nodes, vps_by_node)
                    self._run_global_phase(vps_by_node, active_nodes)
        finally:
            if backend is not None:
                backend.end_do()

        return DoStats(
            vp_count=global_total,
            global_phases=self.stats_global_phases - g0,
            node_phases=self.stats_node_phases - n0,
            t_start=t_start,
            t_end=self.cluster.elapsed,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_counts(vp_counts, n_nodes: int) -> list[int]:
        # numpy integers (np.int64 and friends) are scalar VP counts
        # too — they must not fall into the per-node-sequence branch,
        # where they fail with a confusing length error.
        if isinstance(vp_counts, (int, np.integer)):
            vp_counts = int(vp_counts)
            if vp_counts < 0:
                raise ValueError(f"VP count must be non-negative, got {vp_counts}")
            return [vp_counts] * n_nodes
        counts = [int(k) for k in vp_counts]
        if len(counts) != n_nodes:
            raise ValueError(
                f"per-node VP counts must have length {n_nodes}, got {len(counts)}"
            )
        if any(k < 0 for k in counts):
            raise ValueError(f"VP counts must be non-negative, got {counts}")
        return counts

    @staticmethod
    def _normalize_funcs(func, n_nodes: int) -> list[Callable | None]:
        if callable(func):
            return [func] * n_nodes
        funcs = list(func)
        if len(funcs) != n_nodes:
            raise ValueError(
                f"per-node functions must have length {n_nodes}, got {len(funcs)}"
            )
        return funcs

    @staticmethod
    def _as_generator(func: Callable, default_decl: PhaseDecl) -> Callable:
        if inspect.isgeneratorfunction(func):
            return func

        def single_phase(ctx, *args, **kwargs):
            yield default_decl
            result = func(ctx, *args, **kwargs)
            if inspect.isgenerator(result):
                raise PhaseUsageError(
                    f"{getattr(func, '__name__', func)!r} returned a generator: "
                    "it wraps a multi-phase PPM function but is not itself a "
                    "generator function, so its phases would never run.  Use "
                    "functools.partial (or a generator function with "
                    "'yield from') instead of a plain lambda/def wrapper."
                )

        single_phase.__name__ = getattr(func, "__name__", "ppm_function")
        return single_phase

    # ------------------------------------------------------------------
    def _advance(self, vp: _VpRecord) -> None:
        """Resume one VP generator: executes the body of its current
        phase (or the prologue) up to the next phase declaration."""
        if vp.done:
            return
        self.cursor = vp.ctx
        try:
            decl = next(vp.gen)
        except StopIteration:
            vp.done = True
            vp.decl = None
            return
        except Exception as exc:
            raise VpProgramError(
                f"VP code raised {type(exc).__name__}: {exc}",
                node=vp.ctx.node_id,
                vp_rank=vp.ctx.node_rank,
                phase_index=vp.phase_index,
            ) from exc
        finally:
            self.cursor = None
        if not isinstance(decl, PhaseDecl):
            raise PhaseUsageError(
                f"PPM functions must yield phase declarations "
                f"(ctx.global_phase / ctx.node_phase); got {decl!r}"
            )
        vp.decl = decl
        vp.phase_index += 1

    def _execute_phase_bodies(
        self, recorder: PhaseRecorder, vps: list[_VpRecord]
    ) -> None:
        """Run the pending phase body of every listed VP, accumulating
        per-core costs into the recorder."""
        if self._backend is not None:
            # Bodies already ran in the worker processes (begin_round);
            # replay their reports into the recorder in VP order.
            self._backend.fill_recorder(recorder, vps)
            return
        self._assign_cores(vps)
        self.phase = recorder
        try:
            tr = recorder.tracer
            core_costs = recorder.core_costs
            # VPs arrive node-major, so the inner per-core dict is
            # fetched once per node run.  Costs still accumulate one VP
            # at a time — the float summation order is part of the
            # bitwise-identity contract.
            run_node = -1
            inner = None
            for vp in vps:
                if vp.done:
                    continue
                ctx = vp.ctx
                ctx._cost = 0.0
                ctx._coll_index = 0
                self._advance(vp)
                cost = ctx._cost
                if tr is not None:
                    recorder.add_vp_cost(
                        ctx.node_id, ctx.core_id, cost, vp=ctx.global_rank
                    )
                elif cost:
                    if ctx.node_id != run_node:
                        run_node = ctx.node_id
                        inner = core_costs[run_node]
                    core = ctx.core_id
                    inner[core] = inner.get(core, 0.0) + cost
                vp.last_cost = cost
                ctx._cost = 0.0
        finally:
            self.phase = None

    def _assign_cores(self, vps: list[_VpRecord]) -> None:
        """Optionally rebalance the VP->core mapping for this phase.

        With ``config.load_balancing`` the runtime uses each VP's
        measured cost from the previous phase to pack VPs onto cores
        greedily (longest processing time first) — the paper's
        "optimizations such as load balancing" enabled by processor
        virtualisation.  Deterministic: ties break on VP rank and core
        id.  Off by default (static contiguous loop chunks).
        """
        if not self.config.load_balancing:
            return
        cores = self.cluster.cores_per_node
        by_node: dict[int, list[_VpRecord]] = {}
        for vp in vps:
            if not vp.done:
                by_node.setdefault(vp.ctx.node_id, []).append(vp)
        for node_vps in by_node.values():
            assignment = lpt_core_map(
                [(vp.ctx.node_rank, vp.last_cost) for vp in node_vps], cores
            )
            if assignment is None:
                continue  # no history yet: keep the static chunks
            for vp in node_vps:
                vp.ctx.core_id = assignment[vp.ctx.node_rank]

    # ------------------------------------------------------------------
    def _run_global_phase(
        self, vps_by_node: list[list[_VpRecord]], active_nodes: list[int]
    ) -> None:
        latency_rounds = max(
            vp.decl.latency_rounds
            for n in active_nodes
            for vp in vps_by_node[n]
            if not vp.done
        )
        res = self.resilience
        phase_index = self.stats_global_phases + self.stats_node_phases
        if res is not None:
            # May raise NodeCrashFault (before any body runs, so the
            # committed state stays the last phase-boundary cut) or,
            # when recovering with no checkpoint, resume at phase 0 —
            # which re-attaches the tracer, so read it afterwards.
            res.on_phase_start(phase_index, self)
        tr = self.tracer
        recorder = PhaseRecorder(
            "global", latency_rounds, tracer=tr, phase_index=phase_index
        )
        body_vps = [vp for n in active_nodes for vp in vps_by_node[n]]
        # A round is certified when every active VP sits at a yield the
        # static verifier proved conflict-free (checked on the suspended
        # frames *before* the bodies run, i.e. at this phase's decl).
        # Under the process backend the frames live in the workers, so
        # the workers checked their own shards and the backend combined
        # the votes when the round was dispatched.
        if self._backend is not None:
            certified = self._backend.round_certified(None)
        else:
            certified = (
                self._active_cert is not None
                and self._active_cert.round_certified(body_vps, "global")
            )
        if tr is not None:
            tr.phase = phase_index
            tr.emit(
                PhaseBegin(
                    phase=phase_index,
                    phase_kind="global",
                    latency_rounds=latency_rounds,
                    vps=sum(1 for vp in body_vps if not vp.done),
                    nodes=tuple(active_nodes),
                    t=min(self.cluster.node(n).clock.now for n in active_nodes),
                )
            )
        self._execute_phase_bodies(recorder, body_vps)

        # Commit: conflict check (strict mode aborts before any write
        # is visible), then writes in rank order, then collectives.
        # Under the process backend a held round resolves first —
        # zero-merge groups commit worker-side (write_ops stays empty
        # and apply_writes below no-ops), fallback groups ship their
        # operations into the recorder for the unchanged path.
        p0, b0 = self.stats_pruned_commits, self.stats_pruned_bytes
        if self._backend is not None:
            self._backend.finish_commit(recorder, None)
        if self.sanitizer is not None and not (certified and self.sanitize_auto):
            self.sanitizer.check_phase(recorder, phase_index=phase_index)
        if certified:
            self.stats_certified_phases += 1
        recorder.apply_writes(self.commit_plans, prune=self._prune_names)
        if tr is not None and self.stats_pruned_commits > p0:
            tr.emit(
                SnapshotPruned(
                    phase=phase_index,
                    commits=self.stats_pruned_commits - p0,
                    bytes_avoided=self.stats_pruned_bytes - b0,
                )
            )
        n_contrib = recorder.resolve_collectives()
        if self._backend is not None:
            # Ship resolved reduce/scan values back with the next round
            # so worker-held handles resolve before VP code reads them.
            self._backend.harvest_collectives(recorder, None)

        cfg = self.config
        net = self.cluster.network
        traffic = aggregate_traffic(recorder, tracer=tr)

        in_cpu: dict[int, float] = {}
        comm_costs = {}
        total_msgs = 0
        total_bytes = 0
        # Owner-side per-peer message counts repeat across peers with
        # identical element/itemsize footprints (every symmetric stencil
        # exchange); memoise instead of re-deriving a single-peer
        # NodeTraffic cost per peer.
        peer_msg_cache: dict[tuple[int, int, int], int] = {}
        cost_cache = self._comm_cost_cache if tr is None else None
        for node_id, nt in traffic.items():
            if cost_cache is not None:
                ck = (
                    recorder.latency_rounds,
                    tuple(
                        (p.read_elems, p.write_elems, p.shared.itemsize)
                        for p in nt.peers
                    ),
                )
                cost = cost_cache.get(ck)
                if cost is None:
                    cost = node_comm_cost(
                        net, nt, latency_rounds=recorder.latency_rounds
                    )
                    if len(cost_cache) >= 4096:
                        cost_cache.clear()
                    cost_cache[ck] = cost
            else:
                cost = node_comm_cost(
                    net, nt, latency_rounds=recorder.latency_rounds, tracer=tr
                )
            comm_costs[node_id] = cost
            total_msgs += cost.messages
            total_bytes += cost.payload_bytes
            for p in nt.peers:
                elems = p.read_elems + p.write_elems
                if elems == 0:
                    continue
                # Owner-side software: message handling plus applying
                # scattered elements into its partition.
                key = (p.read_elems, p.write_elems, p.shared.itemsize)
                msgs = peer_msg_cache.get(key)
                if msgs is None:
                    msgs = peer_msg_cache[key] = peer_owner_messages(net, p)
                in_cpu[p.owner] = in_cpu.get(p.owner, 0.0) + (
                    msgs * cfg.mpi_msg_overhead
                    + p.write_elems * cfg.ppm_commit_per_element
                )

        penalties = (
            res.message_penalties(phase_index, traffic, net)
            if res is not None
            else None
        )

        # Per-node busy time, then cluster-wide barrier.
        t_end = 0.0
        node_timings = {}
        node_t0 = {}
        for node in self.cluster:
            node_id = node.node_id
            node_t0[node_id] = node.clock.now
            compute = node_compute_time(recorder.core_costs.get(node_id, {}))
            if res is not None:
                compute *= res.straggler_factor(phase_index, node_id, self)
            nt = traffic.get(node_id)
            commit_cpu = recorder.node_write_elems.get(node_id, 0) * cfg.ppm_commit_per_element
            if nt is not None:
                commit_cpu += nt.local_write_elems * cfg.ppm_commit_per_element
            timing = compose_phase_timing(
                cfg,
                net,
                compute=compute,
                commit_cpu=commit_cpu,
                comm_cost=comm_costs.get(node_id, ZERO_COST),
                extra_comm_cpu=in_cpu.get(node_id, 0.0),
                certified=certified,
            )
            if penalties is not None:
                extra = penalties.get(node_id, 0.0)
                if extra:
                    # Retry/backoff time is serialized after the
                    # phase's regular traffic (the loss is only
                    # detected at timeout), so it is unoverlappable
                    # communication time.
                    timing = PhaseTiming(
                        compute=timing.compute,
                        commit_cpu=timing.commit_cpu,
                        comm=timing.comm + extra,
                        overlapped=timing.overlapped,
                    )
            node_timings[node_id] = timing
            t_end = max(t_end, node.clock.now + timing.busy)

        # Phase-closing synchronisation: a phase with collectives fuses
        # the reduction into its barrier tree (one sweep up, one down);
        # otherwise a plain barrier suffices.
        if recorder.collective_slots:
            t_end += net.allreduce_time(self.cluster.n_nodes, cfg.element_bytes)
        else:
            t_end += net.barrier_time(self.cluster.n_nodes)

        for node in self.cluster:
            node.clock.merge(t_end)
            for c in node.core_clocks:
                c.merge(t_end)

        self.stats_global_phases += 1
        self.profile.append(
            PhaseProfile(
                index=self.stats_global_phases + self.stats_node_phases - 1,
                kind="global",
                latency_rounds=recorder.latency_rounds,
                t_end=t_end,
                node_timings=node_timings,
            )
        )
        if tr is not None:
            tr.emit(
                PhaseCommit(
                    phase=phase_index,
                    phase_kind="global",
                    latency_rounds=recorder.latency_rounds,
                    t=min(node_t0.values()),
                    t_end=t_end,
                    messages=total_msgs,
                    nbytes=total_bytes,
                    collectives=n_contrib,
                    nodes=tuple(
                        NodeSlice(
                            node=node_id,
                            t0=node_t0[node_id],
                            compute=tm.compute,
                            commit_cpu=tm.commit_cpu,
                            comm=tm.comm,
                            overlapped=tm.overlapped,
                            arrival=node_t0[node_id] + tm.busy,
                            wait=t_end - (node_t0[node_id] + tm.busy),
                        )
                        for node_id, tm in sorted(node_timings.items())
                    ),
                )
            )
        self.cluster.trace.record(
            "ppm_global_phase",
            -1,
            t_end,
            messages=total_msgs,
            nbytes=total_bytes,
            detail=f"vps={len(body_vps)} collectives={n_contrib}",
        )
        if res is not None:
            # Checkpoint when due (its cost lands between phases), or
            # — while fast-forwarding — resume at the restored cut.
            res.after_commit(phase_index, self)

    # ------------------------------------------------------------------
    def _run_node_phase(self, node_id: int, node_vps: list[_VpRecord]) -> None:
        latency_rounds = max(
            vp.decl.latency_rounds for vp in node_vps if not vp.done
        )
        res = self.resilience
        phase_index = self.stats_global_phases + self.stats_node_phases
        if res is not None:
            res.on_phase_start(phase_index, self)
        tr = self.tracer
        recorder = PhaseRecorder(
            "node", latency_rounds, tracer=tr, phase_index=phase_index
        )
        t0 = self.cluster.node(node_id).clock.now
        if self._backend is not None:
            certified = self._backend.round_certified(node_id)
        else:
            certified = (
                self._active_cert is not None
                and self._active_cert.round_certified(node_vps, "node")
            )
        if tr is not None:
            tr.phase = phase_index
            tr.emit(
                PhaseBegin(
                    phase=phase_index,
                    phase_kind="node",
                    latency_rounds=latency_rounds,
                    vps=sum(1 for vp in node_vps if not vp.done),
                    nodes=(node_id,),
                    t=t0,
                )
            )
        self._execute_phase_bodies(recorder, node_vps)

        p0, b0 = self.stats_pruned_commits, self.stats_pruned_bytes
        if self._backend is not None:
            self._backend.finish_commit(recorder, node_id)
        if self.sanitizer is not None and not (certified and self.sanitize_auto):
            self.sanitizer.check_phase(recorder, phase_index=phase_index)
        if certified:
            self.stats_certified_phases += 1
        recorder.apply_writes(self.commit_plans, prune=self._prune_names)
        if tr is not None and self.stats_pruned_commits > p0:
            tr.emit(
                SnapshotPruned(
                    phase=phase_index,
                    commits=self.stats_pruned_commits - p0,
                    bytes_avoided=self.stats_pruned_bytes - b0,
                )
            )
        n_contrib = recorder.resolve_collectives()
        if self._backend is not None:
            self._backend.harvest_collectives(recorder, node_id)

        cfg = self.config
        net = self.cluster.network
        node = self.cluster.node(node_id)

        # Global-shared *reads* are permitted in node phases; their
        # fetch traffic is charged here (writes were rejected earlier).
        traffic = aggregate_traffic(recorder, tracer=tr)
        nt = traffic.get(node_id)
        if nt is None:
            comm_cost = ZERO_COST
        elif tr is None:
            cost_cache = self._comm_cost_cache
            ck = (
                recorder.latency_rounds,
                tuple(
                    (p.read_elems, p.write_elems, p.shared.itemsize)
                    for p in nt.peers
                ),
            )
            comm_cost = cost_cache.get(ck)
            if comm_cost is None:
                comm_cost = node_comm_cost(
                    net, nt, latency_rounds=recorder.latency_rounds
                )
                if len(cost_cache) >= 4096:
                    cost_cache.clear()
                cost_cache[ck] = comm_cost
        else:
            comm_cost = node_comm_cost(
                net, nt, latency_rounds=recorder.latency_rounds, tracer=tr
            )
        if nt is not None:
            peer_msg_cache: dict[tuple[int, int, int], int] = {}
            for p in nt.peers:
                # Owner-side service cost lands on the owner's clock.
                key = (p.read_elems, p.write_elems, p.shared.itemsize)
                msgs = peer_msg_cache.get(key)
                if msgs is None:
                    msgs = peer_msg_cache[key] = peer_owner_messages(net, p)
                self.cluster.node(p.owner).clock.advance(
                    msgs * cfg.mpi_msg_overhead
                )

        compute = node_compute_time(recorder.core_costs.get(node_id, {}))
        if res is not None:
            compute *= res.straggler_factor(phase_index, node_id, self)
        commit_cpu = recorder.node_write_elems.get(node_id, 0) * cfg.ppm_commit_per_element
        if nt is not None:
            commit_cpu += nt.local_write_elems * cfg.ppm_commit_per_element
        timing = compose_phase_timing(
            cfg,
            net,
            compute=compute,
            commit_cpu=commit_cpu,
            comm_cost=comm_cost,
            certified=certified,
        )
        if res is not None:
            penalties = res.message_penalties(phase_index, traffic, net)
            extra = penalties.get(node_id, 0.0) if penalties else 0.0
            if extra:
                timing = PhaseTiming(
                    compute=timing.compute,
                    commit_cpu=timing.commit_cpu,
                    comm=timing.comm + extra,
                    overlapped=timing.overlapped,
                )
        # Node-level synchronisation: a reduction tree over the node's
        # cores when the phase carried collectives, a plain barrier
        # otherwise.
        if recorder.collective_slots:
            sync = net.allreduce_time(
                self.cluster.cores_per_node, cfg.element_bytes, intra_node=True
            )
        else:
            sync = net.barrier_time(self.cluster.cores_per_node, intra_node=True)
        node.clock.advance(timing.busy + sync)
        for c in node.core_clocks:
            c.merge(node.clock.now)

        self.stats_node_phases += 1
        self.profile.append(
            PhaseProfile(
                index=self.stats_global_phases + self.stats_node_phases - 1,
                kind="node",
                latency_rounds=recorder.latency_rounds,
                t_end=node.clock.now,
                node_timings={node_id: timing},
            )
        )
        if tr is not None:
            tr.emit(
                PhaseCommit(
                    phase=phase_index,
                    phase_kind="node",
                    latency_rounds=recorder.latency_rounds,
                    t=t0,
                    t_end=node.clock.now,
                    messages=comm_cost.messages,
                    nbytes=comm_cost.payload_bytes,
                    collectives=n_contrib,
                    nodes=(
                        NodeSlice(
                            node=node_id,
                            t0=t0,
                            compute=timing.compute,
                            commit_cpu=timing.commit_cpu,
                            comm=timing.comm,
                            overlapped=timing.overlapped,
                            arrival=t0 + timing.busy,
                            wait=node.clock.now - (t0 + timing.busy),
                        ),
                    ),
                )
            )
        self.cluster.trace.record(
            "ppm_node_phase",
            node_id,
            node.clock.now,
            messages=comm_cost.messages,
            nbytes=comm_cost.payload_bytes,
        )
        if res is not None:
            res.after_commit(phase_index, self)
