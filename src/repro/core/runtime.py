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
from repro.core.phase import CommitPlanCache, PhasePlan, PhaseRecorder
from repro.core.scheduler import (
    compose_phase_timing,
    lpt_core_map,
    node_comm_cost,
    node_compute_time,
    peer_owner_messages,
    wire_events,
)
from repro.core.vp import VpContext, core_of
from repro.machine.cluster import Cluster
from repro.machine.network import ZERO_COST
from repro.obs.events import NodeSlice, PhaseBegin, PhaseCommit


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


@dataclass(slots=True)
class _PhaseCosts:
    """The timing half of a :class:`~repro.core.phase.PhasePlan`: what
    a phase shape's traffic costs, as the inspector round computed it
    (:meth:`PpmRuntime._phase_costs`).  Scalars and small per-node
    maps; no row spec, no index array."""

    traffic: dict  # bundling.PhaseTraffic: node id -> NodeTraffic
    comm: dict  # node id -> BundleCost of the node's bundles
    owner_cpu: list  # (owner, seconds) per peer entry, in peer order
    in_cpu: dict  # owner -> the same seconds, summed in that order
    commit_cpu: dict  # node id -> seconds applying committed elements
    messages: int
    nbytes: int
    #: :func:`~repro.core.scheduler.wire_events` of ``traffic``, derived
    #: by the first *traced* round (fast-forward inspects untraced).
    wire: list | None = None


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
    places the same engine on real cores, one VP shard per process —
    this one runs the lowest-rank shard itself.
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
    ) -> None:
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
        #: replays, ufunc.at argument tuples) once; phase plans refer
        #: to the compiled plans by serial.
        self.commit_plans = CommitPlanCache()
        #: Phase plans of the running ``do``, keyed by access signature
        #: (:meth:`PhaseRecorder.signature`): the first round of each
        #: phase shape inspects (bundling, communication costs, commit
        #: recipe), every repeat executes the stored result.  Emptied
        #: when the ``do`` ends and at :meth:`close`.
        self._phase_plans: dict[tuple, PhasePlan] = {}
        #: Phase rounds that found / did not find their shape's plan.
        self.stats_phase_plan_hits = 0
        self.stats_phase_plan_misses = 0
        # node id -> [kind, latency rounds] its VPs declared next (do).
        self._pending: dict[int, list] = {}
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
        #: nothing.  Under the process executor its ``supervision``
        #: state makes the worker pool supervised.
        self.resilience = resilience
        self.phase: PhaseRecorder | None = None
        self.shared_registry: dict[str, object] = {}
        self.stats_global_phases = 0
        self.stats_node_phases = 0
        #: Phase rounds that ran under a static overlap certificate
        #: (under ``sanitize="auto"`` the dynamic conflict check is skipped).
        self.stats_certified_phases = 0
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
        Also forgets the phase plans, the commit plans (their hit/miss
        counters stay) and the shared variables' memoised access
        records, so nothing they hold waits for a garbage collection."""
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()
        if self.shm is not None:
            self.shm.close()
        self._phase_plans.clear()
        self.commit_plans.clear()
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

        # Static overlap certificate for this kernel: consulted per
        # phase round to skip the dynamic conflict check and, under the
        # process backend, to commit in place.
        self._active_cert = None
        if self.sanitize_auto or self.executor == "process":
            self._active_cert = self._kernel_certificate(funcs, args, kwargs)

        # Process backend, created lazily at the first do (workers fork
        # after driver-level setup, inheriting the shm mappings warm).
        backend = self._backend
        if backend is None and self.executor == "process":
            from repro.parallel.backend import ProcessBackend

            backend = self._backend = ProcessBackend(self)

        # Under the process backend the parent runs shard 0 — the
        # lowest ranks — itself; the other VPs' generators live in the
        # workers, and the parent keeps generator-less records for
        # decl/done/cost bookkeeping.
        global_total = sum(counts)
        own = global_total if backend is None else global_total // backend.n_workers
        vps_by_node = self._vp_records(counts, funcs, default_decl, args, kwargs, (0, own))

        t_start = self.cluster.elapsed
        g0, n0 = self.stats_global_phases, self.stats_node_phases

        # node id -> [kind, latency rounds] of the phase its active VPs
        # declared next ("mixed" when they disagree on the kind).  The
        # stepping loop refreshes a node's entry as it advances the
        # node's VPs; a node with no entry has finished.
        pending = self._pending = {}
        self._phase_plans.clear()
        if backend is not None:
            # The workers build their shards and run them to their
            # first declaration inside this command.
            backend.start_do(counts, funcs, args, kwargs, default_decl, vps_by_node)
        try:
            # Prologue: run code before the first phase declaration
            # (the parent's shard here, while the workers run theirs).
            self._run_prologues(vps_by_node)
            if backend is not None:
                ranked = [vp for node_vps in vps_by_node for vp in node_vps]
                for grank, done, decl, _cost in backend.gather_start():
                    self._replay_step(ranked[grank], done, decl)
            for node_id, node_vps in enumerate(vps_by_node):
                for vp in node_vps:
                    if vp.decl is not None:
                        self._fold_decl(pending, node_id, vp.decl)

            # Phase rounds.
            while pending:
                active_nodes = sorted(pending)
                for node_id in active_nodes:
                    if pending[node_id][0] == "mixed":
                        raise PhaseUsageError(
                            f"VPs on node {node_id} declared mixed phase kinds "
                            "['global', 'node'] for the same round; all VPs of a "
                            "node must agree"
                        )
                # Nodes in node phases proceed asynchronously; nodes
                # waiting at a global phase stall until everyone reaches
                # it (paper section 3.3, synchronous/asynchronous modes).
                node_phase = [n for n in active_nodes if pending[n][0] == "node"]
                kind, nodes = (
                    ("node", node_phase) if node_phase else ("global", active_nodes)
                )
                if self.config.load_balancing:
                    # The parent owns the LPT packing; begin_round ships
                    # the resulting map to the workers.
                    self._assign_cores([vp for n in nodes for vp in vps_by_node[n]])
                if backend is not None:
                    backend.begin_round(kind, nodes, vps_by_node)
                if kind == "node":
                    for node_id in nodes:
                        self._run_phase("node", [node_id], vps_by_node)
                else:
                    self._run_phase("global", nodes, vps_by_node)
        finally:
            self._phase_plans.clear()
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
    def _kernel_certificate(funcs, args, kwargs):
        """The static overlap certificate (:mod:`repro.analysis`) of a
        single-kernel do, or None: per-node functions would need one
        frame check per distinct kernel.  A pure function of the source
        and the argument classification, so a worker rebuilding it from
        its own unpickled kernel gets the parent's answer."""
        distinct = {id(f) for f in funcs if f is not None}
        if len(distinct) != 1 or funcs[0] is None:
            return None
        from repro.analysis.certify import certificate_for

        return certificate_for(funcs[0], args, kwargs)

    def _vp_records(self, counts, funcs, default_decl, args, kwargs, shard) -> list:
        """Every VP's record, by node, with a running generator for the
        global ranks in ``shard`` (``(lo, hi)``) only."""
        total = sum(counts)
        lo, hi = shard
        vps_by_node: list[list[_VpRecord]] = []
        offset = 0
        for node_id, k in enumerate(counts):
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
                    global_vp_count=total,
                    core_id=core_of(r, k, self.cluster.cores_per_node),
                )
                ctx._coll_index = 0
                gen = genfunc(ctx, *args, **kwargs) if lo <= offset + r < hi else None
                node_vps.append(_VpRecord(ctx, gen))
            vps_by_node.append(node_vps)
            offset += k
        return vps_by_node

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

    def _run_prologues(self, vps_by_node: list) -> None:
        """Run every VP this process steps (those with a generator) up
        to its first phase declaration."""
        for node_vps in vps_by_node:
            for vp in node_vps:
                if vp.gen is not None:
                    self._advance(vp)

    @staticmethod
    def _replay_step(vp: _VpRecord, done: bool, decl: PhaseDecl | None) -> None:
        """What :meth:`_advance` does to a record, for a VP another
        process stepped and shipped as ``(done, next declaration)``."""
        vp.done = done
        vp.decl = decl
        if not done:
            vp.phase_index += 1

    @staticmethod
    def _fold_decl(pending: dict, node_id: int, decl: PhaseDecl) -> None:
        """Fold one VP's next phase declaration into its node's entry."""
        entry = pending.get(node_id)
        if entry is None:
            pending[node_id] = [decl.kind, decl.latency_rounds]
            return
        if decl.kind != entry[0]:
            entry[0] = "mixed"
        if decl.latency_rounds > entry[1]:
            entry[1] = decl.latency_rounds

    def _execute_phase_bodies(
        self, recorder: PhaseRecorder, nodes: list[int], vps_by_node: list
    ) -> tuple:
        """Run the pending phase body of every VP of ``nodes``,
        accumulating per-core costs and each node's access run into the
        recorder and folding the VPs' next declarations into
        ``self._pending`` — the one loop that visits every VP, and so
        where a traced run reports each resume (``VpScheduled``, one
        log entry per round).

        Returns this process's vote on the round, ``(certified,
        zero_merge)`` (:meth:`KernelCertificate.round_flags
        <repro.analysis.certify.KernelCertificate.round_flags>`), read
        off the suspended frames of the VPs it steps *before* any body
        runs; ``(None, None)`` — an abstention — when none is active.

        Every process of ``executor="process"`` runs its shard through
        this loop.  A worker passes only its own VPs.  The parent steps
        the lowest ranks while the workers run theirs (``begin_round``
        sent the round); at the first VP it does not own, the workers'
        reports fill the recorder after its records, and it replays
        their VPs' costs and declarations."""
        backend = self._backend
        by_rank = None
        cert = self._active_cert
        vote = (False, False) if cert is None else cert.round_flags(
            [vp for n in nodes for vp in vps_by_node[n] if vp.gen is not None],
            recorder.kind,
        )
        if backend is not None:
            node_key = None if recorder.kind == "global" else nodes[0]
            backend.start_shard(nodes)
        tr = self.tracer
        rows = []  # a traced round's flat node, core, vp, cost rows
        self.phase = recorder
        try:
            core_costs = recorder.core_costs
            pending = self._pending
            fold = self._fold_decl
            # Costs accumulate one VP at a time — the float summation
            # order is part of the bitwise-identity contract.
            for node_id in nodes:
                inner = core_costs[node_id]
                seen = None
                for vp in vps_by_node[node_id]:
                    if vp.done:
                        continue
                    ctx = vp.ctx
                    if vp.gen is not None:
                        ctx._cost = 0.0
                        ctx._coll_index = 0
                        self._advance(vp)
                        cost = ctx._cost
                        ctx._cost = 0.0
                    else:
                        if by_rank is None:
                            by_rank = backend.fill_recorder(recorder, node_key)
                        done, decl, cost = by_rank[ctx.global_rank]
                        self._replay_step(vp, done, decl)
                    if tr is not None:
                        rows += (node_id, ctx.core_id, ctx.global_rank, cost)
                    if cost:
                        core = ctx.core_id
                        inner[core] = inner.get(core, 0.0) + cost
                    vp.last_cost = cost
                    decl = vp.decl
                    if decl is not seen:
                        seen = decl
                        if decl is not None:
                            fold(pending, node_id, decl)
                if by_rank is None:
                    recorder.close_run(node_id)
            for log in recorder.logs.values():
                log.seal()
            if backend is not None and by_rank is None:
                backend.fill_recorder(recorder, node_key)
        finally:
            self.phase = None
            # Flushed even when a body raised: the trace shows who ran.
            if tr is not None:
                tr.emit_run(tr.phase, rows)  # tr.phase set by _run_phase
        return vote

    def _assign_cores(self, vps: list[_VpRecord]) -> None:
        """Rebalance the VP->core mapping for the next round
        (``config.load_balancing``).

        The runtime uses each VP's measured cost from the previous
        phase to pack VPs onto cores greedily (longest processing time
        first) — the paper's "optimizations such as load balancing"
        enabled by processor virtualisation.  Deterministic: ties break
        on VP rank and core id.  Off by default (static contiguous loop
        chunks).  Only the round loop of ``do`` calls it, so a worker's
        runtime, which sees part of a node, never packs on its own.
        """
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
    def _lookup_plan(self, signature: tuple) -> PhasePlan | None:
        """The running ``do``'s plan for a phase shape, if it has one."""
        return self._phase_plans.get(signature)

    def _phase_costs(self, recorder: PhaseRecorder) -> _PhaseCosts:
        """Inspect a phase's recorded traffic: bundle it per (node,
        owner), price every node's bundles, and charge the owners'
        message handling and the commit's per-element work — every
        simulated cost of the phase that its access signature fixes."""
        cfg = self.config
        net = self.cluster.network
        per_elem = cfg.ppm_commit_per_element
        traffic = aggregate_traffic(recorder)
        comm: dict[int, object] = {}
        owner_cpu: list[tuple[int, float]] = []
        in_cpu: dict[int, float] = {}
        messages = nbytes = 0
        # node_comm_cost depends only on a node's peer footprint, which
        # symmetric exchanges repeat across nodes.
        priced: dict[tuple, object] = {}
        for node_id, nt in traffic.items():
            footprint = tuple(
                (p.read_elems, p.write_elems, p.shared.itemsize) for p in nt.peers
            )
            cost = priced.get(footprint)
            if cost is None:
                cost = priced[footprint] = (
                    node_comm_cost(net, nt, latency_rounds=recorder.latency_rounds)
                    if footprint
                    else ZERO_COST
                )
            comm[node_id] = cost
            messages += cost.messages
            nbytes += cost.payload_bytes
            for p in nt.peers:
                # Owner-side software: message handling plus applying
                # scattered elements into its partition.
                cpu = (
                    peer_owner_messages(net, p) * cfg.mpi_msg_overhead
                    + p.write_elems * per_elem
                )
                owner_cpu.append((p.owner, cpu))
                in_cpu[p.owner] = in_cpu.get(p.owner, 0.0) + cpu
        commit_cpu = {
            node_id: n_elem * per_elem
            for node_id, n_elem in recorder.node_write_elems.items()
        }
        for node_id, nt in traffic.items():
            commit_cpu[node_id] = (
                commit_cpu.get(node_id, 0.0) + nt.local_write_elems * per_elem
            )
        return _PhaseCosts(
            traffic, comm, owner_cpu, in_cpu, commit_cpu, messages, nbytes
        )

    def _run_phase(self, kind: str, nodes: list[int], vps_by_node: list) -> None:
        """One phase round: a global phase over the active ``nodes``
        (cluster-wide barrier), or a node phase on the single node in
        ``nodes`` (it alone advances)."""
        cluster = self.cluster
        pending = self._pending
        latency_rounds = max(pending.pop(n)[1] for n in nodes)
        node_key = None if kind == "global" else nodes[0]
        res = self.resilience
        phase_index = self.stats_global_phases + self.stats_node_phases
        if res is not None:
            # May raise NodeCrashFault (before any body runs, so the
            # committed state stays the last phase-boundary cut) or,
            # when recovering with no checkpoint, resume at phase 0 —
            # which re-attaches the tracer, so read it afterwards.
            res.on_phase_start(phase_index, self)
        tr = self.tracer
        recorder = PhaseRecorder(kind, latency_rounds)
        backend = self._backend
        if tr is not None:
            tr.phase = phase_index
            tr.emit(
                PhaseBegin(
                    phase=phase_index,
                    phase_kind=kind,
                    latency_rounds=latency_rounds,
                    vps=sum(
                        1 for n in nodes for vp in vps_by_node[n] if not vp.done
                    ),
                    nodes=tuple(nodes),
                    t=min(cluster.node(n).clock.now for n in nodes),
                )
            )
        # A round is certified when every active VP sat at a yield the
        # static verifier proved conflict-free when the round began.
        # Under the process backend each shard voted on its own VPs,
        # and the backend combines the votes.
        vote = self._execute_phase_bodies(recorder, nodes, vps_by_node)

        # Commit: conflict check (strict mode aborts before any write
        # is visible), then writes in rank order, then collectives.
        # Under the process backend a held round's workers commit
        # meanwhile — a zero-merge group in place (write_ops keeps only
        # the parent's own shard's), a fallback group ships its
        # operations into the recorder for the unchanged path first.
        if backend is None:
            certified = bool(vote[0])
        else:
            certified = backend.round_certified(node_key, vote)
            backend.begin_commit(recorder, node_key)
        # None for a phase that can never repeat: it keeps no plan.
        signature = recorder.signature(certified)
        plan = None if signature is None else self._lookup_plan(signature)
        if plan is None:
            self.stats_phase_plan_misses += 1
            plan = PhasePlan()
            if signature is not None:
                self._phase_plans[signature] = plan
        else:
            self.stats_phase_plan_hits += 1
        if self.sanitizer is not None and not (certified and self.sanitize_auto):
            self.sanitizer.check_phase(recorder, plan, phase_index=phase_index)
        if certified:
            self.stats_certified_phases += 1
        recorder.apply_writes(self.commit_plans, plan=plan)
        n_contrib = recorder.resolve_collectives()
        if backend is not None:
            backend.finish_commit(recorder, node_key)

        # Everything the signature fixes comes from the plan, the
        # bundle and message events of a traced round included: only
        # their phase index is this round's.
        cfg = self.config
        net = cluster.network
        costs = plan.costs
        if costs is None:
            costs = plan.costs = self._phase_costs(recorder)
        if tr is not None:
            if costs.wire is None:
                costs.wire = wire_events(net, costs.traffic)
            tr.emit_wire(phase_index, costs.wire)
        if kind == "global":
            # Every node takes part in the barrier; owner-side software
            # is part of the owner's own phase timing.
            timed = list(cluster)
            in_cpu = costs.in_cpu
        else:
            # Global-shared *reads* are permitted in node phases; their
            # fetch traffic is charged here (writes were rejected
            # earlier), the owners' service cost on the owners' clocks.
            timed = [cluster.node(node_key)]
            in_cpu = {}
            for owner, cpu in costs.owner_cpu:
                cluster.node(owner).clock.advance(cpu)
        core_costs = recorder.core_costs
        commit_cpu = costs.commit_cpu
        comm = costs.comm
        node_t0 = {}
        node_timings = {}
        arrival = 0.0
        for node in timed:
            node_id = node.node_id
            node_t0[node_id] = node.clock.now
            # What does change round to round: the VPs' measured costs.
            timing = compose_phase_timing(
                cfg,
                net,
                compute=node_compute_time(core_costs.get(node_id, {})),
                commit_cpu=commit_cpu.get(node_id, 0.0),
                comm_cost=comm.get(node_id, ZERO_COST),
                extra_comm_cpu=in_cpu.get(node_id, 0.0),
            )
            node_timings[node_id] = timing
            arrival = max(arrival, node.clock.now + timing.busy)

        # Phase-closing synchronisation: a phase with collectives fuses
        # the reduction into its barrier tree (one sweep up, one down);
        # otherwise a plain barrier suffices.  A global phase
        # synchronises the nodes, a node phase the node's cores.
        if kind == "global":
            if recorder.collective_slots:
                t_end = arrival + net.allreduce_time(cluster.n_nodes, cfg.element_bytes)
            else:
                t_end = arrival + net.barrier_time(cluster.n_nodes)
            for node in timed:
                node.clock.merge(t_end)
            self.stats_global_phases += 1
        else:
            if recorder.collective_slots:
                sync = net.allreduce_time(
                    cluster.cores_per_node, cfg.element_bytes, intra_node=True
                )
            else:
                sync = net.barrier_time(cluster.cores_per_node, intra_node=True)
            node.clock.advance(timing.busy + sync)
            t_end = node.clock.now
            self.stats_node_phases += 1
        for node in timed:
            for c in node.core_clocks:
                c.merge(t_end)

        self.profile.append(
            PhaseProfile(
                index=phase_index,
                kind=kind,
                latency_rounds=latency_rounds,
                t_end=t_end,
                node_timings=node_timings,
            )
        )
        if tr is not None:
            tr.emit(
                PhaseCommit(
                    phase=phase_index,
                    phase_kind=kind,
                    latency_rounds=latency_rounds,
                    t=min(node_t0.values()),
                    t_end=t_end,
                    messages=costs.messages,
                    nbytes=costs.nbytes,
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
        cluster.trace.record(
            "ppm_global_phase" if kind == "global" else "ppm_node_phase",
            messages=costs.messages,
            nbytes=costs.nbytes,
        )
        if res is not None:
            # Checkpoint when due (its cost lands between phases), or
            # — while fast-forwarding — resume at the restored cut.
            res.after_commit(phase_index, self)
