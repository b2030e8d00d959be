"""Worker-process engine of the ``executor="process"`` backend.

Each worker owns a contiguous global-rank shard of the VPs and runs
their *generators* with a private sequential :class:`PpmRuntime` — the
exact engine the inline executor uses, so every access-protocol rule
(snapshot reads, buffered writes, node-phase write protection, phase
errors) is enforced in-place and every recorded quantity is computed
by the same code.  The differences from inline execution are confined
to the edges:

* shared-variable *committed stores* are not private arrays but
  :mod:`multiprocessing.shared_memory` segments mapped by name
  (zero-copy snapshots; see :class:`repro.parallel.shm.ShmRegistry`);
* each round's recordings are either *encoded* into a compact report
  the parent merges and commits through its unchanged pipeline (ship
  mode — index arrays are interned per worker so a spec shipped once
  is later referenced by id), or — when the round carries a static
  disjointness certificate — *held* worker-side and committed directly
  into the shared segments on the parent's ``commit`` command, replying
  with a fixed-size digest instead of the operation stream (zero-merge
  mode);
* a repeated phase *shape* is described once (:class:`_RoundPlan`):
  its first round ships the access footprints under a plan id, every
  repeat ships the id and replays the stored commit recipe;
* a buffer is reported as *view-held* only while something still
  references it (:meth:`_WorkerDo._referenced`), so the parent swaps a
  segment only under a live reader of its old values;
* collective handles held by VP code resolve from the parent's
  round-commit results, shipped with the next round command.

The command handlers mirror :class:`repro.parallel.pool.WorkerPool`'s
protocol; :func:`worker_main` is the process entry point.
"""

from __future__ import annotations

import pickle
import sys
import time
import traceback
import zlib

import numpy as np

from repro.core import shared as shared_mod
from repro.core.constructs import PhaseDecl
from repro.core.phase import CommitPlanCache, PhasePlan, PhaseRecorder
from repro.core.rowset import union_rows
from repro.core.shared import GlobalShared, NodeShared
from repro.core.vp import VpContext, core_of
from repro.machine.cluster import Cluster
from repro.parallel.shm import WorkerSegmentCache


def _ship_exception(exc: BaseException):
    """Encode an exception for the reply pipe: pickled when possible,
    its repr + remote traceback otherwise."""
    tb = "".join(traceback.format_exception(exc))
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)  # round-trip check: __reduce__ may lie
    except Exception:
        return ("text", repr(exc), tb)
    return ("pickled", blob, tb)


class _ReportEncoder:
    """Per-do encoder for one worker's round reports.

    Index arrays (row specs and fancy indices) are interned by object
    identity: the first mention ships the array (``("n", iid, arr)``),
    later mentions ship a reference (``("r", iid)``).  The table pins
    every interned array for the do, so an id can never be recycled
    into a different array mid-do.
    """

    def __init__(self) -> None:
        self._known: dict[int, np.ndarray] = {}

    def array(self, arr: np.ndarray):
        iid = id(arr)
        if iid in self._known:
            return ("r", iid)
        self._known[iid] = arr
        return ("n", iid, arr)

    def spec(self, spec):
        if spec.array is None:
            return ("R", spec.start, spec.stop, spec.step)
        return ("A", self.array(spec.array))

    def idx(self, idx):
        if type(idx) is np.ndarray and idx.dtype != np.bool_:
            return ("a", self.array(idx))
        return ("v", idx)


class _RoundPlan:
    """What this worker resolved once for one phase shape
    (:meth:`PhaseRecorder.signature`): the id the parent caches its
    record structure under, the commit recipe, and the rows written
    per target (:meth:`_WorkerDo._written_rows`)."""

    __slots__ = ("pid", "commit", "rows")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.commit = PhasePlan()
        self.rows: list | None = None


def _bound_store(sv, instance) -> np.ndarray:
    """The mapped segment a proxy instance is bound to — the commit
    target: the parent already ran copy-on-commit and shipped the
    remaps (``_commit_target`` would detach the proxy from it)."""
    return sv._data if instance is None else sv._data[instance]


class _WorkerDo:
    """State of one in-flight ``ppm.do`` on this worker."""

    def __init__(self, state: "_WorkerState", common: dict, shard) -> None:
        self.cache = state.cache
        #: View liveness is read from reference counts (see _rebind).
        self.refcounted = hasattr(sys, "getrefcount")
        self.cluster = Cluster(state.config)
        # Deferred import: the runtime package imports repro.parallel
        # lazily, never the other way around at module level.
        from repro.core.runtime import PpmRuntime, _VpRecord

        self.rt = PpmRuntime(self.cluster)
        # Shared-variable proxies: identical handles to the parent's,
        # except their committed stores are the mapped segments.
        self.proxies: dict[str, object] = {}
        for name, kind, shape, dtype_str, segs in common["shared"]:
            dtype = np.dtype(dtype_str)
            if kind == "global":
                sv = GlobalShared(self.rt, name, shape, dtype=dtype, fill=None)
                self._rebind(sv, None, segs)
            else:
                sv = NodeShared(self.rt, name, shape, dtype=dtype, fill=None)
                for instance, seg in segs:
                    self._rebind(sv, instance, seg)
            self.proxies[name] = sv
            self.rt.shared_registry[name] = sv
        # Kernel blob: shared handles inside it unpickle as name
        # references resolved against this worker's proxies.
        shared_mod._PICKLE_REGISTRY = self.proxies
        try:
            funcs, args, kwargs = pickle.loads(common["kernel"])
        finally:
            shared_mod._PICKLE_REGISTRY = None
        counts = common["counts"]
        decl_kind, decl_latency = common["default_decl"]
        default_decl = PhaseDecl(decl_kind, latency_rounds=decl_latency)
        total = sum(counts)
        cores = self.cluster.cores_per_node
        lo, hi = shard
        self.vps: list = []  # this worker's _VpRecords, in rank order
        self.by_node: dict[int, list] = {}
        offset = 0
        for node_id, k in enumerate(counts):
            f = funcs[node_id]
            genfunc = (
                self.rt._as_generator(f, default_decl) if f is not None else None
            )
            for r in range(k):
                grank = offset + r
                if lo <= grank < hi:
                    ctx = VpContext(
                        self.rt,
                        node_id=node_id,
                        node_rank=r,
                        global_rank=grank,
                        node_vp_count=k,
                        global_vp_count=total,
                        core_id=core_of(r, k, cores),
                    )
                    vp = _VpRecord(ctx, genfunc(ctx, *args, **kwargs))
                    self.vps.append(vp)
                    self.by_node.setdefault(node_id, []).append(vp)
            offset += k
        self.enc = _ReportEncoder()
        # node_key (None = global) -> unresolved collective slots of the
        # previous round, awaiting the parent's commit results.
        self.pending: dict = {}
        # Certificate handoff: rebuild the parent's static proof from
        # this worker's unpickled kernel — the analysis is a pure
        # function of the source and the argument classification, so
        # worker and parent derive the same certificate independently
        # (no frames or code objects cross the pipe).
        self.cert = None
        if common.get("certify"):
            distinct = {id(f) for f in funcs if f is not None}
            if len(distinct) == 1 and funcs[0] is not None:
                from repro.analysis.certify import certificate_for

                self.cert = certificate_for(funcs[0], args, kwargs)
        # Zero-merge state: (recorder, plan) held between the exec round
        # and the parent's commit decision; one plan per phase shape
        # seen this do, by signature; and the cross-round commit-plan
        # cache their recipes refer into.
        self.held: dict = {}
        self.plans: dict[tuple, _RoundPlan] = {}
        self.commit_plans = CommitPlanCache()

    def _rebind(self, sv, instance, segment_name: str) -> None:
        """Point one proxy instance at its mapped segment.

        The read-only snapshot array is built straight over the
        segment's buffer, not as a view of the writable one: numpy
        collapses ``base`` chains onto it, so every basic-index read
        result and every view derived from one references *this*
        object, which nothing but the proxy holds — its reference count
        says whether a reader of the buffer is alive.  That is checked
        here, through the probe itself, and given up for the do if it
        ever fails."""
        arr = self.cache.attach(segment_name, sv.shape, sv.dtype)
        ro = self.cache.attach(segment_name, sv.shape, sv.dtype)
        ro.flags.writeable = False
        if instance is None:
            sv._data = arr
            sv._ro = ro
            sv._views_taken = False
        else:
            sv._data[instance] = arr
            sv._ro[instance] = ro
            sv._views_taken[instance] = False
        reader = ro[:0]
        del ro
        seen = self._referenced(sv, instance)
        del reader
        self.refcounted = seen and not self._referenced(sv, instance)

    def _referenced(self, sv, instance) -> bool:
        """Does anything but the proxy reference the snapshot array of
        this instance's *current* buffer?  A count can only over-count
        readers (a cycle awaiting collection), never miss one; without
        a usable count every buffer counts as referenced."""
        if not self.refcounted:
            return True
        # The proxy's slot and the call argument: two references.
        return sys.getrefcount(sv._ro if instance is None else sv._ro[instance]) > 2

    # ------------------------------------------------------------------
    def prologue(self):
        """Run every VP up to its first phase declaration."""
        for vp in self.vps:
            self.rt._advance(vp)
        return [self._vp_state(vp) for vp in self.vps]

    @staticmethod
    def _vp_state(vp, cost: float = 0.0):
        decl = vp.decl
        return (
            vp.ctx.global_rank,
            vp.done,
            None if decl is None else (decl.kind, decl.latency_rounds),
            cost,
        )

    # ------------------------------------------------------------------
    def round(self, cmd: dict) -> dict:
        t0 = time.perf_counter()
        # 1. Remap swapped segments (parent copy-on-commit) by name.
        for name, instance, segment_name in cmd["remaps"]:
            self._rebind(self.proxies[name], instance, segment_name)
        # 2. Resolve collective handles from the previous round's commit.
        for node_key, results in cmd["coll_results"]:
            slots = self.pending.get(node_key)
            if not slots:
                continue
            for i, (kind, payload) in enumerate(results):
                if i >= len(slots):
                    break
                for rank, _value, handle in slots[i].entries:
                    handle._resolve(
                        payload if kind == "reduce" else payload.get(rank)
                    )
        self.pending = {}
        # 3. Apply the parent's load-balanced VP->core assignment.
        core_map = cmd["core_map"]
        if core_map:
            for vp in self.vps:
                core = core_map.get(vp.ctx.global_rank)
                if core is not None:
                    vp.ctx.core_id = core
        # 4. Run this round's phase bodies for my shard.  In "hold"
        # mode the buffered operations stay worker-side, awaiting the
        # parent's commit decision; certification flags are read off
        # the suspended frames *before* the bodies run, exactly when
        # the inline engine checks them.
        kind = cmd["kind"]
        hold = cmd.get("mode") == "hold"
        nodes = [n for n in cmd["nodes"] if n in self.by_node]
        groups = [(None, nodes)] if kind == "global" else [(n, [n]) for n in nodes]
        cert = self.cert
        advanced = 0
        reports = []
        for node_key, group in groups:
            # My shard's vote on the group: no without a certificate,
            # (None, None) — an abstention — with no active VP in it.
            flags = (False, False)
            if cert is not None:
                flags = cert.round_flags(
                    [vp for n in group for vp in self.by_node[n]], kind
                )
            report, n_vps = self._run_recorder(kind, group, node_key, hold)
            advanced += n_vps
            reports.append((node_key, report, flags))
        if kind == "global":
            payload = {"report": reports[0][1], "flags": reports[0][2]}
        else:
            payload = {"nodes": reports}
        # 5. Every buffer a snapshot view was taken of and something
        # still references, in every reply: the parent takes a round's
        # reports as the whole truth.  A flag stays set until its
        # *current* buffer is found unreferenced.  (Within a round, no
        # commit can observe another node's phase activity: node phases
        # touch disjoint instances and cannot write global arrays, so
        # round-level granularity is exact.)
        views = []
        for name, sv in self.proxies.items():
            if isinstance(sv, NodeShared):
                taken = sv._views_taken
                for instance, flag in enumerate(taken):
                    if flag:
                        if self._referenced(sv, instance):
                            views.append((name, instance))
                        else:
                            taken[instance] = False
            elif sv._views_taken:
                if self._referenced(sv, None):
                    views.append((name, None))
                else:
                    sv._views_taken = False
        payload["views"] = views
        payload["advanced"] = advanced
        payload["host_s"] = time.perf_counter() - t0
        return payload

    def _run_recorder(
        self, kind: str, nodes: list, node_key, hold: bool = False
    ) -> tuple:
        """Advance my VPs of ``nodes`` under a fresh recorder; returns
        its encoded report and the number of VPs advanced.  Under
        ``hold`` the recorder is retained for the parent's commit
        command and the report omits the operation stream."""
        rt = self.rt
        recorder = PhaseRecorder(kind)
        rt.phase = recorder
        vp_states = []
        try:
            for node_id in nodes:
                for vp in self.by_node[node_id]:
                    if vp.done:
                        continue
                    ctx = vp.ctx
                    ctx._cost = 0.0
                    ctx._coll_index = 0
                    rt._advance(vp)
                    vp_states.append(self._vp_state(vp, ctx._cost))
                    ctx._cost = 0.0
                recorder.close_run(node_id)
        finally:
            rt.phase = None
        self.pending[node_key] = recorder.collective_slots
        report, plan = self._encode(recorder, vp_states, hold)
        if hold:
            self.held[node_key] = (recorder, plan)
        return report, len(vp_states)

    def _encode_ops(self, ops: list) -> list:
        enc = self.enc
        return [
            (
                ev.shared.name,
                ev.instance,
                ev.kind,
                ev.op,
                enc.idx(ev.idx),
                ev.value,
                enc.spec(ev.rows),
                ev.rank,
                ev.rows_exact,
            )
            for ev in ops
        ]

    def _encode(self, recorder: PhaseRecorder, vp_states: list, hold: bool) -> tuple:
        """One round's report and the plan of its phase shape.  What
        changes round to round always travels: per-VP state, collective
        contributions and — unless held — the operation stream.  What
        the access signature fixes travels once: the shape's first
        round ships the footprints (and, held, the written targets)
        with the new plan's id, every repeat ships the id alone."""
        enc = self.enc
        payload = {
            "vps": vp_states,
            "colls": [
                (i, slot.kind, slot.op, [(r, v) for r, v, _h in slot.entries])
                for i, slot in enumerate(recorder.collective_slots)
                if slot.entries
            ],
        }
        if not hold:
            payload["ops"] = self._encode_ops(recorder.write_ops)
        signature = recorder.signature(hold)
        plan = self.plans.get(signature)
        if plan is not None:
            payload["rec_plan"] = plan.pid
            return payload, plan
        plan = self.plans[signature] = _RoundPlan(len(self.plans))
        payload["rec_new"] = plan.pid
        if hold:
            # The parent pre-swaps the written targets before the
            # commit command, so it needs the target list (not the
            # operations) up front.
            payload["wtargets"] = {
                (ev.shared.name, ev.instance) for ev in recorder.write_ops
            }
        # Access footprints travel as (variable, row spec, element
        # count), one run per node mark, in recording order.
        def footprints(specs):
            return [(s.shared.name, enc.spec(s), s.elems) for s in specs]

        runs = payload["runs"] = []
        r0 = w0 = 0
        for node_id, r1, w1 in recorder.marks:
            runs.append(
                (
                    node_id,
                    footprints(recorder.reads[r0:r1]),
                    footprints(recorder.writes[w0:w1]),
                )
            )
            r0, w0 = r1, w1
        payload["nwe"] = dict(recorder.node_write_elems)
        return payload, plan

    # ------------------------------------------------------------------
    @staticmethod
    def _ops_bytes(ops: list) -> int:
        """Estimate of the pipe bytes a shipped encoding of ``ops``
        would have cost (value buffers + index arrays + per-op tuple
        overhead) — the "merge bytes avoided" statistic of a zero-merge
        commit."""
        total = 0
        for ev in ops:
            v = ev.value
            total += v.nbytes if isinstance(v, np.ndarray) else 8
            if isinstance(ev.idx, np.ndarray):
                total += ev.idx.nbytes
            elif ev.rows.array is not None:
                total += ev.rows.array.nbytes
            total += 64
        return total

    def _written_rows(self, recorder: PhaseRecorder, plan: _RoundPlan) -> list:
        """``(proxy, instance, sorted unique rows)`` per target my
        shard's held operations write — what a verified digest covers;
        fixed by the phase shape, so kept on its plan."""
        if plan.rows is None:
            specs: dict = {}
            for ev in recorder.write_ops:
                specs.setdefault((ev.shared, ev.instance), []).append(ev.rows)
            plan.rows = [
                (sv, instance, union_rows(rows, sv.shape[0]))
                for (sv, instance), rows in specs.items()
            ]
        return plan.rows

    def commit(self, cmd: dict) -> dict:
        """Parent's commit command for the preceding hold-mode round.

        The parent has already pre-swapped every aliased target
        (copy-on-commit) and ships the remaps here; after rebinding,
        a ``"local"`` decision commits the held recorder straight into
        the mapped segments and replies with a fixed-size digest, a
        ``"ship"`` decision falls back to encoding the operation stream
        for the parent's ordinary merge-and-commit path."""
        for name, instance, segment_name in cmd["remaps"]:
            self._rebind(self.proxies[name], instance, segment_name)
        verify = cmd.get("verify", False)
        replies = []
        for node_key, decision in cmd["groups"]:
            recorder, plan = self.held.pop(node_key, (None, None))
            if recorder is None:
                replies.append((node_key, {"ops_n": 0}))
            elif decision == "ship":
                replies.append(
                    (node_key, {"ops": self._encode_ops(recorder.write_ops)})
                )
            else:
                replies.append(
                    (node_key, self._commit_local(recorder, plan, verify))
                )
        return {"groups": replies}

    def _commit_local(
        self, recorder: PhaseRecorder, plan: _RoundPlan, verify: bool
    ) -> dict:
        """Commit my shard's held operations in place.

        The round carried a zero-merge certificate, so across VPs the
        written rows are disjoint: each element of a target is only
        ever touched by one worker, and applying that worker's ops in
        its own (rank, seq) order — through the very loop the parent's
        commit runs, the shape's recipe replayed on a repeat — produces
        bitwise-identical stores to the global rank-ordered parent
        commit.  Checksums (CRC-32 of the rows written) are computed
        only for a parent that compares them."""
        plans = self.commit_plans
        h0, m0 = plans.stats()
        ops = recorder.write_ops
        recorder.apply_writes(plans, plan=plan.commit, target_of=_bound_store)
        digest = {
            "ops_n": len(ops),
            "bytes_avoided": self._ops_bytes(ops),
            "plan_hits": plans.hits - h0,
            "plan_misses": plans.misses - m0,
        }
        if verify:
            digest["checksums"] = [
                (
                    sv.name,
                    instance,
                    zlib.crc32(
                        np.ascontiguousarray(_bound_store(sv, instance)[rows]).tobytes()
                    ),
                    self.enc.array(rows),
                )
                for sv, instance, rows in self._written_rows(recorder, plan)
            ]
        return digest


class _WorkerState:
    """Long-lived per-process state across ``do`` invocations."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.config = None
        self.cache = WorkerSegmentCache()
        self.do: _WorkerDo | None = None

    def handle(self, tag: str, payload):
        if tag == "init":
            self.config = payload["config"]
            return None
        if tag == "do_start":
            self.do = _WorkerDo(self, payload["common"], payload["shard"])
            return None
        if tag == "prologue":
            return self.do.prologue()
        if tag == "round":
            return self.do.round(payload)
        if tag == "commit":
            return self.do.commit(payload)
        if tag == "do_end":
            self.do = None
            self.cache.clear()
            return None
        raise RuntimeError(f"unknown worker command {tag!r}")


def worker_main(conn, worker_id: int) -> None:
    """Entry point of one worker process: serve commands until
    ``shutdown`` or a closed pipe."""
    state = _WorkerState(worker_id)
    while True:
        try:
            tag, payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if tag == "shutdown":
            break
        try:
            reply = ("ok", state.handle(tag, payload))
        except KeyboardInterrupt:
            reply = ("interrupt", None)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            reply = ("exc", _ship_exception(exc))
        try:
            conn.send(reply)
        except KeyboardInterrupt:
            break
        except Exception as exc:
            # The reply itself would not serialise (e.g. a collective
            # carrying an unpicklable value).  Degrade to a PPM504
            # diagnostic so the protocol stays in sync.
            try:
                conn.send(
                    (
                        "exc",
                        (
                            "ppm504",
                            "a worker reply could not be serialised — "
                            "values shipped between phases (collective "
                            "contributions, written values) must be "
                            f"picklable: {exc!r}",
                            traceback.format_exc(),
                        ),
                    )
                )
            except Exception:  # pragma: no cover - pipe gone
                break
