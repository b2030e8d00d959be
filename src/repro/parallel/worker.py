"""Worker-process transport of the ``executor="process"`` backend.

Each forked worker owns a contiguous global-rank shard of the VPs (the
parent runs the lowest-rank shard itself) and steps it with a private
:class:`PpmRuntime`: its prologue runs inside ``do_start``, every round
group through ``PpmRuntime._execute_phase_bodies`` — the inline
executor's own stepping loop and certification vote — so every
access-protocol rule (snapshot reads, buffered writes, node-phase
write protection, phase errors) is enforced in place and every
recorded quantity is computed by the same code.  This module is only
the transport around that loop:

* shared-variable *committed stores* are not private arrays but
  :mod:`multiprocessing.shared_memory` segments mapped by name
  (zero-copy snapshots; see :class:`repro.parallel.shm.ShmRegistry`);
* each round's recordings are either *encoded* into a compact report
  the parent merges and commits through its unchanged pipeline (ship
  mode), or — when the round carries a static disjointness
  certificate — *held* worker-side and committed directly into the
  shared segments on the parent's ``commit`` command, replying with a
  fixed-size digest instead of the operation stream (zero-merge mode);
* a repeated phase *shape* is described once (:class:`_RoundPlan`):
  its first round ships the access footprints and the operations'
  indices, as plain arrays and slices, under a plan id; every repeat
  ships the id (and, in ship mode, the operations' values) and
  replays the stored commit recipe.  A round holding a row log can
  never repeat, so it ships in full and gets no id;
* a buffer is reported as *view-held* only while something still
  references it (:class:`~repro.parallel.shm.ViewProbe`, the probe the
  parent judges its own shard by), so the parent swaps a segment only
  under a live reader of its old values;
* collective handles held by VP code resolve from the parent's
  round-commit results, shipped with the next round command.

The command handlers mirror :class:`repro.parallel.pool.WorkerPool`'s
protocol; :func:`worker_main` is the process entry point.
"""

from __future__ import annotations

import pickle
import time
import traceback
import zlib

import numpy as np

from repro.core import shared as shared_mod
from repro.core.phase import CommitPlanCache, PhasePlan, PhaseRecorder
from repro.core.rowset import union_rows
from repro.core.shared import GlobalShared, NodeShared
from repro.machine.cluster import Cluster
from repro.parallel.shm import ViewProbe, WorkerSegmentCache


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


def _vp_states(vps) -> list:
    """``(global rank, done, next declaration, last cost)`` per VP,
    what the parent's ``PpmRuntime._replay_step`` takes (a reply
    pickles each distinct declaration once)."""
    return [(vp.ctx.global_rank, vp.done, vp.decl, vp.last_cost) for vp in vps]


def _rows(spec) -> tuple:
    """A row spec as it travels: ``(start, stop, step, index array)``."""
    return spec.start, spec.stop, spec.step, spec.array


class _RoundPlan:
    """What this worker resolved once for one phase shape
    (:meth:`PhaseRecorder.signature`): the id the parent caches its
    record structure under (``None`` for a round that can never
    repeat), whether the parent has its operation template yet, the
    commit recipe, and the rows written per target
    (:meth:`_WorkerDo._written_rows`)."""

    __slots__ = ("pid", "ops_sent", "commit", "rows")

    def __init__(self, pid: int | None) -> None:
        self.pid = pid
        self.ops_sent = False
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
        self.probe = ViewProbe()
        # Deferred import: the runtime package imports repro.parallel
        # lazily, never the other way around at module level.
        from repro.core.runtime import PpmRuntime

        self.rt = PpmRuntime(Cluster(state.config))
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
        # Certificate handoff: no frame or code object crosses the pipe;
        # the worker derives the parent's certificate from its own copy.
        self.rt._active_cert = self.rt._kernel_certificate(funcs, args, kwargs)
        vps_by_node = self.rt._vp_records(
            common["counts"], funcs, common["default_decl"], args, kwargs, shard
        )
        # This worker's VPs by node (every node, most empty), the only
        # ones its runtime steps, and in rank order.
        self.own = [[vp for vp in vps if vp.gen is not None] for vps in vps_by_node]
        self.vps = [vp for vps in self.own for vp in vps]
        # node_key (None = global) -> unresolved collective slots of the
        # previous round, awaiting the parent's commit results.
        self.pending: dict = {}
        # Zero-merge state: (recorder, plan) held between the exec round
        # and the parent's commit decision; one plan per phase shape
        # seen this do, by signature; and the cross-round commit-plan
        # cache their recipes refer into.
        self.held: dict = {}
        self.plans: dict[tuple, _RoundPlan] = {}
        self.commit_plans = CommitPlanCache()

    def _rebind(self, sv, instance, segment_name: str) -> None:
        """Point one proxy instance at its mapped segment."""
        segment, arr = self.cache.attach(segment_name, sv.shape, sv.dtype)
        ro = self.probe.reader(segment, sv.shape, sv.dtype)
        if instance is None:
            sv._data = arr
            sv._ro = ro
            sv._views_taken = False
        else:
            sv._data[instance] = arr
            sv._ro[instance] = ro
            sv._views_taken[instance] = False

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
        # 4. Step my shard through the runtime's own loop, which votes
        # on each group before its bodies run.  In "hold" mode the
        # buffered operations stay worker-side, awaiting the parent's
        # commit decision.
        kind = cmd["kind"]
        hold = cmd.get("mode") == "hold"
        own = self.own
        nodes = [n for n in cmd["nodes"] if own[n]]
        groups = [(None, nodes)] if kind == "global" else [(n, [n]) for n in nodes]
        reports = []
        for node_key, group in groups:
            stepped = [vp for n in group for vp in own[n] if not vp.done]
            recorder = PhaseRecorder(kind)
            flags = self.rt._execute_phase_bodies(recorder, group, own)
            self.pending[node_key] = recorder.collective_slots
            report, plan = self._encode(recorder, stepped, hold)
            if hold:
                self.held[node_key] = (recorder, plan)
            reports.append((node_key, report, flags))
        # 5. Every buffer a snapshot view was taken of and something
        # still references, in every reply: the parent takes a round's
        # reports as the whole truth.  (Within a round, no commit can
        # observe another node's phase activity: node phases touch
        # disjoint instances and cannot write global arrays, so
        # round-level granularity is exact.)
        return {
            "groups": reports,
            "views": self.probe.live_views(self.proxies.values()),
            "host_s": time.perf_counter() - t0,
        }

    @staticmethod
    def _ship_ops(recorder: PhaseRecorder, plan: _RoundPlan) -> dict:
        """The operation stream as it travels: every operation's value,
        in stream order, and — until the parent has it under the plan's
        id — the template the signature fixes: each operation's
        variable, instance, kind, accumulate op, index, rows, writer
        rank and exactness."""
        ops = recorder.write_ops
        msg = {"values": [ev.value for ev in ops]}
        if not plan.ops_sent:
            plan.ops_sent = True
            msg["ops"] = [
                (ev.shared.name, ev.instance, ev.kind, ev.op, ev.idx,
                 _rows(ev.rows), ev.rank, ev.rows_exact)
                for ev in ops
            ]
        return msg

    def _encode(self, recorder: PhaseRecorder, stepped: list, hold: bool) -> tuple:
        """One round's report and the plan of its phase shape.  What
        changes round to round always travels: the state of the VPs
        ``stepped``, collective contributions and — unless held — the
        operations' values.  What the access signature fixes travels
        once: the shape's first round ships the footprints (and, held,
        the written targets) with the new plan's id, every repeat ships
        the id alone.  A round that can never repeat (a row log) ships
        in full under no id, and its plan is not kept."""
        payload = {
            "vps": _vp_states(stepped),
            "colls": [
                (i, slot.kind, slot.op, [(r, v) for r, v, _h in slot.entries])
                for i, slot in enumerate(recorder.collective_slots)
                if slot.entries
            ],
        }
        signature = recorder.signature(hold)
        plan = None if signature is None else self.plans.get(signature)
        if plan is None:
            plan = _RoundPlan(None if signature is None else len(self.plans))
            if signature is not None:
                self.plans[signature] = plan
            self._describe(payload, recorder, hold)
        payload["plan"] = plan.pid
        if not hold:
            payload.update(self._ship_ops(recorder, plan))
        return payload, plan

    @staticmethod
    def _describe(payload: dict, recorder: PhaseRecorder, hold: bool) -> None:
        """What a shape's first round adds: the access footprints per
        node run, the node-shared write totals and, held, the written
        targets."""
        if hold:
            # The parent pre-swaps the written targets before the
            # commit command, so it needs the target list (not the
            # operations) up front.
            payload["wtargets"] = {
                (ev.shared.name, ev.instance) for ev in recorder.write_ops
            }
        # Access footprints travel as (variable, rows, elements, access
        # calls), one run per node mark, in recording order.
        def footprints(specs):
            return [(s.shared.name, _rows(s), s.elems, s.ops) for s in specs]

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
        """Parent's commit command for one group of the held round.

        The parent has already pre-swapped every aliased target
        (copy-on-commit) and ships the remaps here; after rebinding,
        a ``"local"`` decision commits the held recorder straight into
        the mapped segments and replies with a fixed-size digest, a
        ``"ship"`` decision falls back to encoding the operation stream
        for the parent's ordinary merge-and-commit path."""
        for name, instance, segment_name in cmd["remaps"]:
            self._rebind(self.proxies[name], instance, segment_name)
        node_key, decision = cmd["group"]
        recorder, plan = self.held.pop(node_key, (None, None))
        if recorder is None:
            return {"ops_n": 0}
        if decision == "ship":
            return {"plan": plan.pid, **self._ship_ops(recorder, plan)}
        return self._commit_local(recorder, plan, cmd["verify"])

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
                    rows,
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
            # Build my shard and run it to its first declarations.
            do = self.do = _WorkerDo(self, payload["common"], payload["shard"])
            do.rt._run_prologues(do.own)
            return _vp_states(do.vps)
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
