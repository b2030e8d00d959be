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
  is later referenced by id, and a repeated record *structure* ships
  as a plan id), or — when the round carries a static disjointness
  certificate — *held* worker-side and committed directly into the
  shared segments on the parent's ``commit`` command, replying with a
  fixed-size digest instead of the operation stream (zero-merge mode);
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
from repro.core.constructs import PhaseDecl
from repro.core.phase import CommitPlanCache, PhaseRecorder, _RANK_KEY
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


class _WorkerDo:
    """State of one in-flight ``ppm.do`` on this worker."""

    def __init__(self, state: "_WorkerState", common: dict, shard) -> None:
        self.cache = state.cache
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
        # Zero-merge state: recorders held between the exec round and
        # the parent's commit decision, the cross-round commit-plan
        # cache, and the cached per-target committed-row footprints
        # (valid while the target's _TargetPlan is unchanged).
        self.held: dict = {}
        self.commit_plans = CommitPlanCache()
        self._footprints: dict = {}
        # Record-structure plan cache: a round whose encoded rec
        # structure (reads/writes/spec refs/counts) is an exact repeat
        # ships a plan id instead of the payload.
        self._rec_plans: dict = {}
        self._rec_next = 0
        self.rec_hits = 0
        self.rec_misses = 0

    def _rebind(self, sv, instance, segment_name: str) -> None:
        """Point one proxy instance at its mapped segment."""
        shape = sv.shape
        dtype = sv.dtype
        arr = self.cache.attach(segment_name, shape, dtype)
        ro = arr.view()
        ro.flags.writeable = False
        if instance is None:
            sv._data = arr
            sv._ro = ro
        else:
            sv._data[instance] = arr
            sv._ro[instance] = ro

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
        # Replay mode (crash recovery): a respawned worker re-executes
        # logged round commands to rebuild its generators' state.  The
        # bodies run exactly as live rounds do — collectives resolve
        # from the logged results, recorders are held when commanded —
        # but nothing is *encoded*: the parent discarded the original
        # replies long ago, and interning arrays into the report
        # encoder here would leave later ``("r", iid)`` references
        # dangling on the parent side.
        replay = cmd.get("replay", False)
        nodes = [n for n in cmd["nodes"] if n in self.by_node]
        advanced = 0
        if kind == "global":
            body_vps = [vp for n in nodes for vp in self.by_node[n]]
            advanced += sum(1 for vp in body_vps if not vp.done)
            if replay:
                self._run_recorder(kind, nodes, None, hold, encode=False)
                payload = {"replayed": True}
            else:
                flags = self._round_flags(body_vps, kind)
                payload = {
                    "report": self._run_recorder(kind, nodes, None, hold),
                    "flags": flags,
                }
        elif replay:
            for node_id in nodes:
                node_vps = self.by_node[node_id]
                advanced += sum(1 for vp in node_vps if not vp.done)
                self._run_recorder(kind, [node_id], node_id, hold, encode=False)
            payload = {"replayed": True}
        else:
            reports = []
            for node_id in nodes:
                node_vps = self.by_node[node_id]
                advanced += sum(1 for vp in node_vps if not vp.done)
                flags = self._round_flags(node_vps, kind)
                reports.append(
                    (
                        node_id,
                        self._run_recorder(kind, [node_id], node_id, hold),
                        flags,
                    )
                )
            payload = {"nodes": reports}
        # 5. Snapshot-view flags, collected once per round (within a
        # round, no commit can observe another node's phase activity:
        # node phases touch disjoint instances and cannot write global
        # arrays, so round-level granularity is exact).
        views = []
        for name, sv in self.proxies.items():
            flags = sv._views_taken
            if isinstance(sv, NodeShared):
                for instance, flag in enumerate(flags):
                    if flag:
                        views.append((name, instance))
                        flags[instance] = False
            elif flags:
                views.append((name, None))
                sv._views_taken = False
        payload["views"] = views
        payload["advanced"] = advanced
        payload["host_s"] = time.perf_counter() - t0
        return payload

    def _round_flags(self, vps: list, kind: str):
        """(certified, zero_merge) for my shard's VPs, read off the
        suspended frames before the bodies run.  ``(None, None)`` when
        no VP of the group is active in my shard (the parent skips such
        workers when combining)."""
        if not any(not vp.done for vp in vps):
            return (None, None)
        cert = self.cert
        if cert is None:
            return (False, False)
        return (
            cert.round_certified(vps, kind),
            cert.round_zero_merge(vps, kind),
        )

    def _run_recorder(
        self,
        kind: str,
        nodes: list,
        node_key,
        hold: bool = False,
        encode: bool = True,
    ) -> dict | None:
        """Advance my VPs of ``nodes`` under a fresh recorder; encode it.
        Under ``hold`` the recorder is retained for the parent's commit
        command and the encoded report omits the operation stream.
        ``encode=False`` (crash-recovery replay) skips the report
        entirely and returns None."""
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
        if hold:
            self.held[node_key] = recorder
        if not encode:
            return None
        return self._encode(recorder, vp_states, include_ops=not hold)

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

    def _encode(
        self, recorder: PhaseRecorder, vp_states: list, include_ops: bool = True
    ) -> dict:
        enc = self.enc
        payload = {
            "vps": vp_states,
            "colls": [
                (i, slot.kind, slot.op, [(r, v) for r, v, _h in slot.entries])
                for i, slot in enumerate(recorder.collective_slots)
                if slot.entries
            ],
        }
        if include_ops:
            payload["ops"] = self._encode_ops(recorder.write_ops)
        else:
            # Hold mode: the parent pre-swaps the written targets
            # before the commit command, so it needs the target list
            # (not the operations) up front.
            payload["wtargets"] = sorted(
                {(ev.shared.name, ev.instance) for ev in recorder.write_ops},
                key=lambda t: (t[0], -1 if t[1] is None else t[1]),
            )
        # Access footprints travel as (variable, row spec, element
        # count), one run per node mark, in recording order.
        def footprints(specs):
            return [(s.shared.name, enc.spec(s), s.elems) for s in specs]

        runs = []
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
        recs = {"runs": runs, "nwe": dict(recorder.node_write_elems)}
        # Record-structure plan cache: once every spec in the encoding
        # is an interned reference, the structure is hashable and an
        # exact repeat ships as a plan id.  (A first mention carries a
        # raw ndarray and falls out via TypeError — shipped in full,
        # cacheable from the next round on.)
        pid = None
        key = None
        try:
            key = (
                tuple((nid, tuple(rd), tuple(wr)) for nid, rd, wr in runs),
                tuple(sorted(recs["nwe"].items())),
            )
            pid = self._rec_plans.get(key)
        except TypeError:
            key = None
        if pid is not None:
            payload["rec_plan"] = pid
            self.rec_hits += 1
        else:
            if key is not None:
                pid = self._rec_next
                self._rec_next += 1
                self._rec_plans[key] = pid
                payload["rec_new"] = pid
            self.rec_misses += 1
            payload.update(recs)
        return payload

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

    def commit(self, cmd: dict) -> dict:
        """Parent's commit command for the preceding hold-mode round.

        The parent has already pre-swapped every aliased target
        (copy-on-commit) and ships the remaps here; after rebinding,
        a ``"local"`` decision commits the held recorder straight into
        the mapped segments and replies with a fixed-size digest, a
        ``"ship"`` decision falls back to encoding the operation stream
        for the parent's ordinary merge-and-commit path.

        Under ``restore=True`` (crash recovery: this worker replaced
        one that died *inside* the commit window) the dead worker may
        have partially applied its in-place ops to the post-swap
        segments — fatal for accumulates, which are not idempotent.
        Before re-applying, each local group's committed-row footprint
        is copied from the retained pre-swap segment (the current
        attachment, pristine) into the post-swap target, resetting
        exactly this shard's rows; conflict-freedom certification
        guarantees no other worker's rows are touched."""
        restore = cmd.get("restore", False)
        saved = []
        if restore:
            for node_key, decision in cmd["groups"]:
                recorder = self.held.get(node_key)
                if recorder is None or decision == "ship":
                    continue
                groups: dict = {}
                for ev in recorder.write_ops:
                    groups.setdefault((id(ev.shared), ev.instance), []).append(ev)
                for evs in groups.values():
                    sv = evs[0].shared
                    instance = evs[0].instance
                    pristine = sv._data if instance is None else sv._data[instance]
                    rows = self._footprint((sv.name, instance), evs)
                    saved.append((sv, instance, rows, pristine[rows].copy()))
        for name, instance, segment_name in cmd["remaps"]:
            self._rebind(self.proxies[name], instance, segment_name)
        for sv, instance, rows, vals in saved:
            target = sv._data if instance is None else sv._data[instance]
            target[rows] = vals
        verify = cmd.get("verify", False)
        replies = []
        for node_key, decision in cmd["groups"]:
            recorder = self.held.pop(node_key, None)
            if recorder is None:
                replies.append((node_key, {"ops_n": 0}))
            elif decision == "ship":
                replies.append(
                    (node_key, {"ops": self._encode_ops(recorder.write_ops)})
                )
            else:
                replies.append((node_key, self._commit_local(recorder, verify)))
        return {"groups": replies}

    def _commit_local(self, recorder: PhaseRecorder, verify: bool) -> dict:
        """Commit my shard's held operations in place.

        The round carried a zero-merge certificate, so across VPs the
        written rows are disjoint: each element of a target is only
        ever touched by one worker, and applying that worker's ops in
        its own (rank, seq) order — through the very same plan/stream
        code the parent's commit uses — produces bitwise-identical
        stores to the global rank-ordered parent commit."""
        plans = self.commit_plans
        h0, m0 = plans.hits, plans.misses
        ops = sorted(recorder.write_ops, key=_RANK_KEY)
        groups: dict = {}
        for ev in ops:
            groups.setdefault((id(ev.shared), ev.instance), []).append(ev)
        checksums = []
        for evs in groups.values():
            sv = evs[0].shared
            instance = evs[0].instance
            # The parent already ran copy-on-commit and shipped the
            # remaps with this command; the proxy's store *is* the
            # commit target (never sv._commit_target, which would
            # detach the proxy from the segment).
            target = sv._data if instance is None else sv._data[instance]
            plans.apply(target, evs)
            key = (sv.name, instance)
            rows = self._footprint(key, evs)
            crc = zlib.crc32(np.ascontiguousarray(target[rows]).tobytes())
            checksums.append(
                (sv.name, instance, crc, self.enc.array(rows) if verify else None)
            )
        return {
            "ops_n": len(ops),
            "bytes_avoided": self._ops_bytes(ops),
            "plan_hits": plans.hits - h0,
            "plan_misses": plans.misses - m0,
            "checksums": checksums,
        }

    def _footprint(self, key, evs: list) -> np.ndarray:
        """Sorted unique rows my shard committed to this target,
        cached across rounds while the target's commit plan (and hence
        the access pattern) is unchanged."""
        plan = self.commit_plans._plans.get(key)
        cached = self._footprints.get(key)
        if cached is not None and plan is not None and cached[0] is plan:
            return cached[1]
        rows = union_rows([ev.rows for ev in evs], evs[0].shared.shape[0])
        if plan is not None:
            self._footprints[key] = (plan, rows)
        return rows


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
