"""The process execution backend: parent-side round orchestration.

:class:`ProcessBackend` is the object ``PpmRuntime`` delegates to when
``executor="process"``.  The division of labour keeps the bitwise
contract trivially auditable:

* **workers** run the VP generators (the only part of a PPM program
  that needs real cores) against mapped shared-memory snapshots and
  ship back compact recordings — per-VP costs/declarations, row specs,
  buffered write operations, collective contributions;
* the **parent** replays those recordings into an ordinary
  :class:`~repro.core.phase.PhaseRecorder` in global-VP-rank order and
  then runs the *unchanged* commit, bundling, timing, tracing and
  sanitizer pipeline.  Every float accumulates in the same order and
  every buffered op applies through the same engine as the inline
  executor, so committed arrays and simulated clocks are
  bitwise-identical (property-tested in ``tests/parallel``).

Shards are contiguous global-rank ranges, one per worker, so
concatenating worker reports in worker order *is* VP-rank order.
A phase round costs exactly one command round-trip per worker — node
phases that are concurrently ready dispatch as a single round.
"""

from __future__ import annotations

import os
import pickle
import zlib

import numpy as np

from repro.core.collectives import CollectiveSlot
from repro.core.constructs import PhaseDecl
from repro.core.errors import ParallelConfigError, PhaseUsageError
from repro.core.shared import NodeShared, RowSpec, WriteEvent
from repro.obs.events import WorkerSpan, ZeroMergeCommit
from repro.parallel.pool import WorkerPool


def default_workers() -> int:
    """Worker count used when ``run_ppm(..., workers=None)``: the cores
    this process may run on (its affinity mask where the platform has
    one — a container or ``taskset`` can grant fewer than the host's
    CPU count), clamped to [2, 8] (beyond 8, pipe traffic outweighs
    extra cores for typical phase bodies)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 2
    return max(2, min(8, cores))


class ProcessBackend:
    """Parent half of the ``executor="process"`` engine."""

    def __init__(self, runtime) -> None:
        self.rt = runtime
        self.n_workers = runtime.workers or default_workers()
        self._pool = WorkerPool(
            self.n_workers, {"config": runtime.cluster.config}
        )
        # Worker supervision: the pool hands the supervisor the
        # failures it detects, and the run restarts.
        self.supervisor = None
        if getattr(runtime, "supervision", None) is not None:
            from repro.parallel.supervisor import (
                SupervisionState,
                WorkerSupervisor,
            )

            state = runtime.supervision_state
            if state is None:
                state = SupervisionState()
            self.supervisor = WorkerSupervisor(
                self, runtime.supervision, state
            )
            self.supervisor.pool = self._pool
            self._pool.supervisor = self.supervisor
        # Per-do decode state (reset by start_do).
        self._vp_index: dict = {}
        self._arrays: list[dict] = []
        self._specs: list[dict] = []
        self._decls: dict = {}
        self._coll_outbox: list = []
        # node key (None: the global phase) -> [(worker, report)] of the
        # dispatched round, until fill_recorder merges them.
        self._reports: dict = {}
        # Worker-held phase plans, parent half: per (worker, plan id)
        # -> the decoded (runs, node write elems, written targets) a
        # later "rec_plan" reference resolves to.
        self._rec_cache: list[dict] = []
        # (variable, instance) pairs the last round's replies reported
        # a live snapshot view of.
        self._live_views: set = set()
        # Zero-merge round state (reset by begin_round).
        self._hold = False
        self._round_flags: dict = {}
        self._hold_wtargets: dict = {}
        self._commit_replies: dict | None = None
        # Digest verification: recompute each worker's committed-rows
        # checksum parent-side (tests and CI set this; costs a gather
        # per target per round, so it is opt-in).
        self._verify = bool(os.environ.get("PPM_ZERO_MERGE_VERIFY"))

    # ==================================================================
    # do lifecycle
    # ==================================================================
    def start_do(self, counts, funcs, args, kwargs, default_decl, vps_by_node):
        """Ship the kernel, shared-segment map and VP shards."""
        rt = self.rt
        # Segment names shipped below are current; earlier swaps are
        # irrelevant to workers that are only now attaching.
        rt.shm.drain_remaps()
        try:
            blob = pickle.dumps(
                (funcs, args, kwargs), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:
            raise ParallelConfigError(
                "executor='process' ships the PPM function and its "
                f"arguments to worker processes, but pickling failed: "
                f"{exc!r}.  Use module-level functions and picklable "
                "arguments (lambdas and locally-defined closures are not)",
                code="PPM501",
            ) from exc
        common = {
            "kernel": blob,
            "counts": list(counts),
            "default_decl": (default_decl.kind, default_decl.latency_rounds),
            "shared": self._shared_specs(),
            # Workers rebuild the kernel certificate from their own
            # unpickled copy (the analysis is a pure function of source
            # + argument classification): the parent cannot check
            # suspended frames that live in the workers.
            "certify": rt._active_cert is not None,
        }
        total = sum(counts)
        w = self.n_workers
        payloads = [
            {
                "common": common,
                "shard": ((i * total) // w, ((i + 1) * total) // w),
            }
            for i in range(w)
        ]
        self._vp_index = {
            vp.ctx.global_rank: vp
            for node_vps in vps_by_node
            for vp in node_vps
        }
        self._arrays = [{} for _ in range(w)]
        self._specs = [{} for _ in range(w)]
        self._decls = {}
        self._coll_outbox = []
        self._reports = {}
        self._rec_cache = [{} for _ in range(w)]
        self._replace_views(set())
        self._round_flags = {}
        self._hold_wtargets = {}
        self._commit_replies = None
        if self.supervisor is not None:
            self.supervisor.begin_do(p["shard"] for p in payloads)
        self._pool.roundtrip("do_start", None, per_worker=payloads)

    def _may_hold(self) -> bool:
        """May this ``do``'s rounds hold their operations worker-side
        (zero-merge commit)?  Only when a certificate exists and the
        commit pipeline has no stage that must see the operation stream
        parent-side before writes apply; otherwise every round ships
        its records.  The one place that choice is made."""
        rt = self.rt
        return rt._active_cert is not None and (
            rt.sanitizer is None or rt.sanitize_auto
        )

    def _shared_specs(self) -> list:
        """The shared-variable -> segment map shipped with do_start."""
        rt = self.rt
        seg = rt.shm.segment_of
        specs = []
        for name, sv in rt.shared_registry.items():
            if isinstance(sv, NodeShared):
                segs = [
                    (node_id, seg(name, node_id))
                    for node_id in range(rt.cluster.n_nodes)
                ]
                specs.append((name, "node", sv.shape, sv.dtype, segs))
            else:
                specs.append(
                    (name, "global", sv.shape, sv.dtype, seg(name, None))
                )
        return specs

    def _replace_views(self, views) -> None:
        """Make ``views`` — the (variable, instance) pairs some worker
        still holds a snapshot view of — the registry's copy-on-commit
        guard.  Replaced, never merged: a buffer is guarded only while
        a reader of it is alive (none outlives its ``do``), so a
        dropped view stops costing a segment swap at every commit."""
        registry = self.rt.shared_registry
        for flag, pairs in ((False, self._live_views), (True, views)):
            for name, instance in pairs:
                sv = registry[name]
                if instance is None:
                    sv._views_taken = flag
                else:
                    sv._views_taken[instance] = flag
        self._live_views = views

    def run_prologue(self, vps_by_node) -> None:
        """Run every VP to its first phase declaration, worker-side."""
        for states in self._pool.roundtrip("prologue", None):
            if states is None:
                continue
            for grank, done, decl, _cost in states:
                self.apply_state(self._vp_index[grank], done, decl)

    def end_do(self) -> None:
        """Release per-do worker state; best-effort because this runs
        in the ``finally`` of ``do`` with any real error propagating."""
        self._pool.best_effort("do_end", None)
        self.rt.shm.sweep()
        self._reports = {}
        self._coll_outbox = []
        self._commit_replies = None

    def close(self) -> None:
        self._pool.close()

    # ==================================================================
    # Phase rounds
    # ==================================================================
    def begin_round(self, kind: str, nodes, vps_by_node) -> None:
        """Dispatch one phase round to the workers and stash their
        reports for :meth:`fill_recorder`."""
        rt = self.rt
        body_vps = [vp for n in nodes for vp in vps_by_node[n]]
        core_map = None
        if rt.config.load_balancing:
            # The parent owns the (deterministic, cost-history-based)
            # LPT packing; workers receive the resulting map so VP code
            # observes the same ctx.core_id as inline execution.
            rt._assign_cores(body_vps)
            core_map = {
                vp.ctx.global_rank: vp.ctx.core_id
                for vp in body_vps
                if not vp.done
            }
        hold = self._may_hold()
        cmd = {
            "kind": kind,
            "nodes": list(nodes),
            "coll_results": self._coll_outbox,
            "remaps": rt.shm.drain_remaps(),
            "core_map": core_map,
            # Speculative hold: certification flags only arrive with
            # the replies, so an eligible round always holds; rounds
            # that turn out uncertified fall back to shipping their
            # operations with the commit command.
            "mode": "hold" if hold else "ship",
        }
        self._hold = hold
        self._round_flags = {}
        self._hold_wtargets = {}
        self._commit_replies = None
        self._coll_outbox = []
        replies = self._pool.roundtrip("round", cmd)
        # Before any commit of this round, held or shipped: the
        # copy-on-commit guard is what the workers hold *now*.
        self._replace_views(
            {v for rep in replies if rep is not None for v in rep["views"]}
        )
        flag_lists: dict = {}
        self._reports = reports = {}
        for w, rep in enumerate(replies):
            if rep is None:
                continue
            if kind == "global":
                groups = [(None, rep["report"], rep["flags"])]
            else:
                groups = rep["nodes"]
            for node_key, report, flags in groups:
                reports.setdefault(node_key, []).append((w, report))
                flag_lists.setdefault(node_key, []).append(flags)
                if hold:
                    # Written targets ship with a shape's first round
                    # and are remembered under its plan id.
                    pid = report.get("rec_plan")
                    self._hold_wtargets.setdefault(node_key, set()).update(
                        report["wtargets"]
                        if pid is None
                        else self._rec_cache[w][pid][2]
                    )
        # Combine each group's per-worker flags: a worker with no
        # active VPs in the group reports (None, None) and abstains;
        # everyone else must agree for the round to count as certified
        # (resp. zero-merge eligible).
        for node_key, flags in flag_lists.items():
            voted = [f for f in flags if f[0] is not None]
            self._round_flags[node_key] = (
                bool(voted) and all(c for c, _z in voted),
                bool(voted) and all(z for _c, z in voted),
            )
        tr = rt.tracer
        if tr is not None:
            phase_index = rt.stats_global_phases + rt.stats_node_phases
            for w, rep in enumerate(replies):
                if rep is None:
                    continue
                tr.emit(
                    WorkerSpan(
                        phase=phase_index,
                        worker=w,
                        vps=rep["advanced"],
                        host_s=rep["host_s"],
                    )
                )

    def fill_recorder(self, recorder, node_key) -> dict[int, tuple]:
        """Merge this round's worker reports for ``node_key`` (None: the
        global phase) into the parent recorder; returns each reported
        VP's ``(done, next declaration, cost)`` by global rank, which
        the runtime's stepping loop replays in VP order — the same
        float-accumulation structure as inline execution."""
        by_rank: dict[int, tuple] = {}
        for w, rep in self._reports.pop(node_key, ()):
            self._merge_report(recorder, w, rep, by_rank)
        return by_rank

    def round_certified(self, node_key) -> bool:
        """Did every worker with active VPs in this group sit at a
        certified yield when the round began?  (The parent cannot
        inspect the suspended frames itself — they live in the
        workers.)"""
        return self._round_flags.get(node_key, (False, False))[0]

    def finish_commit(self, recorder, node_key) -> None:
        """Resolve a held round's commit for ``node_key``.

        No-op for ship-mode rounds (operations already arrived with the
        round replies).  For a held round, the *first* call runs the
        single commit round-trip covering every group of the round:
        zero-merge-eligible groups commit worker-side (their reply is a
        fixed-size digest and ``recorder.write_ops`` stays empty);
        ineligible groups fall back to shipping their operation stream
        here, absorbed into the recorder exactly as a ship-mode round
        would have — the sanitizer and the parent's ordinary
        rank-ordered commit then run unchanged.

        Node phases of one round are committed together: their targets
        are disjoint by construction (node phases write only their own
        node's instances), and the paper leaves cross-node commit order
        within an asynchronous round unspecified.
        """
        if not self._hold:
            return
        if self._commit_replies is None:
            self._run_commit_round()
        rt = self.rt
        registry = rt.shared_registry
        tr = rt.tracer
        total_ops = 0
        total_bytes = 0
        total_hits = 0
        total_misses = 0
        workers = 0
        for w, d in self._commit_replies.pop(node_key, []):
            ops = d.get("ops")
            if ops is not None:
                recorder.write_ops.extend(self._events(w, ops))
                continue
            n = d.get("ops_n", 0)
            if not n:
                continue
            workers += 1
            total_ops += n
            total_bytes += d.get("bytes_avoided", 0)
            total_hits += d.get("plan_hits", 0)
            total_misses += d.get("plan_misses", 0)
            if self._verify:
                self._verify_digest(w, d)
        if total_ops and tr is not None:
            tr.emit(
                ZeroMergeCommit(
                    phase=rt.stats_global_phases + rt.stats_node_phases,
                    node=-1 if node_key is None else node_key,
                    workers=workers,
                    ops=total_ops,
                    plan_hits=total_hits,
                    plan_misses=total_misses,
                    bytes_avoided=total_bytes,
                )
            )

    def _run_commit_round(self) -> None:
        """The round's single commit round-trip, covering every held
        group: decide local-vs-ship per group, pre-swap aliased targets
        of locally-committed groups (copy-on-commit must happen
        *before* any worker writes), and ship the resulting remaps with
        the decisions."""
        rt = self.rt
        registry = rt.shared_registry
        groups = []
        for node_key, (_certified, zero_merge) in sorted(
            self._round_flags.items(),
            key=lambda kv: -1 if kv[0] is None else kv[0],
        ):
            decision = "local" if zero_merge else "ship"
            if decision == "local":
                for name, instance in sorted(
                    self._hold_wtargets.get(node_key, ()),
                    key=lambda t: (t[0], -1 if t[1] is None else t[1]),
                ):
                    registry[name]._commit_target(instance)
            groups.append((node_key, decision))
        cmd = {
            "remaps": rt.shm.drain_remaps(),
            "groups": groups,
            "verify": self._verify,
        }
        replies = self._pool.roundtrip("commit", cmd)
        merged: dict = {}
        for w, rep in enumerate(replies):
            if rep is None:
                continue
            for node_key, d in rep["groups"]:
                merged.setdefault(node_key, []).append((w, d))
        self._commit_replies = merged

    def _verify_digest(self, w: int, digest: dict) -> None:
        registry = self.rt.shared_registry
        for name, instance, crc, rows_enc in digest.get("checksums", ()):
            rows = self._array(w, rows_enc)
            sv = registry[name]
            target = sv._data if instance is None else sv._data[instance]
            here = zlib.crc32(np.ascontiguousarray(target[rows]).tobytes())
            if here != crc:
                raise RuntimeError(
                    f"zero-merge digest mismatch on {name!r}"
                    f"{'' if instance is None else f'[{instance}]'}: "
                    f"worker {w} committed crc32={crc:#010x}, parent "
                    f"reads {here:#010x} over the same rows — the "
                    "conflict-freedom certificate did not hold"
                )

    def harvest_collectives(self, recorder, node_key) -> None:
        """Queue the round's resolved collective results for broadcast
        with the next round command (worker-held handles resolve from
        them).  ``node_key`` is ``None`` for a global phase, the node
        id for a node phase."""
        slots = recorder.collective_slots
        if not slots:
            return
        results = []
        for slot in slots:
            if slot.kind == "reduce":
                payload = slot.entries[0][2]._value if slot.entries else None
            else:  # scan: per-contributor prefix, keyed by global rank
                payload = {
                    rank: handle._value for rank, _v, handle in slot.entries
                }
            results.append((slot.kind, payload))
        self._coll_outbox.append((node_key, results))

    # ==================================================================
    # Report decoding
    # ==================================================================
    def apply_state(self, vp, done: bool, decl) -> None:
        if done:
            vp.done = True
            vp.decl = None
        else:
            vp.decl = self._decl(decl)
            vp.phase_index += 1

    def _decl(self, key) -> PhaseDecl:
        decl = self._decls.get(key)
        if decl is None:
            decl = self._decls[key] = PhaseDecl(key[0], latency_rounds=key[1])
        return decl

    def _array(self, w: int, enc):
        if enc[0] == "n":
            _tag, iid, arr = enc
            self._arrays[w][iid] = arr
            return arr
        return self._arrays[w][enc[1]]

    def _spec(self, w: int, name: str, enc, *, elems: int = 0, exact: bool = True) -> RowSpec:
        """The parent's row spec for worker ``w``'s encoded spec — an
        operation's rows (``exact`` as shipped) or an access footprint
        (``elems`` as shipped).

        Interned per (variable, element count, exactness, encoded
        rows), so the spec's serial stands for everything a phase
        signature reads off it, exactly as an inline footprint's does:
        iterative kernels reuse the same slices and index arrays phase
        after phase, and the parent then presents the same serials
        round after round."""
        specs = self._specs[w]
        key = (name, elems, exact, enc if enc[0] == "R" else enc[1][1])
        spec = specs.get(key)
        if spec is None:
            shared = self.rt.shared_registry[name]
            if enc[0] == "R":
                spec = RowSpec(*enc[1:], shared=shared, elems=elems)
            else:
                spec = RowSpec(array=self._array(w, enc[1]), shared=shared, elems=elems)
            specs[key] = spec
        elif enc[0] == "A" and enc[1][0] == "n":
            self._array(w, enc[1])  # keep the decode table consistent
        return spec

    def _idx(self, w: int, enc):
        tag, payload = enc
        if tag == "a":
            return self._array(w, payload)
        return payload

    def _events(self, w: int, ops):
        """Worker ``w``'s encoded operation stream as WriteEvents."""
        registry = self.rt.shared_registry
        for name, instance, kind, op, idx_enc, value, spec_enc, rank, exact in ops:
            yield WriteEvent(
                registry[name], instance, kind, op, self._idx(w, idx_enc),
                value, self._spec(w, name, spec_enc, exact=exact), rank, exact,
            )

    def _merge_report(self, recorder, w: int, rep: dict, by_rank: dict) -> None:
        # Decode the operation stream *first*: the worker encodes ops
        # before the access records, so an index array's first mention
        # (the ``("n", iid, arr)`` form later records reference by id)
        # can live only there.  Held rounds have no ops here — they
        # ship theirs with the commit reply, which the worker also
        # encodes last.
        ops = rep.get("ops")
        if ops is not None:
            recorder.write_ops.extend(self._events(w, ops))
        # Resolve the record structure: a repeated phase shape arrives
        # as a plan reference and resolves to the footprints decoded
        # when it was new — the same specs, so a steady-state round
        # extends the recorder's lists and nothing else.
        pid = rep.get("rec_plan")
        if pid is not None:
            runs, nwe, _wtargets = self._rec_cache[w][pid]
        else:
            runs = [
                (
                    node_id,
                    [self._spec(w, name, enc, elems=n) for name, enc, n in reads],
                    [self._spec(w, name, enc, elems=n) for name, enc, n in writes],
                )
                for node_id, reads, writes in rep["runs"]
            ]
            nwe = rep["nwe"]
            self._rec_cache[w][rep["rec_new"]] = (runs, nwe, rep.get("wtargets", ()))
        for node_id, reads, writes in runs:
            recorder.absorb(node_id, reads, writes)
        for node_id, n_elem in nwe.items():
            recorder.node_write_elems[node_id] += n_elem
        slots = recorder.collective_slots
        for i, kind, op, entries in rep["colls"]:
            while len(slots) <= i:
                slots.append(CollectiveSlot(kind, op))
            slot = slots[i]
            # Cross-worker compatibility: kinds must match; ops compare
            # by equality only when comparable (unpickled callables are
            # distinct objects, and each worker already enforced
            # intra-worker compatibility).
            if kind != slot.kind or (
                (isinstance(op, str) or isinstance(slot.op, str))
                and op != slot.op
            ):
                raise PhaseUsageError(
                    f"mismatched phase collectives across workers: slot {i} "
                    f"is {slot.kind!r}/{slot.op!r}, a worker recorded "
                    f"{kind!r}/{op!r}"
                )
            for rank, value in entries:
                slot.add(rank, value)
        for grank, done, decl, cost in rep["vps"]:
            by_rank[grank] = (done, decl, cost)
