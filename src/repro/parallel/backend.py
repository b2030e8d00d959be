"""The process execution backend: parent-side round orchestration.

:class:`ProcessBackend` is the object ``PpmRuntime`` delegates to when
``executor="process"``.  ``workers=N`` means N processes in total: the
VPs split into N contiguous global-rank shards, the parent runs shard
0 (the lowest ranks) itself and forks one worker for each other.  The
division of labour keeps the bitwise contract trivially auditable:

* **workers** run their shards' VP generators against mapped
  shared-memory snapshots and ship back compact recordings — per-VP
  costs/declarations, row specs, buffered write operations, collective
  contributions;
* the **parent** sends each round, steps its own shard straight into
  an ordinary :class:`~repro.core.phase.PhaseRecorder` while the
  workers run theirs (no encoding, no pipe), then gathers their
  recordings into the same recorder and runs the *unchanged* commit,
  bundling, timing, tracing and sanitizer pipeline.  Every float
  accumulates in the same order and every buffered op applies through
  the same engine as the inline executor, so committed arrays and
  simulated clocks are bitwise-identical (property-tested in
  ``tests/parallel``).

Shard 0's records come first, and concatenating the worker reports in
worker order after them *is* VP-rank order.  A phase round costs
exactly one command round-trip per worker — node phases that are
concurrently ready dispatch as a single round.
"""

from __future__ import annotations

import os
import pickle
import time
import zlib

import numpy as np

from repro.core.collectives import CollectiveSlot
from repro.core.errors import ParallelConfigError, PhaseUsageError
from repro.core.shared import NodeShared, RowSpec, WriteEvent
from repro.obs.events import WorkerSpan, ZeroMergeCommit
from repro.parallel.pool import WorkerPool


def default_workers() -> int:
    """Process count (the parent included) used when ``run_ppm(...,
    workers=None)``: the cores this process may run on (its affinity
    mask where the platform has one — a container or ``taskset`` can
    grant fewer than the host's CPU count), clamped to [2, 8] (at least
    one forked worker; beyond 8, pipe traffic outweighs extra cores for
    typical phase bodies)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 2
    return max(2, min(8, cores))


class ProcessBackend:
    """Parent half of the ``executor="process"`` engine."""

    def __init__(self, runtime) -> None:
        self.rt = runtime
        #: Processes in total: the parent and ``n_workers - 1`` forks.
        self.n_workers = runtime.workers or default_workers()
        self._pool = WorkerPool(
            self.n_workers - 1, {"config": runtime.cluster.config}
        )
        # Worker supervision (a failure policy under this executor):
        # the pool hands the supervisor the failures it detects, and
        # the run restarts.
        res = runtime.resilience
        self.supervisor = None if res is None else res.supervision
        if self.supervisor is not None:
            self.supervisor.backend = self
            self._pool.supervisor = self.supervisor
        # Per-do state (reset by start_do): the parent's own VP records
        # (shard 0) by node.
        self._own_by_node: dict = {}
        self._coll_outbox: list = []
        # Worker phase plans, parent half: per (worker, plan id) -> the
        # decoded [runs, node write elems, written targets, operation
        # template] a repeat's plan id resolves to (the template once a
        # stream of the shape has been shipped).
        self._rec_cache: list[dict] = []
        # (variable, instance) pairs some shard held a live snapshot
        # view of when the copy-on-commit guard was last set.
        self._live_views: set = set()
        # Round state (reset by begin_round), keyed by node key (None:
        # the global phase): the workers' reports until fill_recorder
        # merges them, every shard's (certified, zero-merge) vote, the
        # targets the workers' held operations write; the replies'
        # views (None until gathered).
        self._hold = False
        self._committing = False  # a commit command is in flight
        self._reports: dict = {}
        self._votes: dict = {}
        self._hold_wtargets: dict = {}
        self._worker_views: set | None = set()
        # The round's WorkerSpan rows, [worker, vps, host seconds], the
        # parent's first; emitted when the round ends, on the tracer
        # (and with the phase) it began with.
        self._spans: list = []
        self._span_to = (None, 0)
        self._own_t0 = 0.0
        # Digest verification: recompute each worker's committed-rows
        # checksum parent-side (tests and CI set this; costs a gather
        # per target per round, so it is opt-in).
        self._verify = bool(os.environ.get("PPM_ZERO_MERGE_VERIFY"))

    # ==================================================================
    # do lifecycle
    # ==================================================================
    def start_do(self, counts, funcs, args, kwargs, default_decl, vps_by_node):
        """Send the kernel, shared-segment map and VP shards to the
        workers, which build their VPs and run them to their first
        declaration (gathered by :meth:`gather_start` once the parent
        has run its own); shard 0 is the VPs the runtime built
        generators for."""
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
            "default_decl": default_decl,
            "shared": self._shared_specs(),
        }
        total = sum(counts)
        n = self.n_workers
        shards = [((i * total) // n, ((i + 1) * total) // n) for i in range(1, n)]
        self._own_by_node = {}
        for node_id, node_vps in enumerate(vps_by_node):
            own = [vp for vp in node_vps if vp.gen is not None]
            if own:
                self._own_by_node[node_id] = own
        self._coll_outbox = []
        self._reports = {}
        self._rec_cache = [{} for _ in range(n - 1)]
        self._replace_views(set())
        if self.supervisor is not None:
            self.supervisor.max_shard = max(
                (hi - lo for lo, hi in shards), default=0
            )
        self._pool.send(
            "do_start", None,
            per_worker=[{"common": common, "shard": s} for s in shards],
        )

    def gather_start(self) -> list:
        """Every forked VP's ``(global rank, done, next declaration,
        cost)`` once its prologue ran (the ``do_start`` replies)."""
        return [
            state
            for states in self._pool.gather()
            if states is not None
            for state in states
        ]

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
        """Make ``views`` — the (variable, instance) pairs some shard
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

    def end_do(self) -> None:
        """Release per-do worker state; best-effort because this runs
        in the ``finally`` of ``do`` with any real error propagating
        (a round still in flight is drained first)."""
        self._emit_spans()
        self._pool.best_effort("do_end", None)
        self.rt.shm.sweep()
        self._reports = {}
        self._coll_outbox = []
        self._own_by_node = {}

    def close(self) -> None:
        self._pool.close()
        if self.supervisor is not None:
            self.supervisor.backend = None  # the run's state outlives us

    # ==================================================================
    # Phase rounds
    # ==================================================================
    def begin_round(self, kind: str, nodes, vps_by_node) -> None:
        """Send one phase round to the workers (gathered by
        :meth:`fill_recorder` once the parent has stepped its shard)."""
        rt = self.rt
        self._emit_spans()
        core_map = None
        if rt.config.load_balancing:
            # The runtime just packed the round's VPs (LPT); workers
            # receive the map so VP code observes the same ctx.core_id
            # as inline execution.
            core_map = {
                vp.ctx.global_rank: vp.ctx.core_id
                for n in nodes
                for vp in vps_by_node[n]
                if not vp.done
            }
        hold = self._may_hold()
        cmd = {
            "kind": kind,
            "nodes": list(nodes),
            "coll_results": self._coll_outbox,
            "remaps": rt.shm.drain_remaps(),
            "core_map": core_map,
            # Speculative hold: the workers' certification flags only
            # arrive with the replies, so an eligible round always
            # holds; groups that turn out uncertified fall back to
            # shipping their operations with the commit command.
            "mode": "hold" if hold else "ship",
        }
        self._hold = hold
        self._committing = False
        self._reports = {}
        self._votes = {}
        self._hold_wtargets = {}
        self._worker_views = None
        self._coll_outbox = []
        self._spans = [[0, 0, 0.0]]
        self._span_to = (rt.tracer, rt.stats_global_phases + rt.stats_node_phases)
        self._pool.send("round", cmd)

    def start_shard(self, nodes) -> None:
        """The parent's shard starts stepping the group of ``nodes``:
        its span counts the group's active VPs and its clock starts."""
        self._spans[0][1] += sum(
            1 for n in nodes for vp in self._own_by_node.get(n, ()) if not vp.done
        )
        self._own_t0 = time.perf_counter()

    def fill_recorder(self, recorder, node_key) -> dict[int, tuple]:
        """Gather the round's replies (on its first call), set the
        copy-on-commit guard to the views every shard holds now, and
        merge the workers' reports for ``node_key`` (None: the global
        phase) into the recorder after the parent's own records;
        returns each reported VP's ``(done, next declaration, cost)``
        by global rank, which the runtime's stepping loop replays in VP
        order — the same float-accumulation structure as inline."""
        self._spans[0][2] += time.perf_counter() - self._own_t0
        if self._worker_views is None:
            self._gather_round()
        rt = self.rt
        self._replace_views(self._worker_views.union(
            rt.shm.probe.live_views(rt.shared_registry.values())
        ))
        by_rank: dict[int, tuple] = {}
        for w, rep in self._reports.pop(node_key, ()):
            self._merge_report(recorder, w, rep, by_rank)
        return by_rank

    def _gather_round(self) -> None:
        views = set()
        for w, rep in enumerate(self._pool.gather()):
            if rep is None:
                continue
            views.update(rep["views"])
            stepped = 0
            for node_key, report, flags in rep["groups"]:
                stepped += len(report["vps"])
                self._reports.setdefault(node_key, []).append((w, report))
                # A worker with no active VPs in the group votes
                # (None, None): an abstention.
                self._votes.setdefault(node_key, []).append(flags)
                if self._hold:
                    # Written targets ship with a shape's first round
                    # and are remembered under its plan id.
                    self._hold_wtargets.setdefault(node_key, set()).update(
                        report["wtargets"]
                        if "wtargets" in report
                        else self._rec_cache[w][report["plan"]][2]
                    )
            self._spans.append([w + 1, stepped, rep["host_s"]])
        self._worker_views = views

    def _emit_spans(self) -> None:
        """The finished round's :class:`WorkerSpan` events: the
        parent's shard is worker 0, forked worker ``k`` is ``k + 1``."""
        (tr, phase), self._span_to = self._span_to, (None, 0)
        if tr is not None:
            for w, vps, host_s in self._spans:
                tr.emit(WorkerSpan(phase=phase, worker=w, vps=vps, host_s=host_s))

    def _group_flags(self, node_key) -> tuple[bool, bool]:
        """``(certified, zero_merge)``: every shard that voted agrees."""
        voted = [f for f in self._votes.get(node_key, ()) if f[0] is not None]
        return (
            bool(voted) and all(c for c, _z in voted),
            bool(voted) and all(z for _c, z in voted),
        )

    def round_certified(self, node_key, vote) -> bool:
        """Add the parent's shard's ``vote`` on this group to the
        workers': did every shard with active VPs in it sit at a
        certified yield when the round began?"""
        self._votes.setdefault(node_key, []).append(vote)
        return self._group_flags(node_key)[0]

    def begin_commit(self, recorder, node_key) -> None:
        """Send a held round's commit command for ``node_key`` (none
        for ship-mode rounds, whose operations came with the replies,
        or for groups no worker holds operations of).  A zero-merge
        group commits worker-side while the parent commits its own
        shard's operations through its ordinary commit, and
        :meth:`finish_commit` gathers the digests; an ineligible group
        ships its operation stream now, absorbed into the recorder after
        the parent's own as a ship-mode round's — the sanitizer and the
        ordinary rank-ordered commit then run unchanged.  Node groups of
        a round commit one by one, as inline (node phases write only
        their own node's instances, so no group sees another's commit).
        """
        if not self._hold or node_key not in self._hold_wtargets:
            return
        rt = self.rt
        zero_merge = self._group_flags(node_key)[1]
        if zero_merge:
            # Copy-on-commit before anyone writes in place: every target
            # a live view may alias — the parent's own shard's included
            # — swaps now, its remap travelling with the command.
            targets = self._hold_wtargets[node_key]
            if self._live_views:
                targets = targets | {
                    (ev.shared.name, ev.instance) for ev in recorder.write_ops
                }
            registry = rt.shared_registry
            for name, instance in sorted(
                targets, key=lambda t: (t[0], -1 if t[1] is None else t[1])
            ):
                registry[name]._commit_target(instance)
        self._pool.send("commit", {
            "remaps": rt.shm.drain_remaps(),
            "group": (node_key, "local" if zero_merge else "ship"),
            "verify": self._verify,
        })
        self._committing = True
        if not zero_merge:
            self._gather_commit(recorder, node_key)

    def finish_commit(self, recorder, node_key) -> None:
        """Gather a zero-merge group's digests, and queue the round's
        resolved collective results for the next round command
        (worker-held handles resolve from them)."""
        if self._committing:
            self._gather_commit(recorder, node_key)
        if recorder.collective_slots:  # scan: prefixes by global rank
            self._coll_outbox.append((node_key, [
                (s.kind, s.entries[0][2]._value if s.entries else None)
                if s.kind == "reduce"
                else (s.kind, {r: h._value for r, _v, h in s.entries})
                for s in recorder.collective_slots
            ]))

    def _gather_commit(self, recorder, node_key) -> None:
        self._committing = False
        workers = ops_n = avoided = hits = misses = 0
        for w, d in enumerate(self._pool.gather()):
            if d is None:
                continue
            if "values" in d:
                recorder.write_ops.extend(
                    self._events(self._rec_cache[w].get(d["plan"]), d)
                )
            elif d["ops_n"]:
                workers += 1
                ops_n += d["ops_n"]
                avoided += d["bytes_avoided"]
                hits += d["plan_hits"]
                misses += d["plan_misses"]
                if self._verify:
                    self._verify_digest(w, d)
        rt = self.rt
        if ops_n and rt.tracer is not None:
            rt.tracer.emit(ZeroMergeCommit(
                phase=rt.stats_global_phases + rt.stats_node_phases,
                node=-1 if node_key is None else node_key,
                workers=workers, ops=ops_n, plan_hits=hits,
                plan_misses=misses, bytes_avoided=avoided,
            ))

    def _verify_digest(self, w: int, digest: dict) -> None:
        registry = self.rt.shared_registry
        for name, instance, crc, rows in digest.get("checksums", ()):
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

    # ==================================================================
    # Report decoding
    # ==================================================================
    def _events(self, shape: list | None, msg: dict) -> list:
        """A worker's shipped operation stream as WriteEvents: ``msg``'s
        values on the template shipped beside them — kept in ``shape``,
        the cache entry of the round's plan (None for a round that can
        never repeat) — or on the one kept there by an earlier stream:
        the same specs, so a repeated stream commits and signs as the
        first one did."""
        ops = msg.get("ops")
        if ops is None:
            template = shape[3]
        else:
            registry = self.rt.shared_registry
            template = [
                (registry[name], instance, kind, op, idx,
                 RowSpec(*rows, shared=registry[name]), rank, exact)
                for name, instance, kind, op, idx, rows, rank, exact in ops
            ]
            if shape is not None:
                shape[3] = template
        return [
            WriteEvent(sv, instance, kind, op, idx, value, rows, rank, exact)
            for (sv, instance, kind, op, idx, rows, rank, exact), value
            in zip(template, msg["values"])
        ]

    def _merge_report(self, recorder, w: int, rep: dict, by_rank: dict) -> None:
        # Resolve the record structure: a repeated phase shape arrives
        # as its plan id and resolves to the footprints decoded when it
        # was new — the same specs, so a steady-state round extends the
        # recorder's lists and nothing else.  A round with no plan id
        # held a row log: nothing of it is kept, and the parent's round
        # can never repeat either.
        pid = rep["plan"]
        if "runs" in rep:
            registry = self.rt.shared_registry

            def footprints(encoded):
                specs = []
                for name, rows, elems, ops in encoded:
                    spec = RowSpec(*rows, shared=registry[name], elems=elems)
                    spec.ops = ops
                    specs.append(spec)
                return specs

            shape = [
                [
                    (node_id, footprints(reads), footprints(writes))
                    for node_id, reads, writes in rep["runs"]
                ],
                rep["nwe"], rep.get("wtargets", ()), None,
            ]
            if pid is None:
                recorder.one_shot = True
            else:
                self._rec_cache[w][pid] = shape
        else:
            shape = self._rec_cache[w][pid]
        runs, nwe = shape[0], shape[1]
        if "values" in rep:
            recorder.write_ops.extend(self._events(shape, rep))
        for node_id, reads, writes in runs:
            recorder.absorb(node_id, reads, writes)
        for node_id, n_elem in nwe.items():
            recorder.node_write_elems[node_id] += n_elem
        slots = recorder.collective_slots
        for i, kind, op, entries in rep["colls"]:
            while len(slots) <= i:
                slots.append(CollectiveSlot(kind, op))
            slot = slots[i]
            # Cross-shard compatibility: kinds must match; ops compare
            # by equality only when comparable (unpickled callables are
            # distinct objects, and each shard already enforced its own
            # compatibility).
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
