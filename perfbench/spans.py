"""Outside-in host-time spans: who spent the seconds of a pass.

Nothing in ``src/repro`` knows about this file.  A :class:`Collector`
replaces public entry points of each layer (class methods, and module
names as the calling module imported them) with timing wrappers for
the duration of a traced pass and restores them afterwards.  One stack
of open frames gives every span its parent; a layer's **self** time is
its span minus the part its child spans cover, so self times of all
layers plus the root frame's remainder add up to the pass's wall time.

Two kinds of wrapper keep the cost of looking small:

* *span* — pushes a frame (it can have wrapped children).  Coarse
  spans (one per ``do``/phase/round-trip) are kept raw with id, parent
  id, pass id, start and end; per-VP spans are folded.
* *leaf* — no frame, no children: shared-variable accesses, event
  emits and per-node timing calls fire hundreds of thousands of times
  a pass and are folded into per-(name, parent name) count/self/total
  rows on the spot.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import time

_perf = time.perf_counter

ROOT = "pass"

# Frame layout: [name, seconds covered by child spans, span id].
_NAME, _CHILD, _ID = 0, 1, 2


class Collector:
    """Spans, folded rows and counters of one traced run."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        #: Closed coarse spans:
        #: (id, parent id, name, pass id, start, end, self seconds).
        self.raw: list[tuple] = []
        #: (name, parent name) -> [count, total seconds, self seconds].
        self.folded: dict[tuple[str, str], list] = {}
        #: Sums the wrappers take at the same boundaries (simulated
        #: barrier seconds, commit-plan cache hits and misses).
        self.counters: dict[str, float] = {}
        self.pass_walls: list[float] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _fold(self, name: str, parent: str, dur: float, self_s: float) -> None:
        row = self.folded.get((name, parent))
        if row is None:
            row = self.folded[(name, parent)] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += self_s

    def span(self, name: str, fn):
        """``fn`` timed as a raw span that may have wrapped children."""
        stack, raw, ids = self.stack, self.raw, self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, next(ids)]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                parent[_CHILD] += dur
                raw.append(
                    (frame[_ID], parent[_ID], name, len(self.pass_walls),
                     t0, t1, dur - frame[_CHILD])
                )

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def leaf(self, name: str, fn, *, sum_result: str | None = None):
        """``fn`` timed as a childless, folded span.  ``sum_result``
        names a counter that accumulates ``fn``'s (numeric) results."""
        stack, folded, counters = self.stack, self.folded, self.counters

        def wrapper(*args, **kwargs):
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                parent = stack[-1]
                parent[_CHILD] += dur
                # _fold, inlined: this runs per shared-variable access.
                row = folded.get((name, parent[_NAME]))
                if row is None:
                    row = folded[(name, parent[_NAME])] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur
            if sum_result is not None:
                counters[sum_result] = counters.get(sum_result, 0.0) + result
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def body(self, name: str, kernel):
        """A timing generator function delegating to the PPM kernel
        ``kernel``: every resume (one VP's prologue or phase body) is
        one folded span, parent of the accesses it makes."""
        stack = self.stack

        def timed(ctx, *args, **kwargs):
            gen = kernel(ctx, *args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [name, 0.0, 0]
                stack.append(frame)
                t0 = _perf()
                try:
                    decl = next(gen)
                except StopIteration:
                    return
                finally:
                    dur = _perf() - t0
                    stack.pop()
                    parent[_CHILD] += dur
                    self._fold(name, parent[_NAME], dur, dur - frame[_CHILD])
                yield decl

        timed.__name__ = kernel.__name__
        timed.__ppm_function__ = True
        return timed

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self, *, inline: bool):
        """Wrap every layer's entry points; restore them on exit.

        ``inline=False`` (the process workload) leaves the kernels and
        the shared-variable accessors alone: they run in forked
        workers, whose spans never reach this collector, and wrapping
        them would only slow the round-trips the parent is timing.
        """
        from repro.analysis import certify, dataflow, lint, liveness
        from repro.analysis.sanitizer import PhaseSanitizer
        from repro.core import runtime
        from repro.core.phase import PhaseRecorder
        from repro.core.shared import GlobalShared
        from repro.machine.network import NetworkModel
        from repro.obs.events import EventBus
        from repro.obs.metrics import RunReport
        from repro.parallel.backend import ProcessBackend
        from repro.parallel.pool import WorkerPool
        from repro.parallel.shm import ShmRegistry

        # The packages re-export functions under their modules' names.
        ppm_cg = importlib.import_module("repro.apps.cg.ppm_cg")
        ppm_bfs = importlib.import_module("repro.apps.graph.ppm_bfs")
        ppm_bh = importlib.import_module("repro.apps.barneshut.ppm_bh")

        def span(name):
            return lambda fn: self.span(name, fn)

        def leaf(name, **kw):
            return lambda fn: self.leaf(name, fn, **kw)

        rt = runtime.PpmRuntime
        plan = [
            (rt, "do", span("core.runtime.do")),
            (rt, "close", lambda fn: self.span("core.runtime.close", self._harvest_plans(fn))),
            (PhaseRecorder, "apply_writes", span("core.phase.commit")),
            (PhaseRecorder, "resolve_collectives", span("core.phase.collectives")),
            (runtime, "aggregate_traffic", span("core.bundling.aggregate")),
            (runtime, "node_comm_cost", leaf("core.scheduler.timing")),
            (runtime, "compose_phase_timing", leaf("core.scheduler.timing")),
            (NetworkModel, "barrier_time", leaf("machine.network.barrier", sum_result="machine.network.barrier_s")),
            (NetworkModel, "allreduce_time", leaf("machine.network.barrier", sum_result="machine.network.barrier_s")),
            (WorkerPool, "__init__", span("parallel.pool.spawn")),
            (WorkerPool, "roundtrip", span("parallel.pool.roundtrip")),
            (WorkerPool, "close", span("parallel.pool.close")),
            (ProcessBackend, "begin_round", span("parallel.backend.begin_round")),
            (ProcessBackend, "fill_recorder", span("parallel.backend.fill_recorder")),
            (ProcessBackend, "finish_commit", span("parallel.backend.finish_commit")),
            (ShmRegistry, "swap", span("parallel.shm.swap")),
            (EventBus, "emit", leaf("obs.events.emit")),
            (RunReport, "from_trace", span("obs.metrics.report")),
            (PhaseSanitizer, "check_phase", span("analysis.sanitizer.check")),
            (dataflow, "verify_paths", span("analysis.dataflow.verify")),
            (lint, "lint_paths", span("analysis.lint.lint")),
            (liveness, "analyze_liveness", span("analysis.liveness.analyze")),
            (certify, "certificate_for", span("analysis.certify.build")),
        ]
        if inline:
            plan += [
                (GlobalShared, "__getitem__", leaf("core.shared.read")),
                (GlobalShared, "__setitem__", leaf("core.shared.write")),
                (GlobalShared, "accumulate", leaf("core.shared.accumulate")),
                (ppm_cg, "_cg_kernel", lambda k: self.body("apps.body", k)),
                (ppm_bfs, "_bfs_kernel", lambda k: self.body("apps.body", k)),
                (ppm_bh, "_bh_kernel", lambda k: self.body("apps.body", k)),
            ]
        try:
            for owner, attr, make in plan:
                self._patch(owner, attr, make)
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def _harvest_plans(self, close):
        """``PpmRuntime.close`` that first adds the runtime's
        ``CommitPlanCache.stats()`` to the counters."""
        counters = self.counters

        def harvesting_close(runtime):
            if runtime.commit_plans is not None:
                hits, misses = runtime.commit_plans.stats()
                counters["plan_hits"] = counters.get("plan_hits", 0) + hits
                counters["plan_misses"] = counters.get("plan_misses", 0) + misses
            return close(runtime)

        return harvesting_close

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def one_pass(self):
        """The root frame of one traced pass; its self time is what no
        wrapper covers."""
        frame = [ROOT, 0.0, next(self._ids)]
        self.stack.append(frame)
        t0 = _perf()
        try:
            yield
        finally:
            t1 = _perf()
            self.stack.pop()
            dur = t1 - t0
            self.raw.append(
                (frame[_ID], 0, ROOT, len(self.pass_walls), t0, t1, dur - frame[_CHILD])
            )
            self.pass_walls.append(dur)

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, list]:
        """name -> [count, total seconds, self seconds] over all
        passes, raw and folded spans together."""
        rows: dict[str, list] = {}
        for _id, _parent, name, _pass, t0, t1, self_s in self.raw:
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += self_s
        for (name, _parent), (count, total, self_s) in self.folded.items():
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += self_s
        return rows

    def to_json(self) -> dict:
        """The trace file: raw spans (times relative to the first
        span) and folded rows."""
        origin = min((s[4] for s in self.raw), default=0.0)
        return {
            "passes": len(self.pass_walls),
            "spans": [
                {
                    "id": sid, "parent": parent, "name": name, "pass": pass_id,
                    "start": t0 - origin, "end": t1 - origin,
                }
                for sid, parent, name, pass_id, t0, t1, _self in self.raw
            ],
            "folded": [
                {
                    "name": name, "parent": parent, "count": count,
                    "total_s": total, "self_s": self_s,
                }
                for (name, parent), (count, total, self_s) in sorted(self.folded.items())
            ],
        }
