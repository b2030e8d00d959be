"""Per-phase access recording and the batched commit engine.

While the VPs of a phase execute, every shared-variable access is
recorded here; the commit protocol (in
:mod:`repro.core.runtime`) then applies buffered writes, resolves
collectives, and feeds the recorded traffic to the bundling and timing
models.  Recording computes no costs — that stays in the scheduler —
but the commit itself is the runtime's hottest bulk operation, so
:meth:`PhaseRecorder.apply_writes` turns the per-access
:class:`~repro.core.shared.WriteEvent` stream into a handful of
vectorized numpy operations (see "Commit engine" below) instead of
replaying every buffered access one Python call at a time.  The
one-op-at-a-time reading of the same rules is the test oracle,
``tests/reference.py``.

Commit engine
-------------

Buffered operations sort once by ``(global VP rank, program order)``
— the documented PPM conflict rule — and then partition by target
array ``(shared, instance)``.  Operations on *different* targets never
interact, so the partition preserves semantics exactly.  Within one
target the ordered stream splits into maximal runs of one
``(kind, op)``.  Only runs whose every operation carries a
materialised index array batch — those are the fetches fancy replay
would scatter one op at a time:

* a run of plain writes concatenates row/value arrays in rank order
  and resolves conflicts with a single ``np.lexsort`` (stable,
  position-tiebroken: the last writer per row wins — bitwise what
  sequential replay produces);
* a run of same-operator accumulates concatenates and applies one
  ``np.ufunc.at`` (unbuffered, in index order — bitwise identical to
  per-op application, including floating-point accumulation order);
* everything else — range/slice specs (a contiguous slice assignment
  is already one C-level block copy; concatenating such runs costs
  more than replaying them), partial-row tuple indices, values that do
  not broadcast to their row block — replays per-op via
  :meth:`~repro.core.shared.WriteEvent.replay`.

The index side of each run (concatenated rows, lexsort products) is
compiled once into a :class:`_TargetPlan` and reused while the access
pattern repeats (:class:`CommitPlanCache`).
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.core.collectives import CollectiveSlot
from repro.core.shared import ACCUMULATE_UFUNCS, RowSpec, WriteEvent
from repro.obs.events import VpScheduled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.shared import GlobalShared, NodeShared

_RANK_KEY = operator.attrgetter("rank")


class _RunPlan:
    """Cached products of one maximal same-``(kind, op)`` batchable run
    — everything derived from the *index* side of the run, which
    iterative kernels repeat bit-for-bit every round while only the
    values change: per-op row counts, and either the concatenated rows
    (accumulates) or the last-writer rows plus the positions of their
    values (writes)."""

    __slots__ = ("op", "sizes", "rows_last", "take", "rows")


class _TargetPlan:
    """Replay recipe for one target's full rank-ordered commit stream:
    run segmentation plus one :class:`_RunPlan` per batchable run.

    ``keys`` holds per-event ``(kind, op, RowSpec, rows_exact)``
    tuples; the row specs are strong references, so validating an
    incoming stream by ``is``-identity is exact — a spec object can
    never be recycled while the plan holds it."""

    __slots__ = ("keys", "segments")


def _plan_matches(plan: _TargetPlan, evs: list[WriteEvent]) -> bool:
    keys = plan.keys
    if len(evs) != len(keys):
        return False
    for ev, (kind, op, rows, exact) in zip(evs, keys):
        if (
            ev.kind != kind
            or ev.op != op
            or ev.rows is not rows
            or ev.rows_exact != exact
        ):
            return False
    return True


def _build_target_plan(evs: list[WriteEvent]) -> _TargetPlan:
    """Segment one target's rank-ordered stream into maximal
    same-``(kind, op)`` runs, pre-computing each batchable run's
    concatenated rows and (for writes) the lexsort products."""
    plan = _TargetPlan()
    plan.keys = [(ev.kind, ev.op, ev.rows, ev.rows_exact) for ev in evs]
    segments: list[tuple] = []
    n = len(evs)
    i = 0
    while i < n:
        first = evs[i]
        j = i + 1
        batchable = first.rows_exact and first.rows.array is not None
        while j < n and evs[j].kind == first.kind and evs[j].op == first.op:
            ev = evs[j]
            batchable = batchable and ev.rows_exact and ev.rows.array is not None
            j += 1
        if j - i == 1 or not batchable:
            segments.append(("replay", i, j, None))
        else:
            run = _RunPlan()
            run.op = first.op
            parts = [ev.rows.materialize() for ev in evs[i:j]]
            run.sizes = [r.size for r in parts]
            rows = np.concatenate(parts)
            if first.kind == "write":
                order = np.lexsort((np.arange(rows.size), rows))
                srows = rows[order]
                last = np.ones(srows.size, dtype=bool)
                last[:-1] = srows[1:] != srows[:-1]
                run.rows_last = srows[last]
                run.take = order[last]
                run.rows = None
            else:
                run.rows = rows
                run.rows_last = None
                run.take = None
            segments.append((first.kind, i, j, run))
        i = j
    plan.segments = segments
    return plan


def _apply_plan(target: np.ndarray, evs: list[WriteEvent], plan: _TargetPlan) -> None:
    """Replay one target's stream through its plan: the per-round
    work is value broadcasting and one fancy assignment (or
    ``ufunc.at``) per batched run.  A run whose values do not
    broadcast to their row blocks replays per-op instead."""
    trailing = target.shape[1:]
    dtype = target.dtype
    for kind, i, j, run in plan.segments:
        if kind == "replay":
            for ev in evs[i:j]:
                ev.replay(target)
        elif kind == "write":
            try:
                vals = np.concatenate([
                    np.broadcast_to(
                        np.asarray(ev.value, dtype=dtype), (sz,) + trailing
                    )
                    for ev, sz in zip(evs[i:j], run.sizes)
                ])
            except (ValueError, TypeError):
                for ev in evs[i:j]:
                    ev.replay(target)
                continue
            target[run.rows_last] = vals[run.take]
        else:
            try:
                vals = np.concatenate([
                    np.broadcast_to(np.asarray(ev.value), (sz,) + trailing)
                    for ev, sz in zip(evs[i:j], run.sizes)
                ])
            except (ValueError, TypeError):
                for ev in evs[i:j]:
                    ev.replay(target)
                continue
            ACCUMULATE_UFUNCS[run.op].at(target, run.rows, vals)


class CommitPlanCache:
    """Cross-round cache of :class:`_TargetPlan` replay recipes.

    An iterative solver presents the same index buffers every round;
    this cache keys each target's compiled access pattern by
    ``(shared name, instance)``,
    validates it against the incoming stream by row-spec identity, and
    replays on a hit.  Used by the inline runtime
    (``PpmRuntime.commit_plans``) and by the worker-side zero-merge
    committer of the process backend; a mismatched round simply
    rebuilds (counted in :attr:`misses`), so the cache can never change
    committed bits — only skip redundant index work.
    """

    __slots__ = ("_plans", "hits", "misses")

    def __init__(self) -> None:
        self._plans: dict[tuple, _TargetPlan] = {}
        self.hits = 0
        self.misses = 0

    def apply(self, target: np.ndarray, evs: list[WriteEvent]) -> None:
        """Apply one target's rank-ordered stream, via the cached plan
        when it still matches."""
        key = (evs[0].shared.name, evs[0].instance)
        plan = self._plans.get(key)
        if plan is not None and _plan_matches(plan, evs):
            self.hits += 1
        else:
            plan = _build_target_plan(evs)
            self._plans[key] = plan
            self.misses += 1
        _apply_plan(target, evs, plan)

    def stats(self) -> tuple[int, int]:
        return self.hits, self.misses


class PhaseRecorder:
    """Mutable record of one phase's shared-memory activity.

    ``tracer``/``phase_index`` connect the recorder to the
    observability bus (:mod:`repro.obs`): when a tracer is attached,
    every VP resume reports a
    :class:`~repro.obs.events.VpScheduled` event.
    """

    def __init__(
        self,
        kind: str,
        latency_rounds: int = 1,
        *,
        tracer=None,
        phase_index: int = -1,
    ) -> None:
        self.kind = kind
        self.latency_rounds = latency_rounds
        self.tracer = tracer
        self.phase_index = phase_index
        # (node id, shared) -> [list[RowSpec], exact element count].
        # One flat dict per direction instead of nested per-node maps:
        # recording is per-access, so every removed hash lookup counts.
        # The exact counts matter because row specs overcount when a
        # tuple index touches only part of each row; the aggregator
        # rescales row-derived counts by them.
        self.global_read_recs: dict[tuple, list] = {}
        self.global_write_recs: dict[tuple, list] = {}
        # Buffered operations, one WriteEvent per __setitem__/accumulate.
        self.write_ops: list[WriteEvent] = []
        self._seq = 0
        # node id -> elements written to node-shared instances there.
        self.node_write_elems: dict[int, int] = defaultdict(int)
        # node id -> core id -> accumulated VP cpu seconds.
        self.core_costs: dict[int, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        # Matched collective slots, in call order.
        self.collective_slots: list[CollectiveSlot] = []
        # Node-shared read tallies (node reads record no row specs, so
        # these cannot be derived from the rec maps the way the
        # global-read statistics are).
        self.node_read_ops = 0
        self.node_read_elems = 0

    # ------------------------------------------------------------------
    # Statistics, derived on demand so the per-access hot path pays no
    # bookkeeping beyond the rec-map updates it needs anyway.
    @property
    def read_ops(self) -> int:
        return self.node_read_ops + sum(
            len(r[0]) for r in self.global_read_recs.values()
        )

    @property
    def read_elems(self) -> int:
        return self.node_read_elems + sum(
            r[1] for r in self.global_read_recs.values()
        )

    @property
    def write_elems(self) -> int:
        return sum(r[1] for r in self.global_write_recs.values()) + sum(
            self.node_write_elems.values()
        )

    @property
    def write_events(self) -> list[WriteEvent]:
        """The buffered operations, as the sanitizer consumes them (the
        same objects the commit engine applies)."""
        return [ev for ev in self.write_ops if ev is not None]

    def add_global_read(self, node_id: int, shared: "GlobalShared", rows: RowSpec, n_elem: int) -> None:
        rec = self.global_read_recs.get((node_id, shared))
        if rec is None:
            rec = self.global_read_recs[(node_id, shared)] = [[], 0]
        rec[0].append(rows)
        rec[1] += n_elem

    def add_global_write(
        self,
        node_id: int,
        shared: "GlobalShared",
        rows: RowSpec,
        n_elem: int,
        global_rank: int,
        event: WriteEvent | None = None,
    ) -> None:
        rec = self.global_write_recs.get((node_id, shared))
        if rec is None:
            rec = self.global_write_recs[(node_id, shared)] = [[], 0]
        rec[0].append(rows)
        rec[1] += n_elem
        self._seq += 1
        if event is not None:
            event.seq = self._seq
            self.write_ops.append(event)

    # ------------------------------------------------------------------
    # Bulk merge entry points for the process execution backend
    # (:mod:`repro.parallel`): worker recorders arrive as per-worker
    # reports in contiguous global-rank shard order, so extending the
    # rec lists / op stream worker by worker reproduces exactly the
    # structures the inline engine records VP by VP.
    def absorb_global_reads(self, entries) -> None:
        """Merge ``(node_id, shared, [RowSpec, ...], n_elem)`` tuples
        into the read rec map, preserving arrival order."""
        recs = self.global_read_recs
        for node_id, shared, specs, n_elem in entries:
            rec = recs.get((node_id, shared))
            if rec is None:
                rec = recs[(node_id, shared)] = [[], 0]
            rec[0].extend(specs)
            rec[1] += n_elem

    def absorb_global_writes(self, entries) -> None:
        """Write-side analogue of :meth:`absorb_global_reads` (rec map
        only; the buffered operations arrive via :meth:`absorb_ops`)."""
        recs = self.global_write_recs
        for node_id, shared, specs, n_elem in entries:
            rec = recs.get((node_id, shared))
            if rec is None:
                rec = recs[(node_id, shared)] = [[], 0]
            rec[0].extend(specs)
            rec[1] += n_elem

    def absorb_ops(self, events) -> None:
        """Append reconstructed :class:`WriteEvent`\\ s in program
        order, assigning commit sequence numbers as recording would."""
        for ev in events:
            ev.seq = self._seq = self._seq + 1
            self.write_ops.append(ev)

    def add_vp_cost(
        self, node_id: int, core_id: int, cost: float, *, vp: int = -1
    ) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                VpScheduled(
                    phase=self.phase_index,
                    node=node_id,
                    core=core_id,
                    vp=vp,
                    cost=cost,
                )
            )
        if cost:
            self.core_costs[node_id][core_id] += cost

    def collective_slot(self, index: int, kind: str, op) -> CollectiveSlot:
        """Fetch or create the matched slot for the ``index``-th
        collective call of a VP in this phase."""
        while len(self.collective_slots) <= index:
            self.collective_slots.append(CollectiveSlot(kind, op))
        slot = self.collective_slots[index]
        slot.check_compatible(kind, op)
        return slot

    # ------------------------------------------------------------------
    def apply_writes(
        self, plans: CommitPlanCache, *, prune: frozenset = frozenset()
    ) -> None:
        """Commit all buffered writes.

        Operations apply in increasing (global VP rank, program order),
        so conflicting plain writes resolve deterministically with the
        highest-ranked writer winning — the documented PPM conflict
        rule of this reproduction (``tests/reference.py`` is its
        one-op-at-a-time oracle).  ``plans`` is the runtime's
        :class:`CommitPlanCache`, so iterative kernels pay index
        compilation once per access pattern instead of every round.
        ``prune`` names shared variables whose liveness certificate
        allows the commit to skip copy-on-commit and apply in place
        (``run_ppm(..., snapshot="pruned")``).
        """
        if not self.write_ops:
            return
        # write_ops is appended in seq order, so a stable sort on rank
        # alone yields (rank, seq) order.
        ops = sorted(self.write_ops, key=_RANK_KEY)
        groups: dict[tuple[int, int | None], list[WriteEvent]] = {}
        for ev in ops:
            groups.setdefault((id(ev.shared), ev.instance), []).append(ev)
        for evs in groups.values():
            target = evs[0].shared._commit_target(
                evs[0].instance, prune=evs[0].shared.name in prune
            )
            plans.apply(target, evs)

    def resolve_collectives(self) -> int:
        """Resolve all collective slots; returns total contributions."""
        return sum(slot.resolve() for slot in self.collective_slots)
