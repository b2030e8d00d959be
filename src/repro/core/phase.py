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

A target's batched runs are compiled into a :class:`_TargetPlan`
(concatenated rows, lexsort products) only on the *second* sighting of
its stream (:class:`CommitPlanCache`): the first sighting replays op by
op, in rank order — exactly ``tests/reference.py``'s oracle — and keeps
nothing but the stream's keys, serial numbers that hold no spec or
array.  So a data-driven round that never repeats commits without
concatenating its footprints and leaves no index buffer behind, while
an iterative kernel compiles once and reuses the plan while its access
pattern repeats.

Phase plans
-----------

An iterative kernel repeats whole *phases*, not just commit streams:
the same VPs touch the same rows of the same variables in the same
order, round after round, and only the values differ.
:meth:`PhaseRecorder.signature` names that shape — a tuple of serial
numbers, holding no array — and the runtime keeps one
:class:`PhasePlan` per signature for the duration of a ``do``: the
first occurrence *inspects* (rank sort and target grouping here;
bundling and communication costs in the runtime), every repeat
*executes* the stored recipe on that round's values — and its first
repeat is what compiles each target's batched runs.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.core.collectives import CollectiveSlot
from repro.core.shared import ACCUMULATE_UFUNCS, RowSpec, WriteEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.shared import GlobalShared

_RANK_KEY = operator.attrgetter("rank")
_OP_KEY = operator.attrgetter("op")
_ROWS_UID = operator.attrgetter("rows.uid")
_SPEC_UID = operator.attrgetter("uid")
_PLAN_SERIALS = itertools.count()


class _RunPlan:
    """Cached products of one maximal same-``(kind, op)`` batchable run
    — everything derived from the *index* side of the run, which
    iterative kernels repeat bit-for-bit every round while only the
    values change: per-op row counts, and either the concatenated rows
    (accumulates) or the last-writer rows plus the positions of their
    values (writes)."""

    __slots__ = ("op", "sizes", "rows_last", "take", "rows")


class _TargetPlan:
    """What a :class:`CommitPlanCache` keeps for one target's full
    rank-ordered commit stream.

    ``keys`` holds per-event ``(kind, op, rows.uid, rows_exact)``
    tuples; a row spec's serial is never recycled, so matching an
    incoming stream by it is exact without keeping any spec (or its
    index array) alive.  ``segments`` is ``None`` until the stream is
    seen a second time, then its run segmentation with one
    :class:`_RunPlan` per batchable run.  ``serial`` is a never-recycled
    number by which a :class:`PhasePlan` refers to the plan without
    keeping it (or its index buffers) alive."""

    __slots__ = ("keys", "segments", "serial")

    def __init__(self, keys: list) -> None:
        self.keys = keys
        self.segments: list | None = None
        self.serial = next(_PLAN_SERIALS)


def _stream_keys(evs: list[WriteEvent]) -> list:
    return [(ev.kind, ev.op, ev.rows.uid, ev.rows_exact) for ev in evs]


def _segment(evs: list[WriteEvent]) -> list:
    """Segment one target's rank-ordered stream into maximal
    same-``(kind, op)`` runs, pre-computing each batchable run's
    concatenated rows and (for writes) the lexsort products."""
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
    return segments


def _apply_plan(target: np.ndarray, evs: list[WriteEvent], segments: list) -> None:
    """Replay one target's stream through its plan: the per-round
    work is value broadcasting and one fancy assignment (or
    ``ufunc.at``) per batched run.  A run whose values do not
    broadcast to their row blocks replays per-op instead."""
    trailing = target.shape[1:]
    dtype = target.dtype
    for kind, i, j, run in segments:
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
    this cache keeps one access pattern per target, keyed by
    ``(shared name, instance)``.  A stream seen for the first time (no
    plan for the target, or different keys) replays op by op and is
    remembered by its keys alone; the same stream seen again compiles
    its batched runs, which serve every later round while the stream
    repeats.  A promotion counts as a hit, a first sighting as a miss.
    Used by the inline runtime (``PpmRuntime.commit_plans``) and,
    through the same :meth:`PhaseRecorder.apply_writes`, by the
    worker-side zero-merge commit of the process backend.  Both paths
    apply the same operations in the same order, so the cache can never
    change committed bits — only skip redundant index work.
    """

    __slots__ = ("_plans", "hits", "misses")

    def __init__(self) -> None:
        self._plans: dict[tuple, _TargetPlan] = {}
        self.hits = 0
        self.misses = 0

    def apply(self, target: np.ndarray, evs, serial: int | None = None) -> int:
        """Apply one target's rank-ordered stream, via the cached plan
        when it still matches; returns the serial of the plan used.

        ``serial`` is how a :class:`PhasePlan` executor names the plan
        its inspector round recorded: the phase signature has already
        proved this stream identical to that round's, so finding the
        same serial in the target's slot replaces the per-event key
        check."""
        key = (evs[0].shared.name, evs[0].instance)
        plan = self._plans.get(key)
        if plan is None or plan.serial != serial:
            keys = _stream_keys(evs)
            if plan is None or plan.keys != keys:
                self._plans[key] = plan = _TargetPlan(keys)
                self.misses += 1
                for ev in evs:
                    ev.replay(target)
                return plan.serial
        self.hits += 1
        if plan.segments is None:
            plan.segments = _segment(evs)
        _apply_plan(target, evs, plan.segments)
        return plan.serial

    def clear(self) -> None:
        """Forget every plan; the hit/miss counters stay."""
        self._plans.clear()

    def stats(self) -> tuple[int, int]:
        return self.hits, self.misses


def _picker(positions: list[int]):
    """Callable selecting ``positions`` from a phase's operation list
    (a slice when they form a contiguous run, so one target's whole
    stream is one C-level copy)."""
    lo, hi = positions[0], positions[-1] + 1
    if positions == list(range(lo, hi)):
        return operator.itemgetter(slice(lo, hi))
    return operator.itemgetter(*positions)


def _footprint(shared: "GlobalShared", rows: RowSpec, n_elem: int) -> RowSpec:
    """``rows`` as the footprint of one access to ``shared``."""
    return RowSpec(rows.start, rows.stop, rows.step, rows.array, shared, n_elem)


class PhasePlan:
    """What one phase shape costs and how it commits, resolved once.

    ``recipe`` is the commit half, filled by
    :meth:`PhaseRecorder.apply_writes`: per target, in commit order, a
    ``[picker, serial]`` pair — the positions of the target's
    operations in the phase's recording-order operation list (already
    in rank order) and the serial of the :class:`_TargetPlan` kept
    for them.  ``costs`` is the timing half, filled by the runtime's
    inspector round, and with it what a traced round reports about the
    shape's traffic.  ``disjoint`` is the sanitizer's verdict
    (:meth:`~repro.analysis.sanitizer.PhaseSanitizer.check_phase`):
    true once a check found every target written by one VP or by VPs
    on disjoint rows, which no value can change.  None of the three
    references an index array, and the :class:`CommitPlanCache` holds
    compiled buffers only for a stream seen twice, so a shape that
    never repeats costs its signature and a few small tuples."""

    __slots__ = ("recipe", "costs", "disjoint")

    def __init__(self) -> None:
        self.recipe: list | None = None
        self.costs = None
        self.disjoint = False


class PhaseRecorder:
    """Mutable record of one phase's shared-memory activity.

    Accesses are recorded flat, one list append each: ``reads`` and
    ``writes`` hold the footprints (:class:`~repro.core.shared.RowSpec`
    with its variable and element count) of the global-shared reads
    and writes/accumulates in recording order, ``marks`` closes each
    issuing node's run of both lists, and ``write_ops`` holds every
    buffered operation (node-shared ones included); a read the access
    memo does not keep copies its rows into the ``logs`` entry (a
    :class:`~repro.core.shared.RowLog`) of its (node, variable), which
    joins ``reads`` at its first access.  Nothing is grouped or counted
    while VPs run — a repeated phase shape never needs it
    (:meth:`signature`), and a new one groups at the barrier
    (:func:`repro.core.bundling.aggregate_traffic`).
    """

    def __init__(self, kind: str, latency_rounds: int = 1) -> None:
        self.kind = kind
        self.latency_rounds = latency_rounds
        self.reads: list[RowSpec] = []
        self.writes: list[RowSpec] = []
        self.logs: dict = {}  # (node id, variable) -> RowLog
        # (node id, len(reads), len(writes)) after each run of accesses
        # issued from one node; a node may close several runs.
        self.marks: list[tuple[int, int, int]] = []
        # Buffered operations, one WriteEvent per __setitem__/accumulate,
        # in recording order (VPs run in rank order, so also rank order).
        self.write_ops: list[WriteEvent] = []
        # node id -> elements written to node-shared instances there.
        self.node_write_elems: dict[int, int] = defaultdict(int)
        # node id -> core id -> accumulated VP cpu seconds.
        self.core_costs: dict[int, dict[int, float]] = defaultdict(dict)
        # Matched collective slots, in call order.
        self.collective_slots: list[CollectiveSlot] = []
        # Under the process backend: a worker's report of this phase
        # held a row log (the parent's recorder sees it decoded).
        self.one_shot = False

    # ------------------------------------------------------------------
    # Entry points for whoever records on a VP's behalf: the process
    # backend's parent (worker reports arrive in contiguous global-rank
    # shard order, so absorbing them worker by worker reproduces the
    # lists the inline engine records VP by VP) and tests.
    def close_run(self, node_id: int) -> None:
        """Everything recorded since the last mark was issued from
        ``node_id`` (the engine calls this after stepping a node's VPs)."""
        self.marks.append((node_id, len(self.reads), len(self.writes)))

    def absorb(self, node_id: int, reads, writes) -> None:
        """Append one node's run of global-shared access footprints."""
        self.reads.extend(reads)
        self.writes.extend(writes)
        self.close_run(node_id)

    def add_global_read(self, node_id: int, shared: "GlobalShared", rows: RowSpec, n_elem: int) -> None:
        self.absorb(node_id, [_footprint(shared, rows, n_elem)], ())

    def add_global_write(
        self,
        node_id: int,
        shared: "GlobalShared",
        rows: RowSpec,
        n_elem: int,
        global_rank: int,
        event: WriteEvent | None = None,
    ) -> None:
        self.absorb(node_id, (), [_footprint(shared, rows, n_elem)])
        if event is not None:
            self.write_ops.append(event)

    def collective_slot(self, index: int, kind: str, op) -> CollectiveSlot:
        """Fetch or create the matched slot for the ``index``-th
        collective call of a VP in this phase."""
        while len(self.collective_slots) <= index:
            self.collective_slots.append(CollectiveSlot(kind, op))
        slot = self.collective_slots[index]
        slot.check_compatible(kind, op)
        return slot

    # ------------------------------------------------------------------
    def signature(self, certified: bool) -> tuple | None:
        """This phase's *access signature*: everything its traffic,
        communication cost and commit order are functions of, as
        serial numbers — phase kind, latency rounds, certified flag,
        each node's ordered read and write footprints, every buffered
        operation's (row spec, writer rank, accumulate op) in program
        order, and the node-shared write totals.  A memoised
        footprint's serial stands for its variable, rows, exactness
        and element count (``_access_record``), so two phases with
        equal signatures bundle, cost and commit identically whatever
        their values; unmemoised footprints (tuple and mask writes)
        carry fresh serials and never compare equal.  A row log's
        serial is new every phase, so a phase holding one — here or
        in a worker's report (``one_shot``) — can never repeat and
        gets ``None``: it keeps no plan.  Built in a few C-speed
        passes; holds no spec or array."""
        if self.logs or self.one_shot:
            return None
        ops = self.write_ops
        return (
            self.kind,
            self.latency_rounds,
            certified,
            tuple(self.marks),
            tuple(map(_SPEC_UID, self.reads)),
            tuple(map(_SPEC_UID, self.writes)),
            tuple(map(_ROWS_UID, ops)),
            tuple(map(_RANK_KEY, ops)),
            tuple(map(_OP_KEY, ops)),
            tuple(self.node_write_elems.items()),
        )

    def apply_writes(
        self,
        plans: CommitPlanCache,
        *,
        plan: PhasePlan | None = None,
        target_of=None,
    ) -> None:
        """Commit all buffered writes.

        Operations apply in increasing (global VP rank, program order),
        so conflicting plain writes resolve deterministically with the
        highest-ranked writer winning — the documented PPM conflict
        rule of this reproduction (``tests/reference.py`` is its
        one-op-at-a-time oracle).  ``plans`` is the
        :class:`CommitPlanCache` holding the per-target plans.
        ``plan`` is this phase shape's :class:`PhasePlan`:
        its first round sorts by rank, groups by target and stores the
        outcome as the plan's recipe; later rounds pick each target's
        operations by position and replay — no sort, no regrouping, no
        per-event validation.  ``target_of(shared, instance)`` names the
        array to commit into where the variable's own copy-on-commit
        decision (``_commit_target``) was made elsewhere: a process-
        backend worker commits into the segment its proxy is bound to.
        """
        ops = self.write_ops
        if not ops:
            return
        recipe = plan.recipe if plan is not None else None
        if recipe is None:
            # ops is in program order, so a stable sort on rank alone
            # yields (rank, program order).
            ranks = list(map(_RANK_KEY, ops))
            groups: dict[tuple[int, int | None], list[int]] = {}
            for i in sorted(range(len(ops)), key=ranks.__getitem__):
                ev = ops[i]
                groups.setdefault((id(ev.shared), ev.instance), []).append(i)
            recipe = [[_picker(positions), None] for positions in groups.values()]
            if plan is not None:
                plan.recipe = recipe
        for entry in recipe:
            evs = entry[0](ops)
            ev = evs[0]
            if target_of is None:
                target = ev.shared._commit_target(ev.instance)
            else:
                target = target_of(ev.shared, ev.instance)
            entry[1] = plans.apply(target, evs, entry[1])

    def resolve_collectives(self) -> int:
        """Resolve all collective slots; returns total contributions."""
        return sum(slot.resolve() for slot in self.collective_slots)
