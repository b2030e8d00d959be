"""The observability event model: typed events and the event bus.

This module is the foundation of :mod:`repro.obs` and deliberately has
no dependencies on the rest of the package, so every layer that
reports — the PPM runtime (:mod:`repro.core.runtime`), the timing
composer that derives a phase shape's bundle and message events
(:mod:`repro.core.scheduler`), the network model
(:mod:`repro.machine.network`), the process backend and the resilience
layer — can build events without import cycles.  The taxonomy (which
site emits what, one per what) and the field reference are in
docs/OBSERVABILITY.md.

Instrumented sites are gated behind a single ``tracer is not None``
predicate, so the untraced default path pays one pointer test per site
and nothing else; traced and untraced runs produce bitwise-identical
committed results and identical simulated times (tested in
``tests/obs/test_metrics.py``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from typing import ClassVar, Iterator


class _Value:
    """What every event class and :class:`NodeSlice` is: an immutable
    value backed by one tuple of its fields (:func:`_value`) — built by
    position or keyword, hashable, and equal only to an instance of the
    same class with equal fields (a tuple's own comparison would call
    a ``MessageSend`` equal to its ``MessageRecv``)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def to_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return self._asdict()


def _value(cls):
    """Class decorator: rebuild ``cls`` on a named tuple of its
    annotated fields, inherited ones first.  The body's methods move to
    the rebuilt class, so they must not use zero-argument ``super()``."""
    names = [
        name
        for klass in reversed(cls.__mro__)
        for name, ann in vars(klass).get("__annotations__", {}).items()
        if not ann.startswith("ClassVar")
    ]
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    body["__slots__"] = ()
    return type(cls.__name__, (*cls.__bases__, namedtuple(cls.__name__, names)), body)


def stamp(templates: list, phase: int) -> list:
    """The events of ``(event class, fields after phase)`` templates
    at ``phase`` — what a repeated phase shape reports every round,
    where only the phase index is the round's own."""
    head = (phase,)
    new = tuple.__new__
    return [new(cls, head + fields) for cls, fields in templates]


class Event(_Value):
    """Base of all observability events; ``phase`` is the 0-based
    execution index of the phase the event belongs to (global and node
    phases share one counter, in commit order)."""

    __slots__ = ()
    kind: ClassVar[str] = "event"

    phase: int

    def to_dict(self) -> dict:
        """JSON-ready dict (adds the ``event`` discriminator field)."""
        d = self._asdict()
        d["event"] = self.kind
        return d


@_value
class PhaseBegin(Event):
    """A phase is about to execute its VP bodies.

    ``t`` is the earliest participating node clock at entry; ``vps``
    counts the VPs that will be resumed; ``nodes`` lists the
    participating node ids.
    """

    kind: ClassVar[str] = "phase_begin"

    phase_kind: str
    latency_rounds: int
    vps: int
    nodes: tuple[int, ...]
    t: float


@_value
class VpScheduled(Event):
    """One VP was resumed for one phase round on one core.

    ``cost`` is the simulated CPU seconds its body accrued (work,
    memory accesses and shared-access software overhead).
    """

    kind: ClassVar[str] = "vp_scheduled"

    node: int
    core: int
    vp: int
    cost: float


def scheduled(rows: list, phase: int) -> list:
    """The :class:`VpScheduled` events at ``phase`` of flat ``node, core, vp, cost`` rows."""
    it = iter(rows)
    return [tuple.__new__(VpScheduled, (phase, *row)) for row in zip(it, it, it, it)]


@_value
class BundleFlushed(Event):
    """The commit-time bundling engine aggregated one node's recorded
    fine-grained accesses to one shared variable in one direction.

    ``raw_ops`` counts the fine-grained access calls; ``raw_elems``
    the elements they addressed (with repetition); ``unique_elems``
    the deduplicated footprint the runtime actually moves, split into
    ``local_elems`` (owner-local, no wire traffic) and
    ``remote_elems`` across ``peers`` owning nodes.  ``remote_elems``
    is exactly the wire-message count a bundling-disabled runtime
    would pay (one message per element), so
    ``remote_elems / bundled messages`` is the phase's bundling ratio.
    """

    kind: ClassVar[str] = "bundle_flushed"

    node: int
    variable: str
    direction: str  # "read" | "write"
    raw_ops: int
    raw_elems: int
    unique_elems: int
    local_elems: int
    remote_elems: int
    peers: int


@_value
class MessageSend(Event):
    """A bundled wire transfer left node ``src`` toward node ``dst``.

    ``purpose`` is ``read_request`` (index bundle), ``read_reply``
    (dense data bundle) or ``write_bundle`` (indexed data bundle).
    Every ``MessageSend`` is paired with a ``MessageRecv`` carrying
    identical counts, so per-phase bytes are conserved by
    construction — an invariant the schema tests pin down.
    """

    kind: ClassVar[str] = "message_send"

    src: int
    dst: int
    variable: str
    purpose: str
    messages: int
    nbytes: int


@_value
class MessageRecv(Event):
    """The receiving half of a :class:`MessageSend` (same fields)."""

    kind: ClassVar[str] = "message_recv"

    src: int
    dst: int
    variable: str
    purpose: str
    messages: int
    nbytes: int


@_value
class BarrierWait(Event):
    """The phase-closing synchronisation was charged.

    ``scope`` is ``cluster`` (global phase: all nodes) or ``node``
    (node phase: one node's cores); ``fused`` is true when the phase
    carried collectives and the reduction was fused into the barrier
    tree (an allreduce sweep instead of a plain barrier).
    Per-node wait times live in :class:`PhaseCommit` node slices.
    """

    kind: ClassVar[str] = "barrier_wait"

    scope: str
    participants: int
    duration: float
    fused: bool


@_value
class NodeSlice(_Value):
    """One node's timing slice of one committed phase (nested inside
    :class:`PhaseCommit`).  ``arrival = t0 + busy`` is when the node
    reached the barrier; ``wait = t_end - arrival`` its barrier wait
    (synchronisation cost included); the spread of arrivals across
    nodes is the phase's barrier skew."""

    node: int
    t0: float
    compute: float
    commit_cpu: float
    comm: float
    overlapped: float
    arrival: float
    wait: float


@_value
class PhaseCommit(Event):
    """A phase committed: writes applied, collectives resolved,
    clocks merged to ``t_end``.  ``messages``/``nbytes`` are the
    bundled wire totals of the phase; ``nodes`` carries one
    :class:`NodeSlice` per cluster node."""

    kind: ClassVar[str] = "phase_commit"

    phase_kind: str
    latency_rounds: int
    t: float
    t_end: float
    messages: int
    nbytes: int
    collectives: int
    nodes: tuple[NodeSlice, ...]

    def to_dict(self) -> dict:
        d = Event.to_dict(self)
        d["nodes"] = tuple(ns.to_dict() for ns in self.nodes)
        return d


@_value
class WorkerSpan(Event):
    """One worker process serviced one phase round of the
    ``executor="process"`` backend.

    ``phase`` is the index of the first phase of the round (a node
    round runs all concurrently-ready node phases in one dispatch);
    ``vps`` counts the VP bodies the worker advanced; ``host_s`` is
    *host* wall-clock seconds the worker spent on the round — real
    time, unlike every other duration in the trace, which is simulated.
    The per-worker utilization table of
    :class:`~repro.obs.metrics.RunReport` aggregates these."""

    kind: ClassVar[str] = "worker_span"

    worker: int
    vps: int
    host_s: float


@_value
class ZeroMergeCommit(Event):
    """One phase group of a certified round committed worker-side
    (the zero-merge path of the ``executor="process"`` backend): the
    workers applied their shards' buffered operations directly into
    the shared-memory segments and replied with fixed-size digests —
    no operation stream crossed the pipe.

    ``node`` is the committed group's node id (``-1`` for a global
    phase); ``workers`` counts the workers that committed operations;
    ``ops`` their total buffered operations; ``plan_hits`` /
    ``plan_misses`` the commit-plan cache outcomes of this commit;
    ``bytes_avoided`` an estimate of the reply bytes the shipped
    operation stream would have cost."""

    kind: ClassVar[str] = "zero_merge_commit"

    node: int
    workers: int
    ops: int
    plan_hits: int
    plan_misses: int
    bytes_avoided: int


@_value
class WorkerCrash(Event):
    """The worker supervisor detected one worker failure.

    ``failure`` classifies the detection path: ``crash`` (dead pipe —
    EOF / broken pipe / send error), ``hang`` (no reply within the
    round deadline; the parent killed the stuck child) or
    ``corrupt-reply`` (a reply arrived but could not be interpreted).
    ``command`` is the pipe command in flight (``round``, ``commit``,
    ``do_start``, ...); ``phase`` the first phase of the round being
    dispatched (``-1`` outside a round)."""

    kind: ClassVar[str] = "worker_crash"

    worker: int
    failure: str
    command: str


@_value
class WorkerRespawn(Event):
    """The pool came back: after a worker failure the run restarted
    in a fresh pool of the same size.

    ``worker`` is the (first) failed worker; ``attempt`` the 1-based
    restart ordinal at this pool size (``max_respawns`` bounds it);
    ``host_s`` what the recovery cost — the host wall-clock seconds of
    the abandoned attempt plus the back-off slept.  ``phase`` is
    ``-1``: the event sits between two executions of the driver."""

    kind: ClassVar[str] = "worker_respawn"

    worker: int
    attempt: int
    host_s: float


@_value
class PoolDegraded(Event):
    """The supervisor exhausted its respawn budget and degraded the
    run instead of crashing it.

    ``mode`` is ``shrink`` (restart with fewer workers) or ``inline``
    (restart on the sequential in-process executor);
    ``workers_from``/``workers_to`` give the pool size before and
    after (``workers_to == 0`` means inline).  The restarted run is
    deterministic, so committed arrays stay bitwise-identical."""

    kind: ClassVar[str] = "pool_degraded"

    mode: str
    workers_from: int
    workers_to: int


@_value
class CheckpointTaken(Event):
    """A coordinated phase-boundary checkpoint was written.

    ``phase`` is the just-committed phase whose cut the checkpoint
    captures; ``nbytes`` the serialized size of all shared instances;
    ``duration`` the simulated seconds charged; ``t`` the cluster time
    when the checkpoint completed."""

    kind: ClassVar[str] = "checkpoint_taken"

    nbytes: int
    duration: float
    t: float


@_value
class Recovery(Event):
    """The runtime recovered from an injected node crash.

    ``phase`` is the phase at which the crash fired; ``node`` the
    crashed node; ``checkpoint_phase`` the phase of the restored
    checkpoint (``-1`` when no checkpoint existed and the run restarts
    from its initial state); ``t_crash``/``t_resume`` bracket the
    recovery on the simulated clock; ``lost_work`` is the simulated
    time between the restored cut and the crash — work that must be
    re-executed."""

    kind: ClassVar[str] = "recovery"

    node: int
    checkpoint_phase: int
    t_crash: float
    t_resume: float
    lost_work: float


#: Registry used by the trace-file loader (docs/OBSERVABILITY.md has
#: the on-disk schema).
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        PhaseBegin,
        VpScheduled,
        BundleFlushed,
        MessageSend,
        MessageRecv,
        BarrierWait,
        PhaseCommit,
        WorkerSpan,
        ZeroMergeCommit,
        WorkerCrash,
        WorkerRespawn,
        PoolDegraded,
        CheckpointTaken,
        Recovery,
    )
}


def _from_fields(cls, label: str, d: dict):
    """``cls(**d)``, with a field mismatch reported as a ValueError
    (the dict comes from a trace file, i.e. from outside)."""
    missing = [f for f in cls._fields if f not in d]
    extra = [k for k in d if k not in cls._fields]
    if missing or extra:
        raise ValueError(f"{label}: missing field(s) {missing}, unexpected field(s) {extra}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def event_from_dict(d: dict) -> Event:
    """Reconstruct a typed event from its :meth:`Event.to_dict` form;
    an unknown kind or a missing or unexpected field is a ValueError."""
    try:
        cls = EVENT_TYPES[d["event"]]
    except KeyError:
        raise ValueError(f"unknown event kind {d.get('event')!r}") from None
    kwargs = {k: v for k, v in d.items() if k != "event"}
    if cls is PhaseCommit and "nodes" in kwargs:
        kwargs["nodes"] = tuple(
            _from_fields(NodeSlice, "phase_commit event, node slice", ns)
            for ns in kwargs["nodes"]
        )
    return _from_fields(cls, f"{cls.kind} event", kwargs)


class EventBus:
    """Append-only event sink with optional subscribers.

    :class:`PhaseTrace` is built on this bus (the machine layer's
    :class:`repro.machine.trace.Trace` keeps counters, not events).
    """

    __slots__ = ("_log", "_subscribers")

    def __init__(self) -> None:
        self._log: list = []
        self._subscribers: list = []

    @property
    def events(self) -> list:
        """The recorded events, in emission order."""
        return self._log

    def emit(self, event) -> None:
        """Append one event (one log entry) and notify subscribers."""
        self._log.append(event)
        for sub in self._subscribers:
            sub(event)

    def subscribe(self, callback) -> None:
        """Call ``callback(event)`` on every subsequent emit."""
        self._subscribers.append(callback)

    def clear(self) -> None:
        """Drop all recorded events (subscribers stay)."""
        self._log.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator:
        return iter(self.events)


class PhaseTrace(EventBus):
    """The event bus of one traced PPM run.

    Created by ``run_ppm(..., trace=True)`` (or pass an instance to
    share it across runs).  ``phase`` is the index of the phase
    currently executing — the runtime advances it at every
    :class:`PhaseBegin`, and lower-layer emitters (bundling, timing,
    network) stamp their events with it.

    The trace is a log: besides typed events, one entry stands for a
    phase plan's wire templates at a phase (:meth:`emit_wire`) or for
    one round's VP reports (:meth:`emit_run`).  Reading ``events``
    (``len``, iteration, :meth:`by_kind`) materialises the log and
    caches the result, so a later read builds only the new tail.
    """

    __slots__ = ("phase", "_events", "_read")

    def __init__(self) -> None:
        super().__init__()
        self.phase = -1
        self._events: list = []
        self._read = 0  # log entries materialised into _events

    @property
    def events(self) -> list:
        """The typed events, in emission order."""
        log, out = self._log, self._events
        for entry in islice(log, self._read, None):
            if type(entry) is tuple:
                expand, phase, payload = entry
                out += expand(payload, phase)
            else:
                out.append(entry)
        self._read = len(log)
        return out

    def emit_wire(self, phase: int, templates: list) -> None:
        """Log a phase plan's wire templates (:func:`stamp`) at ``phase``."""
        self._emit_ref(stamp, phase, templates)

    def emit_run(self, phase: int, rows: list) -> None:
        """Log one round's VP reports (:func:`scheduled`) at ``phase``."""
        self._emit_ref(scheduled, phase, rows)

    def _emit_ref(self, expand, phase: int, payload: list) -> None:
        # A subscriber sees every typed event, so it gets them one by one.
        if self._subscribers:
            for event in expand(payload, phase):
                self.emit(event)
        elif payload:
            self.emit((expand, phase, payload))

    def clear(self) -> None:
        super().clear()
        self._events.clear()
        self._read = 0

    def by_kind(self, kind: str) -> Iterator[Event]:
        """Iterate events of one kind (e.g. ``"phase_commit"``)."""
        return (e for e in self.events if e.kind == kind)

    def phases(self) -> list[int]:
        """Sorted phase indices present in the trace."""
        return sorted({e.phase for e in self.events})
