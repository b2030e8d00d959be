"""PPM shared variables: global-shared and node-shared arrays.

Two kinds, exactly as in the paper (section 3.1, item 1):

* :class:`GlobalShared` — *one* variable shared across the whole
  cluster through virtual shared memory, block-distributed over the
  nodes along axis 0;
* :class:`NodeShared` — *one instance per node* (the paper: "multiple
  variables of the same name are declared, one for each physical
  node"), living in the node's physical shared memory.

Both support numpy "array syntax ... as in the mathematical
algorithms" (paper section 3: "Implicit communication").  Inside a
phase, reads return the phase-start snapshot and writes are buffered
until the commit at the phase barrier; outside any phase (driver-level
setup code) accesses apply directly and are not timed.

Snapshot reads are **zero-copy**: a basic-index read inside a phase
returns a read-only view of the committed store instead of a copy.
Snapshot semantics are preserved by a copy-on-commit protocol — when a
phase commit is about to overwrite rows that a still-live view aliases,
the store swaps to a fresh buffer first, so the view keeps observing
the phase-start values forever (docs/ARCHITECTURE.md, "Hot path &
wall-clock performance").
"""

from __future__ import annotations

import itertools
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import SharedAccessError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PpmRuntime

#: Accumulate operators accepted by ``accumulate`` (applied with the
#: matching ``np.ufunc.at``, so duplicate indices combine correctly).
ACCUMULATE_UFUNCS = {
    "add": np.add,
    "subtract": np.subtract,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "multiply": np.multiply,
}


_SPEC_UIDS = itertools.count()

_NDARRAY, _BOOL = np.ndarray, np.dtype(bool)  # hot-path tests; built-in dtypes are singletons


class RowSpec:
    """Rows (axis-0 indices) touched by one access, in a cheap range
    form (contiguous or strided, nothing materialised) or a
    materialised index-array form.

    As the *footprint* of a recorded access — what the phase recorder
    keeps per access — it also names the variable, the exact element
    count (fewer than whole rows for a partial-row tuple index) and the
    access calls (``shared``, ``elems``, ``ops``), unset for a bare row set.
    """

    __slots__ = ("start", "stop", "step", "array", "count", "shared", "elems", "ops", "uid")

    def __init__(
        self,
        start: int = 0,
        stop: int = 0,
        step: int = 1,
        array: np.ndarray | None = None,
        shared: object = None,
        elems: int = 0,
    ) -> None:
        self.start = start
        self.stop = stop
        self.step = step
        self.array = array
        #: Rows named, duplicates included.
        if array is not None:
            self.count = int(array.size)
        elif step == 1:
            self.count = max(0, stop - start)
        else:
            self.count = len(range(start, stop, step))
        self.shared = shared
        self.elems = elems
        self.ops = 1
        #: Process-unique serial number.  Unlike ``id()`` it is never
        #: recycled, so a memo can key on it without keeping the spec
        #: (and its index array) alive — and a phase's access signature
        #: is made of these: a memoised footprint keeps its serial for
        #: as long as it lives and stands for its variable, rows,
        #: exactness and element count; an unmemoised one is born with
        #: a fresh serial every access and can never repeat.
        self.uid = next(_SPEC_UIDS)

    @classmethod
    def from_range(cls, start: int, stop: int) -> "RowSpec":
        return cls(start=start, stop=max(start, stop))

    @classmethod
    def from_slice(cls, start: int, stop: int, step: int) -> "RowSpec":
        """Strided range — kept symbolic so recording a stepped-slice
        access does not materialise an ``np.arange``."""
        if step == 1:
            return cls(start=start, stop=max(start, stop))
        return cls(start=start, stop=stop, step=step)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "RowSpec":
        return cls(array=array)

    @property
    def is_contiguous(self) -> bool:
        """True for a plain ``[start, stop)`` range (the bundling
        engine's interval fast path)."""
        return self.array is None and self.step == 1

    def materialize(self) -> np.ndarray:
        """Rows as an int64 array."""
        if self.array is not None:
            return self.array
        return np.arange(self.start, self.stop, self.step, dtype=np.int64)

    def index(self) -> np.ndarray | slice:
        """Index expression selecting exactly these rows along axis 0
        (the index array, or a positive-step slice — nothing
        materialised); what the row-set bitmaps mark and probe with."""
        if self.array is not None:
            return self.array
        r = range(self.start, self.stop, self.step)
        if not r:
            return slice(0, 0)
        if self.step < 0:
            r = r[::-1]
        return slice(r.start, r.stop, r.step)


class RowLog(RowSpec):
    """The footprint of a node's reads of a global-shared variable in
    one phase through indices the memo does not keep (view index
    arrays, masks, tuple indices): each copies its rows into a growing
    int64 buffer at the access (SEMANTICS.md R2) and adds to ``ops``
    and ``elems``; :meth:`seal` makes the buffer ``array``."""

    __slots__ = ("buf",)

    def __init__(self, shared: "GlobalShared") -> None:
        super().__init__(shared=shared)
        self.ops = 0
        self.buf = np.empty(64, dtype=np.int64)

    def add(self, rows: np.ndarray, elems: int, ops: int = 1) -> None:
        """Append ``ops`` reads' rows (1-D, negatives not yet wrapped)."""
        n = self.count
        m = n + rows.size
        if m > self.buf.size:  # at least doubles
            self.buf = np.concatenate((self.buf[:n], np.empty(m, dtype=np.int64)))
        self.buf[n:m] = rows
        self.count = m
        self.elems += elems
        self.ops += ops

    def seal(self) -> None:
        """The logged rows become ``array``, negatives wrapped."""
        rows = self.buf[: self.count]
        np.add(rows, self.shared.shape[0], out=rows, where=rows < 0)
        self.array, self.buf = rows, None


class WriteEvent:
    """Record of one buffered write or accumulate.

    This is the commit engine's *universal* buffered-operation record:
    every ``__setitem__``/``accumulate`` inside a phase creates one
    (replacing the per-write Python closures of earlier revisions), the
    vectorized commit batches them per target, and the phase-conflict
    sanitizer classifies the very same objects when it is enabled.
    ``instance`` is the node id for node-shared targets, ``None`` for
    global-shared ones.  ``rows_exact`` marks operations whose ``idx``
    addresses exactly the rows in ``rows`` (no partial-row tuple
    index), which is what the vectorized commit path can batch;
    everything else falls back to an exact per-op :meth:`replay`.
    ``idx`` is captured when the record is made (:func:`_captured`).
    """

    __slots__ = (
        "shared", "instance", "kind", "op", "idx", "value", "rows",
        "rank", "rows_exact",
    )

    def __init__(
        self,
        shared: object,
        instance: int | None,
        kind: str,
        op: str | None,
        idx: object,
        value: object,
        rows: RowSpec,
        rank: int,
        rows_exact: bool = False,
    ) -> None:
        self.shared = shared
        self.instance = instance
        self.kind = kind  # "write" | "accumulate"
        self.op = op  # accumulate ufunc name, None for plain writes
        self.idx = idx if type(idx) is slice else _captured(idx, rows)
        self.value = value
        self.rows = rows
        self.rank = rank
        self.rows_exact = rows_exact

    def replay(self, target: np.ndarray) -> None:
        """Apply this operation to ``target`` exactly as the original
        access would have (the commit engine's in-plan fallback)."""
        if self.kind == "write":
            target[self.idx] = self.value
        else:
            ACCUMULATE_UFUNCS[self.op].at(target, self.idx, self.value)

    def footprint(self, shape: tuple[int, ...]) -> np.ndarray:
        """Boolean mask (of ``shape``) of the elements this op touches."""
        mask = np.zeros(shape, dtype=bool)
        mask[self.idx] = True
        return mask


def _index_result_size(idx: tuple, shape: tuple[int, ...]) -> int:
    """Number of elements selected by ``data[idx]``, computed from the
    index and array shapes alone (no indexing, no copy).

    Follows numpy's rules: basic parts (ints, slices, Ellipsis,
    newaxis) contribute their per-axis lengths; all advanced parts
    (integer / boolean arrays) broadcast together and contribute the
    broadcast size once.  Raises for index forms it does not model
    (callers fall back to an exact materialising probe).
    """
    ndim = len(shape)

    def consumes(entry: object) -> int:
        if entry is None:
            return 0
        if isinstance(entry, np.ndarray) and entry.dtype == bool:
            return entry.ndim
        return 1

    # Expand a single Ellipsis into full slices.
    expanded: list[object] = []
    n_consumed = sum(consumes(e) for e in idx if e is not Ellipsis)
    for entry in idx:
        if entry is Ellipsis:
            expanded.extend([slice(None)] * (ndim - n_consumed))
        else:
            expanded.append(entry)

    basic = 1
    adv_shapes: list[tuple[int, ...]] = []
    axis = 0
    for entry in expanded:
        if entry is None:
            continue  # newaxis: result axis of length 1
        if isinstance(entry, (int, np.integer)):
            axis += 1
            continue
        if isinstance(entry, slice):
            basic *= len(range(*entry.indices(shape[axis])))
            axis += 1
            continue
        arr = entry if isinstance(entry, np.ndarray) else np.asarray(entry)
        if arr.dtype == bool:
            if arr.shape != tuple(shape[axis : axis + arr.ndim]):
                raise IndexError(
                    f"boolean index shape {arr.shape} does not match axes "
                    f"{shape[axis:axis + arr.ndim]}"
                )
            adv_shapes.append((int(np.count_nonzero(arr)),))
            axis += arr.ndim
        elif np.issubdtype(arr.dtype, np.integer):
            adv_shapes.append(arr.shape)
            axis += 1
        else:
            raise TypeError(f"unsupported index entry {entry!r}")
    if axis > ndim:
        raise IndexError(f"too many indices for shape {shape}")
    # Unindexed trailing axes pass through whole.
    for ax in range(axis, ndim):
        basic *= shape[ax]
    if adv_shapes:
        basic *= int(np.prod(np.broadcast_shapes(*adv_shapes), dtype=np.int64))
    return int(basic)


def _normalize_rows(idx: object, n0: int) -> RowSpec:
    """Rows along axis 0 referenced by index expression ``idx``."""
    head = idx[0] if isinstance(idx, tuple) else idx
    if isinstance(head, (int, np.integer)):
        i = int(head)
        if i < 0:
            i += n0
        if not 0 <= i < n0:
            raise IndexError(f"row index {head} out of range for axis of length {n0}")
        return RowSpec.from_range(i, i + 1)
    if isinstance(head, slice):
        start, stop, step = head.indices(n0)
        return RowSpec.from_slice(start, stop, step)
    if head is Ellipsis:
        return RowSpec.from_range(0, n0)
    arr = np.asarray(head)
    if arr.dtype == bool:
        if arr.shape[0] != n0:
            raise IndexError(
                f"boolean mask of length {arr.shape[0]} does not match axis of length {n0}"
            )
        return RowSpec.from_array(np.nonzero(arr)[0].astype(np.int64))
    arr = arr.astype(np.int64).ravel()  # owned: never aliases the caller's array
    if arr.size:
        lo = arr.min()
        if lo < -n0 or arr.max() >= n0:
            raise IndexError(f"row indices out of range for axis of length {n0}")
        if lo < 0:
            arr[arr < 0] += n0
    return RowSpec.from_array(arr)


def _captured(idx: object, rows: RowSpec) -> object:
    """``idx`` as it stands at the access (SEMANTICS.md R2: the VP may
    mutate its index array before the commit).  A 1-D integer or boolean
    index is the footprint's owned rows (negatives already wrapped); any
    other index copies its array parts."""
    if type(idx) is tuple:
        return tuple(np.array(p) if isinstance(p, (_NDARRAY, list)) else p for p in idx)
    if not isinstance(idx, (_NDARRAY, list)):
        return idx  # int, Ellipsis: immutable
    if rows.array is not None and np.ndim(idx) == 1:
        return rows.array
    return np.array(idx)


def _rows_exact(idx: object) -> bool:
    """True when ``idx`` addresses exactly the rows ``_normalize_rows``
    reports — i.e. no tuple index selecting parts of each row."""
    return not (isinstance(idx, tuple) and len(idx) > 1)


#: Worker-side shared-handle resolver (set by
#: :mod:`repro.parallel.worker` while a worker services commands).
#: Pickling a shared variable serialises only its *name*; unpickling
#: resolves the name here, so kernel arguments captured by the process
#: backend rebind to the worker's own proxies instead of dragging the
#: parent's arrays across the pipe.
_PICKLE_REGISTRY: dict[str, "_SharedBase"] | None = None


def _unpickle_shared(name: str) -> "_SharedBase":
    if _PICKLE_REGISTRY is None:
        raise RuntimeError(
            f"shared variable {name!r} can only be unpickled inside a "
            "repro.parallel worker process (shared handles serialise as "
            "name references, not data)"
        )
    return _PICKLE_REGISTRY[name]


class _SharedBase:
    """Common machinery of both shared-variable kinds."""

    def __init__(self, runtime: "PpmRuntime", name: str, shape: tuple[int, ...], dtype) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 0 for s in shape):
            raise ValueError(f"invalid shared-array shape {shape}")
        self.runtime = runtime
        self.name = name
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self._trailing = int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else 1
        # Per-access cost constants (MachineConfig is frozen); the
        # per-element rate is kind-specific and set by the subclass.
        self._acall = runtime._access_call
        self._elem_rate = runtime._access_elem
        # Access-record cache: index key -> (RowSpec, n_elem, rows_exact).
        # Phase code replays the same index expressions every iteration
        # (a VP's chunk slice, its column-footprint array), so the
        # normalisation/counting work is done once per distinct index.
        self._access_cache: dict = {}
        # (weak reference, copy of the contents) of the live index arrays
        # behind the id-keyed entries of _access_cache; each reference's
        # callback evicts its entry when the array dies.
        self._index_refs: dict = {}

    def _access_record(self, idx: object, data: np.ndarray) -> tuple:
        """``(rows, n_elem, rows_exact, view_kind, cost)`` for ``idx``,
        cached.  ``rows`` is the access's footprint (``rows.shared`` is
        this variable, ``rows.elems`` is ``n_elem``) — the object the
        phase recorder keeps; ``cost`` is the simulated per-access
        software overhead (call + per-element), precomputed so the hot
        path charges it with a single add.

        ``view_kind`` classifies what ``data[idx]`` returns: ``True``
        for basic indexing (a view — the read path must freeze and
        flag it), ``False`` for fancy indexing (a fresh copy — nothing
        to guard), ``None`` for unclassified forms (the read path
        falls back to an ``np.may_share_memory`` probe).

        Cacheable forms: plain slices (keyed by their endpoints), ints,
        and non-boolean index arrays, keyed by object identity.  An
        id-keyed entry keeps a copy of the array's contents (its rows,
        when equal), not the array: it holds only while they are
        unchanged (a VP may refill its index array in place), and the
        array's death evicts it.  Masks and tuple indices select value-
        or shape-dependent element sets, so they are recomputed every
        access; reads through them or through a view index array go to
        a row log instead (:class:`RowLog`).
        """
        t = type(idx)
        if t is slice:
            key = (idx.start, idx.stop, idx.step)
            view_kind = True
        elif t is int:
            key = idx
            view_kind = True
        elif t is _NDARRAY and idx.dtype is not _BOOL:
            key = ("a", id(idx))
            view_kind = False
        else:
            rows = _normalize_rows(idx, self.shape[0])
            rows.shared = self
            rows.elems = n_elem = self._count_elements(idx, rows, data)
            return (
                rows, n_elem, _rows_exact(idx), None,
                self._acall + n_elem * self._elem_rate,
            )
        rec = self._access_cache.get(key)
        if rec is None or (t is _NDARRAY and idx.tobytes() != self._index_refs[key][1].tobytes()):
            rows = _normalize_rows(idx, self.shape[0])
            n_elem = self._count_elements(idx, rows, data)
            if t is _NDARRAY:
                # Evicted when the index array dies (a recycled id never
                # resolves to stale rows); a hit is checked against snap.
                plain = idx.dtype == np.int64 and idx.ndim == 1 and idx.min(initial=0) >= 0
                snap = rows.array if plain else idx.copy()
                self._index_refs[key] = (weakref.ref(idx, self._evictor(key)), snap)
            rows.shared = self
            rows.elems = n_elem
            rec = (
                rows, n_elem, _rows_exact(idx), view_kind,
                self._acall + n_elem * self._elem_rate,
            )
            self._access_cache[key] = rec
        return rec

    def _unkept_read(self, idx: object, data: np.ndarray) -> tuple:
        """``(value, rows, n_elem, view_kind, cost)`` of a read the memo
        does not keep, ``rows`` flat for the row log: a view index array's
        own (negatives wrap at the seal), a mask's or tuple index's."""
        if type(idx) is _NDARRAY and idx.dtype.kind in "iu":
            try:  # numpy's indexing is the bounds check
                value = data[idx]
            except IndexError:
                raise IndexError(f"row indices out of range for axis of length {len(data)}") from None
            rows, n_elem, view_kind = idx.reshape(-1), idx.size * self._trailing, False
        else:
            spec = _normalize_rows(idx, self.shape[0])
            n_elem = self._count_elements(idx, spec, data)
            value, rows, view_kind = data[idx], spec.materialize(), None
        return value, rows, n_elem, view_kind, self._acall + n_elem * self._elem_rate

    def _evictor(self, key: tuple):
        """Weak-reference callback dropping the id-keyed entry ``key``.
        It holds the two dicts, not ``self``."""
        records, refs = self._access_cache, self._index_refs

        def evict(_ref) -> None:
            records.pop(key, None)
            refs.pop(key, None)

        return evict

    def _drop_caches(self) -> None:
        """Forget every memoised access record (``PpmRuntime.close``)."""
        self._access_cache.clear()
        self._index_refs.clear()

    def _reader(self, instance: int | None) -> np.ndarray:
        """Read-only alias of the committed buffer of ``instance``:
        snapshot reads index it, so basic-index results are born
        read-only (children of a non-writeable array are non-writeable)
        — no per-access ``flags.writeable`` toggle needed.  Under the
        process executor it is a dedicated array over the segment,
        whose reference count tells whether a reader of the buffer is
        alive (:class:`repro.parallel.shm.ViewProbe`)."""
        shm = self.runtime.shm
        if shm is not None:
            return shm.reader(self.name, instance)
        ro = (self._data if instance is None else self._data[instance]).view()
        ro.flags.writeable = False
        return ro

    def __reduce__(self):
        return (_unpickle_shared, (self.name,))

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    def _count_elements(self, idx: object, rows: RowSpec, data: np.ndarray) -> int:
        """Elements touched by ``idx`` (exact for tuple indices)."""
        if isinstance(idx, tuple) and len(idx) > 1:
            try:
                return _index_result_size(idx, data.shape)
            except (TypeError, IndexError, ValueError):
                # Index form the analytic path does not model: fall
                # back to a materialising probe (exact but copying).
                probe = data[idx]
                return int(probe.size) if isinstance(probe, np.ndarray) else 1
        return rows.count * self._trailing

    @staticmethod
    def _copy_out(value):
        """Driver-level reads must not alias the committed store."""
        if isinstance(value, np.ndarray):
            return value.copy()
        return value


class GlobalShared(_SharedBase):
    """A cluster-level shared array (``PPM_global_shared``).

    Axis 0 is block-distributed over the nodes; :meth:`owner_of` and
    :meth:`local_range` expose the distribution, which the runtime
    manages automatically (paper: "Automatic data distribution and
    locality management").
    """

    def __init__(self, runtime: "PpmRuntime", name: str, shape, dtype=np.float64, fill=0) -> None:
        super().__init__(runtime, name, shape, dtype)
        n_nodes = runtime.cluster.n_nodes
        n0 = self.shape[0]
        shm = runtime.shm
        if shm is not None:
            # Process backend: the committed store lives in a shared-
            # memory segment that worker processes map by name.
            self._data = shm.allocate(name, None, self.shape, self.dtype, fill)
        elif fill is None:
            self._data = np.empty(self.shape, dtype=self.dtype)
        else:
            self._data = np.full(self.shape, fill, dtype=self.dtype)
        # True once a snapshot view of the current buffer was handed
        # out; the next commit then swaps buffers (copy-on-commit).
        # Under the process executor the parent's flag is instead reset
        # every round to "a view is still referenced", in its own shard
        # or a worker's.
        self._views_taken = False
        # Read-only alias of the committed buffer; rebuilt on swap.
        self._ro = self._reader(None)
        # Block partition boundaries: node i owns rows
        # [starts[i], starts[i+1]).
        self._starts = np.array(
            [(i * n0) // n_nodes for i in range(n_nodes + 1)], dtype=np.int64
        )
        # Expose each node's block in its physical memory map.
        for node in runtime.cluster:
            lo, hi = self._starts[node.node_id], self._starts[node.node_id + 1]
            node.memory.adopt(f"gshared:{name}", self._data[lo:hi])

    # -- distribution ----------------------------------------------------
    def owner_of(self, rows: np.ndarray | int) -> np.ndarray | int:
        """Owning node id(s) of the given axis-0 row(s)."""
        scalar = np.isscalar(rows) or isinstance(rows, (int, np.integer))
        r = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        owners = np.searchsorted(self._starts, r, side="right") - 1
        return int(owners[0]) if scalar else owners

    def local_range(self, node_id: int) -> tuple[int, int]:
        """Half-open row range owned by ``node_id``."""
        if not 0 <= node_id < self.runtime.cluster.n_nodes:
            raise IndexError(f"node id {node_id} out of range")
        return int(self._starts[node_id]), int(self._starts[node_id + 1])

    def local_view(self, node_id: int) -> np.ndarray:
        """Zero-copy view of a node's owned block.

        This is the paper's node↔global *cast* utility: it bypasses the
        phase access protocol, so it must only be used in driver-level
        setup/teardown code, never inside VP phases.  A handle obtained
        here aliases the *current* committed buffer; a later phase
        commit that triggers the copy-on-commit guard swaps the buffer,
        so re-fetch the view after running phases rather than holding
        one across ``ppm.do``.
        """
        if self.runtime.cursor is not None:
            raise SharedAccessError(
                "local_view bypasses phase semantics and is only legal in "
                "driver code, not inside a phase"
            )
        lo, hi = self.local_range(node_id)
        return self._data[lo:hi]

    # -- commit protocol -------------------------------------------------
    def _commit_target(self, instance: int | None) -> np.ndarray:
        """The array buffered writes should apply to.

        Copy-on-commit guard: if any snapshot view of the current
        buffer was handed out, the store swaps to a fresh copy of the
        phase-start buffer first — the old buffer is never written
        again, so every outstanding view keeps observing phase-start
        values (dropped views just release it to the allocator).
        """
        if self._views_taken:
            self._views_taken = False
            shm = self.runtime.shm
            if shm is None:
                self._data = self._data.copy()
            else:
                # Segment swap: workers holding snapshot views keep the
                # retired segment mapped; they remap to the new name
                # with their next round command.
                self._data = shm.swap(self.name, None)
            self._ro = self._reader(None)
            starts = self._starts
            name = f"gshared:{self.name}"
            for node in self.runtime.cluster:
                s, e = starts[node.node_id], starts[node.node_id + 1]
                node.memory.rebind(name, self._data[s:e])
        return self._data

    # -- access ----------------------------------------------------------
    def __getitem__(self, idx):
        rt = self.runtime
        ctx = rt.cursor
        if ctx is None:
            return self._copy_out(self._data[idx])
        # Recording is inlined in every accessor (each Python call is
        # measurable at this frequency): charge the VP, then append the
        # access's footprint (and, for writes, the buffered operation)
        # to the phase recorder's flat lists.
        data = self._ro
        t = type(idx)
        if t is slice or t is int or (t is _NDARRAY and idx.base is None and idx.dtype is not _BOOL):
            rows, _, _, view_kind, cost = self._access_record(idx, data)
            value = data[idx]
            n_elem = None
        else:
            value, rows, n_elem, view_kind, cost = self._unkept_read(idx, data)
        phase = rt.phase
        if phase is None:
            rt._require_phase()
        ctx._cost += cost
        if n_elem is None:
            phase.reads.append(rows)
        else:
            log = phase.logs.get((ctx.node_id, self))
            if log is None:  # a new log joins reads at its first access
                log = phase.logs[ctx.node_id, self] = RowLog(self)
                phase.reads.append(log)
            log.add(rows, n_elem)
        if view_kind:
            if isinstance(value, np.ndarray):
                self._views_taken = True
        elif (
            view_kind is None
            and isinstance(value, np.ndarray)
            and np.may_share_memory(value, data)
        ):
            self._views_taken = True
        return value

    def __setitem__(self, idx, value) -> None:
        rt = self.runtime
        ctx = rt.cursor
        if ctx is None:
            self._data[idx] = value
            return
        rows, _, rows_exact, _vk, cost = self._access_record(idx, self._data)
        if isinstance(value, np.ndarray):
            value = np.array(value, dtype=self.dtype, copy=True)
        event = WriteEvent(
            self, None, "write", None, idx, value, rows, ctx.global_rank, rows_exact
        )
        phase = rt.phase
        if phase is None:
            rt._require_phase()
        if phase.kind == "node":
            raise SharedAccessError(
                "global shared variables cannot be written inside a node "
                "phase; use a global phase"
            )
        ctx._cost += cost
        phase.writes.append(rows)
        phase.write_ops.append(event)

    def accumulate(self, rows, values, op: str = "add") -> None:
        """Combine ``values`` into ``self[rows]`` at phase commit with a
        commutative operator; duplicate rows combine (via ``ufunc.at``)
        instead of overwriting.  Outside a phase, applies immediately."""
        try:
            ufunc = ACCUMULATE_UFUNCS[op]
        except KeyError:
            raise ValueError(
                f"unknown accumulate op {op!r}; expected one of {sorted(ACCUMULATE_UFUNCS)}"
            ) from None
        rt = self.runtime
        ctx = rt.cursor
        if ctx is None:
            ufunc.at(self._data, rows, values)
            return
        spec, _, rows_exact, _vk, _c = self._access_record(rows, self._data)
        # An accumulate is charged and bundled for the whole of every
        # row it names (this changes only an unmemoised partial-row
        # footprint, which no other access shares).
        spec.elems = n_elem = spec.count * self._trailing
        if isinstance(values, np.ndarray):
            values = np.array(values, dtype=self.dtype, copy=True)
        event = WriteEvent(
            self, None, "accumulate", op, rows, values, spec, ctx.global_rank, rows_exact
        )
        phase = rt.phase
        if phase is None:
            rt._require_phase()
        if phase.kind == "node":
            raise SharedAccessError(
                "global shared variables cannot be written inside a node "
                "phase; use a global phase"
            )
        ctx._cost += rt._access_call + n_elem * rt._access_elem
        phase.writes.append(spec)
        phase.write_ops.append(event)

    def gather(self, index: "GlobalShared", starts, counts) -> np.ndarray:
        """``self[index[s:s + c]]`` for each run of ``zip(starts,
        counts)``, concatenated into a fresh array (no view of either
        store).  In a phase it records and charges exactly the 2k reads
        it stands for, in their order: each run's ``index`` slice, then
        its rows of ``self``, which join the node's row log (R2)."""
        starts, counts = np.asarray(starts, dtype=np.int64), np.asarray(counts, dtype=np.int64)
        if index.dtype.kind not in "iu":
            raise TypeError(f"gather index {index.name!r} must hold integers")
        if starts.size and (min(starts.min(), counts.min()) < 0 or (starts + counts).max() > len(index)):
            raise IndexError(f"index runs out of range for axis of length {len(index)}")
        pos = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        pos += np.arange(pos.size)
        rt = self.runtime
        ctx = rt.cursor
        if ctx is None:
            return self._data[index._data[pos]]
        phase = rt._require_phase()
        ids, data = index._ro[pos], self._ro
        try:
            value = data[ids]
        except IndexError:
            raise IndexError(f"row indices out of range for axis of length {len(data)}") from None
        if not starts.size:
            return value
        reads, n0, cost, trailing = phase.reads, len(phase.reads), ctx._cost, self._trailing
        for s, c in zip(starts.tolist(), counts.tolist()):
            rows, _, _, _, c_idx = index._access_record(slice(s, s + c), index._ro)
            reads.append(rows)
            cost += c_idx
            cost += self._acall + (c * trailing) * self._elem_rate
        ctx._cost = cost
        log = phase.logs.get((ctx.node_id, self))
        if log is None:  # joins reads where its first per-run read would
            log = phase.logs[ctx.node_id, self] = RowLog(self)
            reads.insert(n0 + 1, log)
        log.add(ids, ids.size * trailing, starts.size)
        return value

    @property
    def committed(self) -> np.ndarray:
        """Read-only copy of the committed state (driver/test helper)."""
        return self._data.copy()

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalShared({self.name!r}, shape={self.shape}, dtype={self.dtype})"


class NodeShared(_SharedBase):
    """A node-level shared array (``PPM_node_shared``): one independent
    instance per node, stored in that node's physical shared memory.

    Inside VP code, plain indexing addresses *the executing VP's node's*
    instance.  Driver code must pick an instance explicitly with
    :meth:`instance`.
    """

    def __init__(self, runtime: "PpmRuntime", name: str, shape, dtype=np.float64, fill=0) -> None:
        super().__init__(runtime, name, shape, dtype)
        self._elem_rate = runtime._node_access_elem
        self._data: list[np.ndarray] = []
        # Per-instance read-only alias (see GlobalShared._ro).
        self._ro: list[np.ndarray] = []
        # Per-instance flag: a snapshot view of the current buffer is
        # (or was) out there; the next commit swaps buffers.
        self._views_taken: list[bool] = []
        shm = runtime.shm
        for node in runtime.cluster:
            if shm is not None:
                arr = shm.allocate(name, node.node_id, self.shape, self.dtype, fill)
            elif fill is None:
                arr = np.empty(self.shape, dtype=self.dtype)
            else:
                arr = np.full(self.shape, fill, dtype=self.dtype)
            node.memory.adopt(f"nshared:{name}", arr)
            self._data.append(arr)
            self._ro.append(self._reader(node.node_id))
            self._views_taken.append(False)

    def instance(self, node_id: int) -> np.ndarray:
        """Direct handle on one node's instance (driver code only).

        Like :meth:`GlobalShared.local_view`, the handle aliases the
        current committed buffer and is invalidated if a later phase
        commit triggers the copy-on-commit guard — re-fetch it after
        running phases instead of holding it across ``ppm.do``.
        """
        if self.runtime.cursor is not None:
            raise SharedAccessError(
                "NodeShared.instance is driver-level; VP code must use "
                "plain indexing, which addresses its own node's instance"
            )
        if not 0 <= node_id < len(self._data):
            raise IndexError(f"node id {node_id} out of range")
        return self._data[node_id]

    def _current_node(self) -> int:
        cur = self.runtime.cursor
        if cur is None:
            raise SharedAccessError(
                "node-shared access outside a phase must go through "
                ".instance(node_id)"
            )
        return cur.node_id

    # -- commit protocol -------------------------------------------------
    def _commit_target(self, instance: int | None) -> np.ndarray:
        """Node-level copy-on-commit (see
        :meth:`GlobalShared._commit_target`)."""
        if self._views_taken[instance]:
            self._views_taken[instance] = False
            shm = self.runtime.shm
            if shm is None:
                self._data[instance] = self._data[instance].copy()
            else:
                self._data[instance] = shm.swap(self.name, instance)
            self._ro[instance] = self._reader(instance)
            self.runtime.cluster.node(instance).memory.rebind(
                f"nshared:{self.name}", self._data[instance]
            )
        return self._data[instance]

    def __getitem__(self, idx):
        rt = self.runtime
        ctx = rt.cursor
        if ctx is None:
            self._current_node()  # raises the driver-level usage error
        node = ctx.node_id
        data = self._ro[node]
        t = type(idx)
        if t is slice or t is int or (t is _NDARRAY and idx.base is None and idx.dtype is not _BOOL):
            _, _, _, view_kind, cost = self._access_record(idx, data)
            value = data[idx]
        else:
            value, _, _, view_kind, cost = self._unkept_read(idx, data)
        if rt.phase is None:
            rt._require_phase()
        # A node-shared read moves nothing between nodes: it is charged
        # to the VP and leaves no record.
        ctx._cost += cost
        if view_kind:
            if isinstance(value, np.ndarray):
                self._views_taken[node] = True
        elif (
            view_kind is None
            and isinstance(value, np.ndarray)
            and np.may_share_memory(value, data)
        ):
            self._views_taken[node] = True
        return value

    def __setitem__(self, idx, value) -> None:
        rt = self.runtime
        ctx = rt.cursor
        if ctx is None:
            self._current_node()
        node = ctx.node_id
        rows, n_elem, rows_exact, _vk, cost = self._access_record(idx, self._data[node])
        if isinstance(value, np.ndarray):
            value = np.array(value, dtype=self.dtype, copy=True)
        event = WriteEvent(
            self, node, "write", None, idx, value, rows, ctx.global_rank, rows_exact
        )
        phase = rt.phase
        if phase is None:
            rt._require_phase()
        ctx._cost += cost
        phase.node_write_elems[node] += n_elem
        phase.write_ops.append(event)

    def accumulate(self, rows, values, op: str = "add") -> None:
        """Node-level analogue of :meth:`GlobalShared.accumulate`."""
        if op not in ACCUMULATE_UFUNCS:
            raise ValueError(
                f"unknown accumulate op {op!r}; expected one of {sorted(ACCUMULATE_UFUNCS)}"
            )
        rt = self.runtime
        ctx = rt.cursor
        if ctx is None:
            self._current_node()
        node = ctx.node_id
        spec, _, rows_exact, _vk, _c = self._access_record(rows, self._data[node])
        n_elem = spec.count * self._trailing
        if isinstance(values, np.ndarray):
            values = np.array(values, dtype=self.dtype, copy=True)
        event = WriteEvent(
            self, node, "accumulate", op, rows, values, spec, ctx.global_rank, rows_exact
        )
        phase = rt.phase
        if phase is None:
            rt._require_phase()
        ctx._cost += rt._access_call + n_elem * rt._node_access_elem
        phase.node_write_elems[node] += n_elem
        phase.write_ops.append(event)

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeShared({self.name!r}, shape={self.shape}, dtype={self.dtype})"
