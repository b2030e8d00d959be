"""Shared-memory segment registry for the process execution backend.

The parent process owns one :class:`multiprocessing.shared_memory`
segment per shared-variable buffer (one for a :class:`GlobalShared`,
one per node instance for a :class:`NodeShared`).  Workers map the
segments by name — a phase snapshot is therefore *mapped*, never
pickled.  The registry is the single authority over segment lifetime:

* **allocate** — back a new shared array with a fresh segment;
* **swap** — the copy-on-commit guard of the process backend: when a
  commit is about to overwrite rows that live snapshot views (in the
  parent's shard *or any worker's*, :class:`ViewProbe`) alias, the
  committed store moves to a fresh segment and the old one is retired;
  workers learn the new name with the next round or commit command;
* **sweep / close** — retired segments are closed when the ``do`` ends
  (an array over a segment holds the ``mmap``, not a buffer export, so
  closing one earlier would unmap it under a view the parent's shard
  may still read) and *unlinked* unconditionally on ``close()``, so a
  crashed kernel, a ``KeyboardInterrupt`` or plain ``PPM.close()``
  never leaks ``/dev/shm`` entries.  A ``weakref.finalize`` guard
  unlinks everything even if ``close`` is never called.

Segment names carry a per-registry prefix (``ppm-<pid>-<token>``) so
tests can assert leak-freedom by globbing ``/dev/shm``.
"""

from __future__ import annotations

import os
import secrets
import sys
import weakref

import numpy as np
from multiprocessing import shared_memory


def live_ppm_segments() -> list[str]:
    """Names of PPM-owned shared-memory segments currently in
    ``/dev/shm`` (test/diagnostic helper; empty where the OS exposes no
    such directory)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith("ppm-"))


class _Block:
    """One shared-array buffer and the segment backing it."""

    __slots__ = ("segment", "array")

    def __init__(self, segment: shared_memory.SharedMemory, array: np.ndarray) -> None:
        self.segment = segment
        self.array = array


def _as_array(segment: shared_memory.SharedMemory, shape, dtype) -> np.ndarray:
    return np.ndarray(shape, dtype=dtype, buffer=segment.buf)


class ViewProbe:
    """Which shared-array buffers a snapshot reader still references
    (one in the parent's registry, one per ``do`` in each worker).

    A variable's read-only snapshot array (``_ro``) is built straight
    over its segment's buffer, not as a view of the writable array:
    numpy collapses ``base`` chains onto it, so every basic-index read
    result and every view derived from one references *this* object,
    which nothing but the variable's handle holds — its reference count
    says whether a reader is alive.  :meth:`reader` checks that on
    every array it builds; if the check ever fails, every buffer counts
    as referenced from then on."""

    def __init__(self) -> None:
        self.refcounted = hasattr(sys, "getrefcount")

    def reader(self, segment: shared_memory.SharedMemory, shape, dtype) -> np.ndarray:
        ro = _as_array(segment, shape, dtype)
        ro.flags.writeable = False
        if self.refcounted:
            floor = sys.getrefcount(ro)
            view = ro[:0]
            seen = sys.getrefcount(ro) > floor
            del view
            self.refcounted = seen and sys.getrefcount(ro) == floor
        return ro

    def live_views(self, shared_vars) -> list:
        """``(name, instance)`` of every buffer of ``shared_vars`` a
        snapshot view was taken of and something still references;
        every other buffer's flag is cleared."""
        views = []
        for sv in shared_vars:
            taken = sv._views_taken
            node = isinstance(taken, list)  # node-shared: one per instance
            for instance, flag in enumerate(taken) if node else [(None, taken)]:
                if not flag:
                    continue
                # Anything but the handle's slot and the call argument?
                # A count can only over-count readers, never miss one.
                if not self.refcounted or sys.getrefcount(
                    sv._ro[instance] if node else sv._ro
                ) > 2:
                    views.append((sv.name, instance))
                elif node:
                    taken[instance] = False
                else:
                    sv._views_taken = False
        return views


#: Unlinked segments still pinned by a live view at registry close.
#: Parked here (instead of being dropped) so ``SharedMemory.__del__``
#: never runs while the buffer is exported; swept opportunistically.
_PINNED: list[shared_memory.SharedMemory] = []


def _sweep_pinned() -> None:
    still = []
    for segment in _PINNED:
        try:
            segment.close()
        except BufferError:
            still.append(segment)
    _PINNED[:] = still


def _unlink_once(segment: shared_memory.SharedMemory) -> None:
    """Unlink ``segment`` exactly once, no matter how many release
    paths reach it.

    ``SharedMemory.unlink()`` deregisters from the multiprocessing
    resource tracker only *after* ``shm_unlink`` succeeds — a second
    call raises ``FileNotFoundError`` first and skips the
    deregistration, and on interpreter shutdown the ``weakref.finalize``
    backstop can race an explicit ``close()`` onto the same segments,
    which used to surface as a spurious leaked-``/dev/shm`` warning
    from the tracker.  A per-segment guard flag makes every release
    path idempotent at the segment level."""
    if getattr(segment, "_ppm_unlinked", False):
        return
    segment._ppm_unlinked = True
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - gone already
        pass


class ShmRegistry:
    """Parent-side owner of every segment of one PPM program."""

    def __init__(self) -> None:
        self.prefix = f"ppm-{os.getpid()}-{secrets.token_hex(3)}"
        self._counter = 0
        #: (shared name, instance) -> live :class:`_Block`.
        self._blocks: dict[tuple[str, int | None], _Block] = {}
        #: Superseded segments awaiting close (live views may pin them).
        self._graveyard: list[shared_memory.SharedMemory] = []
        #: Remaps produced by :meth:`swap` since the last drain, in
        #: order: ``(shared name, instance, new segment name)``.
        self.pending_remaps: list[tuple[str, int | None, str]] = []
        #: Buffer swaps performed so far (always counted).
        self.swaps = 0
        #: Liveness of the parent's own snapshot views.
        self.probe = ViewProbe()
        self._closed = False
        # Unlink everything even if close() is never reached (e.g. the
        # driver process is torn down with a live PpmProgram).
        self._finalizer = weakref.finalize(
            self,
            ShmRegistry._unlink_all,
            self._blocks,
            self._graveyard,
        )

    # ------------------------------------------------------------------
    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        self._counter += 1
        name = f"{self.prefix}-{self._counter}"
        return shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))

    def allocate(
        self, shared_name: str, instance: int | None, shape, dtype, fill
    ) -> np.ndarray:
        """A new shared array stored in a fresh segment."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        segment = self._new_segment(nbytes)
        array = _as_array(segment, shape, dtype)
        if fill is not None:
            array[...] = fill
        self._blocks[(shared_name, instance)] = _Block(segment, array)
        return array

    def swap(self, shared_name: str, instance: int | None) -> np.ndarray:
        """Move a block's committed store to a fresh segment (the
        copy-on-commit buffer swap), retiring the old one.  Returns the
        new array, already holding a copy of the old contents."""
        self.swaps += 1
        key = (shared_name, instance)
        block = self._blocks[key]
        old = block.array
        segment = self._new_segment(old.nbytes)
        array = _as_array(segment, old.shape, old.dtype)
        array[...] = old
        self._retire(block)
        self._blocks[key] = _Block(segment, array)
        self.pending_remaps.append((shared_name, instance, segment.name))
        return array

    def reader(self, shared_name: str, instance: int | None) -> np.ndarray:
        block = self._blocks[(shared_name, instance)]
        return self.probe.reader(block.segment, block.array.shape, block.array.dtype)

    def segment_of(self, shared_name: str, instance: int | None) -> str:
        return self._blocks[(shared_name, instance)].segment.name

    def drain_remaps(self) -> list[tuple[str, int | None, str]]:
        remaps, self.pending_remaps = self.pending_remaps, []
        return remaps

    # ------------------------------------------------------------------
    def _retire(self, block: _Block) -> None:
        block.array = None
        segment = block.segment
        _unlink_once(segment)
        self._graveyard.append(segment)

    def sweep(self) -> None:
        """Close retired segments (names already unlinked) at the end
        of a ``do``, when no VP can read a view of one any more."""
        still_pinned = []
        for segment in self._graveyard:
            try:
                segment.close()
            except BufferError:
                still_pinned.append(segment)
        self._graveyard[:] = still_pinned

    def close(self) -> None:
        """Unlink every segment this registry ever created.  Idempotent
        and exception-path safe: called from ``PPM.close()``, which
        ``run_ppm`` reaches via ``finally`` on crashes and
        ``KeyboardInterrupt`` alike."""
        if self._closed:
            return
        self._closed = True
        for block in self._blocks.values():
            block.array = None
            _unlink_once(block.segment)
            self._graveyard.append(block.segment)
        self._blocks.clear()
        self.sweep()
        # A driver-held view can still export a buffer; the name is
        # gone already, so just park the segment until the view dies.
        _PINNED.extend(self._graveyard)
        self._graveyard.clear()
        _sweep_pinned()
        # Detach last: if close() is interrupted mid-unlink, the
        # finalize backstop still covers whatever remains (every path
        # is per-segment idempotent, so overlap is harmless).
        self._finalizer.detach()

    @staticmethod
    def _unlink_all(blocks, graveyard) -> None:
        for block in blocks.values():
            _unlink_once(block.segment)
            graveyard.append(block.segment)
        blocks.clear()
        for segment in graveyard:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - pinned by a view
                _PINNED.append(segment)
        graveyard.clear()


class WorkerSegmentCache:
    """Worker-side map of segment name -> attached segment.

    Workers only ever *attach* (``create=False``) and never unlink;
    dropping a cache entry releases the worker's mapping once its last
    snapshot view dies.  Re-attaching a still-current name after a
    ``do`` boundary is cheap (a ``shm_open`` + ``mmap``).
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def attach(self, segment_name: str, shape, dtype) -> tuple:
        """The segment and a writable array over it."""
        segment = self._segments.get(segment_name)
        if segment is None:
            segment = shared_memory.SharedMemory(name=segment_name, create=False)
            self._segments[segment_name] = segment
        return segment, _as_array(segment, shape, dtype)

    def clear(self) -> None:
        """Drop all attachments (end of a ``do``); mappings pinned by
        still-live views survive until those views die."""
        self._segments.clear()
